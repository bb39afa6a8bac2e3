"""The analytic surrogate: solver, model properties, artifacts, CLI."""

import importlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.exp.bench import find_bench_dir
from repro.predict import (
    FEATURES,
    OutOfRegionError,
    PredictError,
    Predictor,
    default_fits_dir,
    feature_vector,
    fit_grid,
    fit_machine,
    fitted_machines,
    group_means,
    least_squares,
    load_fit,
    machine_specs,
    measure,
    nnls,
    render,
    simulate_point,
    solve_linear,
    write_fit,
)


def _simulated(machines):
    """The fit points' bucket means, simulated here, as a fit reads them."""
    cells = fit_grid(machines)
    return group_means(cells, [simulate_point(cell) for cell in cells])


# ---------------------------------------------------------------------------
# the hand-rolled solver


class TestSolver:
    def test_solve_linear_known_system(self):
        # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
        solution = solve_linear([[2.0, 1.0], [1.0, -1.0]], [5.0, 1.0])
        assert solution == pytest.approx([2.0, 1.0])

    def test_solve_linear_singular_returns_none(self):
        assert solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]) is None

    def test_least_squares_square_is_exact_interpolation(self):
        design = [[1.0, x] for x in (1.0, 3.0)]
        coef = least_squares(design, [5.0, 11.0])  # y = 2 + 3x
        assert coef == pytest.approx([2.0, 3.0])

    def test_least_squares_overdetermined_recovers_line(self):
        design = [[1.0, float(x)] for x in range(10)]
        targets = [7.0 + 0.5 * x for x in range(10)]
        coef = least_squares(design, targets)
        assert coef == pytest.approx([7.0, 0.5], rel=1e-6)

    def test_nnls_clamps_negative_solution(self):
        # Unconstrained best fit of y = -x needs a negative slope; NNLS
        # must zero it rather than go negative.
        design = [[1.0, float(x)] for x in range(5)]
        targets = [-float(x) for x in range(5)]
        coef = nnls(design, targets)
        assert len(coef) == 2
        assert all(c >= 0.0 for c in coef)

    def test_nnls_matches_least_squares_when_positive(self):
        design = [[1.0, float(x)] for x in range(6)]
        targets = [2.0 + 3.0 * x for x in range(6)]
        assert nnls(design, targets) == pytest.approx(
            least_squares(design, targets))

    def test_nnls_is_deterministic(self):
        design = [feature_vector(w, n, lat)
                  for w in (10, 20) for n in (1, 4) for lat in (1, 50)]
        targets = [row[1] * 0.3 + row[3] * 2.0 for row in design]
        assert nnls(design, targets) == nnls(design, targets)


# ---------------------------------------------------------------------------
# model properties over the committed fits


class TestModelProperties:
    def test_feature_vector_length_matches_names(self):
        assert len(feature_vector(10, 4, 8)) == len(FEATURES)

    def test_features_nonnegative(self):
        for work in (0, 1, 125):
            for procs in (1, 4, 16):
                for lat in (0, 1, 100):
                    assert all(f >= 0.0
                               for f in feature_vector(work, procs, lat))

    @pytest.mark.parametrize("machine", fitted_machines())
    def test_predicted_time_monotone_in_latency(self, machine):
        """Non-negative coefficients over latency-monotone features make
        the predicted time non-decreasing in the latency knob."""
        payload = load_fit(default_fits_dir(), machine)
        assert payload is not None, "committed fit artifact missing"
        predictor = Predictor(payload)
        for workload, spec in machine_specs(machine).items():
            knob = {"ttda": "network_latency", "hep": "latency",
                    "cmmp": "memory_time"}[machine]
            low, high = spec.region()[knob]
            times = [
                predictor.query({"workload": workload, knob: value})["time"]
                for value in sorted({low, (low + high) / 2.0, high})
            ]
            assert times == sorted(times)
            assert all(t >= 0.0 for t in times)

    @pytest.mark.parametrize("machine", fitted_machines())
    def test_buckets_sum_to_time(self, machine):
        predictor = Predictor(load_fit(default_fits_dir(), machine))
        answer = predictor.query({"workload": predictor.workloads()[0]})
        assert sum(answer["buckets"].values()) == pytest.approx(
            answer["time"])

    def test_unknown_knob_is_refused(self):
        predictor = Predictor(load_fit(default_fits_dir(), "hep"))
        with pytest.raises(PredictError, match="no knob"):
            predictor.query({"workload": "compute_loop", "bogus": 3})

    def test_out_of_region_raises_with_box(self):
        predictor = Predictor(load_fit(default_fits_dir(), "hep"))
        with pytest.raises(OutOfRegionError) as excinfo:
            predictor.query({"workload": "compute_loop", "latency": 1e9})
        assert "latency" in excinfo.value.region

    def test_extrapolate_answers_out_of_region(self):
        predictor = Predictor(load_fit(default_fits_dir(), "hep"))
        answer = predictor.query(
            {"workload": "compute_loop", "latency": 500},
            extrapolate=True)
        assert not answer["in_region"]
        assert answer["time"] > 0.0


# ---------------------------------------------------------------------------
# artifacts


class TestArtifacts:
    def test_committed_artifacts_round_trip_byte_identically(self):
        """render(json.load(artifact)) must reproduce the file bytes —
        the invariant that lets CI refit and ``diff`` the directory."""
        fits_dir = default_fits_dir()
        names = sorted(os.listdir(fits_dir))
        assert names, "no committed fit artifacts"
        for name in names:
            path = os.path.join(fits_dir, name)
            with open(path, "r", encoding="utf-8") as fh:
                original = fh.read()
            assert render(json.loads(original)) == original, name

    def test_refit_is_deterministic(self):
        """Two fits of the same bucket means are byte-identical (the
        pure-Python solver has a fixed operation order), also after the
        result store's JSON round trip, and equal the committed
        artifact.  The ttda refit is compared by ``benchmarks/gate.py``
        and by ``TestPredictCli``."""
        measured = _simulated(["cmmp", "hep"])
        stored = json.loads(json.dumps(measured))
        fits_dir = default_fits_dir()
        for machine in ("cmmp", "hep"):
            fresh = render(fit_machine(machine, measured[machine]))
            assert render(fit_machine(machine, measured[machine])) == fresh
            assert render(fit_machine(machine, stored[machine])) == fresh
            with open(os.path.join(fits_dir, f"{machine}.json"), "r",
                      encoding="utf-8") as fh:
                assert fresh == fh.read(), machine

    def test_write_and_load_round_trip(self, tmp_path):
        payload = fit_machine("hep", _simulated(["hep"])["hep"])
        path = write_fit(payload, str(tmp_path))
        assert os.path.isfile(path)
        loaded = load_fit(str(tmp_path), "hep")
        assert loaded == payload

    def test_e21_grid_is_one_cell_per_fit_point(self, monkeypatch):
        """e21's cells are exactly the fit points of every machine's
        workload grids, each once, and each cell simulates its point."""
        monkeypatch.syspath_prepend(find_bench_dir())
        bench = importlib.import_module("bench_e21_predict")
        experiment = bench.SWEEPS["e21_predict"]
        assert experiment.run is simulate_point
        cells = [(cell["machine"], cell["workload"], json.dumps(
            {knob: value for knob, value in cell.items()
             if knob not in ("machine", "workload")}, sort_keys=True))
            for cell in experiment.grid]
        points = [(machine, name, json.dumps(point, sort_keys=True))
                  for machine in fitted_machines()
                  for name, spec in machine_specs(machine).items()
                  for point in spec.grid]
        assert len(cells) == len(set(cells)) == len(points) == 66
        assert set(cells) == set(points)

    def test_measure_leaves_the_environment_as_found(self, tmp_path,
                                                     monkeypatch):
        """``measure`` resolves e21 as ``repro bench`` does, which
        exports REPRO_BENCH_DIR and clears REPRO_FAULT_PLAN; an
        in-process caller gets both back unchanged."""
        plan = json.dumps({"mem_slow_rate": 0.5})
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan)
        # Set, then delete: teardown removes the variable if it leaks.
        monkeypatch.setenv("REPRO_BENCH_DIR", "")
        monkeypatch.delenv("REPRO_BENCH_DIR")
        measured, cells = measure(["hep"])
        assert os.environ["REPRO_FAULT_PLAN"] == plan
        assert "REPRO_BENCH_DIR" not in os.environ
        assert cells["cached"] == 0 and cells["cold"] == len(fit_grid(["hep"]))
        assert measured == _simulated(["hep"])

    def test_load_missing_returns_none(self, tmp_path):
        assert load_fit(str(tmp_path), "nope") is None


# ---------------------------------------------------------------------------
# the CLI surface


class TestPredictCli:
    def test_query_prints_time_and_buckets(self, capsys):
        out = io.StringIO()
        code = main(["predict", "ttda", "workload=matmul", "n_pes=8",
                     "network_latency=20"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "predicted time" in text
        assert "compute" in text

    def test_out_of_region_exits_2(self, capsys):
        out = io.StringIO()
        code = main(["predict", "ttda", "workload=matmul", "n_pes=256"],
                    out=out)
        assert code == 2

    def test_unfitted_machine_exits_1(self, capsys):
        out = io.StringIO()
        code = main(["predict", "vn", "latency=3"], out=out)
        assert code == 1

    def test_extrapolate_answers(self, capsys):
        out = io.StringIO()
        code = main(["predict", "ttda", "workload=matmul", "n_pes=256",
                     "--extrapolate", "--json"], out=out)
        assert code == 0
        answer = json.loads(out.getvalue())
        assert answer["in_region"] is False

    def test_listing_names_fitted_machines(self):
        out = io.StringIO()
        code = main(["predict"], out=out)
        assert code == 0
        text = out.getvalue()
        for machine in fitted_machines():
            assert machine in text

    def test_validate_then_fit_read_one_simulation(self, tmp_path,
                                                    monkeypatch):
        """``--validate`` simulates every fit point once into the store
        and passes; ``--fit`` then reads all of them from the store and
        rewrites the committed artifacts byte for byte."""
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        out = io.StringIO()
        assert main(["predict", "--validate", "--json"], out=out) == 0
        report = json.loads(out.getvalue())
        assert report["ok"] is True
        assert report["cells"] == {"cold": 66, "cached": 0}
        assert [entry["machine"] for entry in report["machines"]] == \
            list(fitted_machines())
        assert all(entry["ok"] for entry in report["machines"])

        fits_dir = tmp_path / "fits"
        out = io.StringIO()
        assert main(["predict", "--fit", "--json", "--fits-dir",
                     str(fits_dir)], out=out) == 0
        assert json.loads(out.getvalue())["cells"] == {"cold": 0,
                                                       "cached": 66}
        committed = default_fits_dir()
        names = sorted(os.listdir(committed))
        assert sorted(os.listdir(fits_dir)) == names
        for name in names:
            with open(os.path.join(committed, name), "rb") as fh:
                assert (fits_dir / name).read_bytes() == fh.read(), name

    @pytest.mark.parametrize("flag", ["--fit", "--validate"])
    def test_unfitted_machine_fails_in_one_line(self, flag, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "vliw", flag], out=io.StringIO())
        message = excinfo.value.code
        assert isinstance(message, str)  # exit status 1, no traceback
        assert message.startswith(f"repro predict {flag}: ")
        assert "'vliw'" in message and "\n" not in message
        assert not (tmp_path / "store").exists()  # nothing simulated
