"""Tests for the Id-like front end: lexer, parser, compiler, execution."""

import math

import pytest

from repro.common import CompileError
from repro.dataflow import Interpreter, run_program
from repro.lang import (
    BinOp,
    Call,
    If,
    Literal,
    Loop,
    Var,
    compile_source,
    free_vars,
    parse,
    parse_expression,
    tokenize,
)
from repro.workloads import linspace_trapezoid


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("def f(x) = x + 1;")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "name", "op", "name", "op", "op",
                         "name", "op", "number", "op", "eof"]

    def test_arrow_and_comparisons(self):
        tokens = tokenize("a <- b <= c == d")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<-", "<=", "=="]

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e2 4.5e-1")
        values = [t.text for t in tokens if t.kind == "number"]
        assert values == ["1", "2.5", "3e2", "4.5e-1"]

    def test_comments(self):
        tokens = tokenize("x // comment\ny ;; also\nz")
        names = [t.text for t in tokens if t.kind == "name"]
        assert names == ["x", "y", "z"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_bad_character(self):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("a @ b")


class TestParser:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_comparison_binds_looser_than_arith(self):
        expr = parse_expression("a + 1 < b * 2")
        assert expr.op == "<"

    def test_if_expression(self):
        expr = parse_expression("if a < b then a else b")
        assert isinstance(expr, If)

    def test_call_and_index(self):
        expr = parse_expression("f(a, g(b))[i]")
        assert expr.__class__.__name__ == "Index"
        assert isinstance(expr.array, Call)

    def test_loop_for_form(self):
        expr = parse_expression(
            "(initial s <- 0 for i from 1 to n do new s <- s + i return s)"
        )
        assert isinstance(expr, Loop)
        assert expr.index == "i"
        assert expr.updates == [("s", expr.updates[0][1])]

    def test_loop_while_form(self):
        expr = parse_expression(
            "(initial x <- n while x > 1 do new x <- x / 2 return x)"
        )
        assert isinstance(expr, Loop)
        assert expr.index is None and expr.cond is not None

    def test_new_without_initial_rejected(self):
        with pytest.raises(CompileError, match="no matching initial"):
            parse_expression(
                "(initial s <- 0 for i from 1 to n do new q <- 1 return s)"
            )

    def test_duplicate_params_rejected(self):
        with pytest.raises(CompileError, match="duplicate parameter"):
            parse("def f(x, x) = x;")

    def test_free_vars(self):
        expr = parse_expression(
            "(initial s <- a for i from 1 to n do new s <- s + b return s)"
        )
        assert free_vars(expr) == {"a", "b", "n"}

    def test_missing_semicolon(self):
        with pytest.raises(CompileError, match="expected"):
            parse("def f(x) = x")


class TestCompileAndRun:
    def run_src(self, source, *args, entry=None):
        return run_program(compile_source(source, entry=entry), *args)

    def test_arithmetic(self):
        assert self.run_src("def f(x, y) = (x + y) * (x - y);", 9, 4) == 65

    def test_immediate_folding(self):
        program = compile_source("def f(x) = 2 * x + 1;")
        assert run_program(program, 10) == 21

    def test_constant_folding(self):
        assert self.run_src("def f(x) = x + 2 * 3;", 1) == 7

    def test_builtins(self):
        assert self.run_src("def f(x) = sqrt(x);", 49.0) == 7.0
        assert self.run_src("def f(x) = min(x, 3);", 9) == 3
        assert self.run_src("def f(x) = abs(0 - x);", 5) == 5

    def test_conditional(self):
        source = "def f(x, y) = if x < y then y - x else x - y;"
        assert self.run_src(source, 3, 10) == 7
        assert self.run_src(source, 10, 3) == 7

    def test_conditional_with_constants(self):
        source = "def f(x) = if x > 0 then 1 else 0 - 1;"
        assert self.run_src(source, 5) == 1
        assert self.run_src(source, -5) == -1

    def test_nested_conditionals(self):
        source = """
        def sign(x) = if x > 0 then 1 else if x == 0 then 0 else 0 - 1;
        """
        assert self.run_src(source, 42) == 1
        assert self.run_src(source, 0) == 0
        assert self.run_src(source, -9) == -1

    def test_let(self):
        source = "def f(x) = let a = x + 1; b = a * 2 in a + b;"
        assert self.run_src(source, 3) == 4 + 8

    def test_call_between_defs(self):
        source = """
        def square(x) = x * x;
        def f(x) = square(x) + square(x + 1);
        """
        assert self.run_src(source, 3, entry="f") == 9 + 16

    def test_recursion(self):
        source = "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);"
        assert self.run_src(source, 10) == 55

    def test_for_loop(self):
        source = """
        def sum_to(n) =
          (initial s <- 0
           for i from 1 to n do
             new s <- s + i
           return s);
        """
        for n in (0, 1, 7, 30):
            assert self.run_src(source, n) == n * (n + 1) // 2

    def test_while_loop(self):
        source = """
        def halvings(n) =
          (initial x <- n; c <- 0
           while x > 1 do
             new x <- x / 2;
             new c <- c + 1
           return c);
        """
        assert self.run_src(source, 1) == 0
        assert self.run_src(source, 16) == 4
        assert self.run_src(source, 100) == 7  # 100/2/2/... real division

    def test_loop_invariants_circulate(self):
        source = """
        def f(a, n) =
          (initial s <- 0
           for i from 1 to n do
             new s <- s + a
           return s);
        """
        assert self.run_src(source, 5, 4) == 20

    def test_nested_loops(self):
        source = """
        def f(n) =
          (initial total <- 0
           for i from 1 to n do
             new total <- total +
               (initial s <- 0
                for j from 1 to i do
                  new s <- s + j
                return s)
           return total);
        """
        expected = sum(j * (j + 1) // 2 for j in range(1, 6))
        assert self.run_src(source, 5) == expected

    def test_loop_inside_conditional(self):
        source = """
        def f(x, n) =
          if x > 0
          then (initial s <- 0 for i from 1 to n do new s <- s + i return s)
          else 0 - 1;
        """
        assert self.run_src(source, 1, 4) == 10
        assert self.run_src(source, -1, 4) == -1

    def test_conditional_inside_loop(self):
        source = """
        def count_even(n) =
          (initial c <- 0
           for i from 1 to n do
             new c <- c + (if i % 2 == 0 then 1 else 0)
           return c);
        """
        assert self.run_src(source, 10) == 5

    def test_arrays_producer_consumer(self):
        source = """
        def f(n) =
          let a = array(n) in
          let done =
            (initial k <- 0
             while k < n do
               a[k] <- k * k;
               new k <- k + 1
             return k) in
          (initial s <- 0; t <- done
           for i from 1 to n do
             new s <- s + a[i - 1]
           return s);
        """
        assert self.run_src(source, 6) == sum(k * k for k in range(6))

    def test_call_in_loop_body(self):
        source = """
        def square(x) = x * x;
        def f(n) =
          (initial s <- 0
           for i from 1 to n do
             new s <- s + square(i)
           return s);
        """
        assert self.run_src(source, 4, entry="f") == 1 + 4 + 9 + 16

    def test_boolean_ops(self):
        source = "def f(x, y) = if x > 0 and y > 0 then 1 else 0;"
        assert self.run_src(source, 1, 1) == 1
        assert self.run_src(source, 1, -1) == 0
        source = "def f(x, y) = if x > 0 or y > 0 then 1 else 0;"
        assert self.run_src(source, -1, 1) == 1

    def test_unknown_variable(self):
        with pytest.raises(CompileError, match="undefined variable"):
            compile_source("def f(x) = y;")

    def test_unknown_function(self):
        with pytest.raises(CompileError, match="unknown function"):
            compile_source("def f(x) = g(x);")

    def test_call_arity_error(self):
        with pytest.raises(CompileError, match="takes 1"):
            compile_source("def g(x) = x;\ndef f(x) = g(x, x);")


class TestTrapezoid:
    """The paper's own program (Fig 2-2), verbatim in spirit."""

    SOURCE = """
    def f(x) = 1 / (1 + x * x);

    def trapezoid(a, b, n, h) =
      (initial s <- (f(a) + f(b)) / 2;
               x <- a + h
       for i from 1 to n - 1 do
         new x <- x + h;
         new s <- s + f(x)
       return s) * h;
    """

    def test_matches_numeric_integration(self):
        program = compile_source(self.SOURCE, entry="trapezoid")
        a, b, n = 0.0, 1.0, 32
        h = (b - a) / n
        result = run_program(program, a, b, n, h)
        # Trapezoidal rule for arctan'(x): integral of 1/(1+x^2) = pi/4.
        assert result == pytest.approx(math.pi / 4, abs=1e-3)

    def test_matches_reference_trapezoid(self):
        program = compile_source(self.SOURCE, entry="trapezoid")
        a, b, n = 0.0, 2.0, 64
        h = (b - a) / n
        result = run_program(program, a, b, n, h)
        expected = linspace_trapezoid(a, b, n)
        assert result == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a, b, n, scipy_value", [
        # scipy.integrate.trapezoid(1/(1+xs*xs), xs) with
        # xs = numpy.linspace(a, b, n + 1), scipy 1.17.1 / numpy 2.4.6:
        # one term, under 8 terms, one block, and two-level pairwise sums.
        (0.0, 1.0, 1, 0.75),
        (0.0, 2.0, 5, 1.1050240020225928),
        (0.0, 1.0, 4, 0.782794117647059),
        (0.0, 2.0, 64, 1.1071356972659223),
        (0.0, 1.0, 100, 0.7853939967307823),
        (0.0, 2.0, 200, 1.1071473844639572),
        (0.0, 1.0, 299, 0.7853976973325647),
    ])
    def test_linspace_trapezoid_is_scipy_bit_for_bit(self, a, b, n,
                                                      scipy_value):
        assert linspace_trapezoid(a, b, n) == scipy_value

    def test_graph_has_fig_2_2_shape(self):
        from repro.graph import Opcode, format_program

        program = compile_source(self.SOURCE, entry="trapezoid")
        loops = [b for b in program.blocks.values() if b.kind == "loop"]
        assert len(loops) == 1
        loop = loops[0]
        opcodes = [i.opcode for i in loop]
        assert Opcode.D in opcodes
        assert Opcode.D_INV in opcodes
        assert Opcode.L_INV in opcodes
        assert Opcode.SWITCH in opcodes
        parent = program.block("trapezoid")
        assert sum(1 for i in parent if i.opcode == Opcode.L) == len(
            loop.param_targets
        )
        # The loop invokes f per iteration: a CALL inside the loop block.
        assert Opcode.CALL in opcodes
        assert "trapezoid" in format_program(program)

    def test_parallelism_profile_shows_loop_unfolding(self):
        program = compile_source(self.SOURCE, entry="trapezoid")
        interp = Interpreter(program)
        interp.run(0.0, 1.0, 64, 1.0 / 64)
        # 64 iterations, each calling f: average parallelism well above 1.
        assert interp.average_parallelism() > 2.0
