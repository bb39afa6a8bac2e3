"""The workload library, written in the Id-like language.

Each workload is source text plus a pure-Python reference function; tests
and benchmarks compile the source once and check both engines against the
reference.  The set covers the behaviours the paper argues about:

* ``TRAPEZOID`` — the paper's own program (Fig 2-2): a sequential-looking
  loop whose iterations unfold in tag space;
* ``MATMUL`` — nested loops + procedure calls + I-structure arrays, the
  scalable-parallelism workload for the speedup experiments;
* ``WAVEFRONT`` — the §1.1 Issue 2 example: a 2-D array where element
  (i,j) needs (i-1,j) and (i,j-1); rows are *produced and consumed
  concurrently*, synchronized only by presence bits;
* ``JACOBI`` — iterative relaxation carrying an array reference around a
  loop (chaotic-relaxation stand-in for the Cm* discussion);
* ``FIB`` — exponential recursion, for context-tree stress;
* ``PIPELINE`` — the explicit producer/consumer pair of E2;
* ``PRIMES`` — a conditional inside a nested loop inside a reduction
  (irregular per-iteration work, the anti-SIMD workload);
* ``REDUCTION`` — a recursive divide-and-conquer tree sum over an
  I-structure (logarithmic critical path over linear work).
"""

from ..lang import compile_source

__all__ = [
    "TRAPEZOID", "MATMUL", "WAVEFRONT", "JACOBI", "FIB", "PIPELINE",
    "PRIMES", "REDUCTION",
    "compile_workload", "WORKLOADS",
    "trapezoid_reference", "linspace_trapezoid", "matmul_checksum_reference",
    "wavefront_reference", "jacobi_reference", "fib_reference",
    "pipeline_reference", "primes_reference", "reduction_reference",
]

TRAPEZOID = """
def f(x) = 1 / (1 + x * x);

def trapezoid(a, b, n, h) =
  (initial s <- (f(a) + f(b)) / 2;
           x <- a + h
   for i from 1 to n - 1 do
     new x <- x + h;
     new s <- s + f(x)
   return s) * h;
"""


def trapezoid_reference(a, b, n):
    h = (b - a) / n
    f = lambda x: 1 / (1 + x * x)  # noqa: E731
    s = (f(a) + f(b)) / 2
    x = a + h
    for _ in range(1, n):
        s += f(x)
        x += h
    return s * h


def linspace_trapezoid(a, b, n):
    """``scipy.integrate.trapezoid(f(xs), xs)`` over ``xs =
    numpy.linspace(a, b, n + 1)``, reproduced bit for bit in pure Python.

    The points are ``a + i*step`` with the last one set to ``b``, as
    ``linspace`` builds them, and the per-interval terms are summed in
    numpy's pairwise order (see :func:`_pairwise_sum`).
    """
    step = (b - a) / n
    xs = [i * step + a for i in range(n + 1)]
    xs[-1] = b
    ys = [1 / (1 + x * x) for x in xs]
    return _pairwise_sum([(xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) / 2.0
                          for i in range(n)])


def _pairwise_sum(terms):
    """``numpy.sum`` of a float64 vector: below 8 terms a plain loop;
    up to 128, eight strided accumulators combined as a tree, then the
    remainder; above 128, the two halves (split at a multiple of 8)
    summed recursively."""
    n = len(terms)
    if n < 8:
        total = 0.0  # not sum(): from Python 3.12 it compensates
        for term in terms:
            total += term
        return total
    if n <= 128:
        acc = terms[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                acc[j] += terms[i + j]
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for term in terms[end:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


MATMUL = """
def elem_a(i, j) = i + 2 * j + 1;
def elem_b(i, j) = i - j + 2;

def fill_row_a(a, n, i) =
  (initial j <- 0
   while j < n do
     a[i * n + j] <- elem_a(i, j);
     new j <- j + 1
   return 0);

def fill_row_b(b, n, i) =
  (initial j <- 0
   while j < n do
     b[i * n + j] <- elem_b(i, j);
     new j <- j + 1
   return 0);

def fill(a, b, n) =
  (initial i <- 0; t <- 0
   while i < n do
     new t <- t + fill_row_a(a, n, i) + fill_row_b(b, n, i);
     new i <- i + 1
   return t);

def dot(a, b, n, i, j) =
  (initial k <- 0; s <- 0
   while k < n do
     new s <- s + a[i * n + k] * b[k * n + j];
     new k <- k + 1
   return s);

def row_sum(a, b, n, i) =
  (initial j <- 0; s <- 0
   while j < n do
     new s <- s + dot(a, b, n, i, j);
     new j <- j + 1
   return s);

def matmul_checksum(n) =
  let a = array(n * n);
      b = array(n * n);
      t = fill(a, b, n) in
  (initial i <- 0; s <- 0
   while i < n do
     new s <- s + row_sum(a, b, n, i);
     new i <- i + 1
   return s);
"""


def matmul_checksum_reference(n):
    a = [[i + 2 * j + 1 for j in range(n)] for i in range(n)]
    b = [[i - j + 2 for j in range(n)] for i in range(n)]
    return sum(
        sum(a[i][k] * b[k][j] for k in range(n))
        for i in range(n)
        for j in range(n)
    )


WAVEFRONT = """
def fill_top(w, n) =
  (initial j <- 0
   while j < n do
     w[j] <- 1;
     new j <- j + 1
   return 0);

def fill_left(w, n) =
  (initial i <- 1
   while i < n do
     w[i * n] <- 1;
     new i <- i + 1
   return 0);

def fill_row(w, n, i) =
  (initial j <- 1
   while j < n do
     w[i * n + j] <- w[(i - 1) * n + j] + w[i * n + j - 1];
     new j <- j + 1
   return 0);

def wavefront(n) =
  let w = array(n * n);
      t0 = fill_top(w, n);
      t1 = fill_left(w, n);
      t2 = (initial i <- 1; t <- 0
            while i < n do
              new t <- t + fill_row(w, n, i);
              new i <- i + 1
            return t) in
  w[n * n - 1];
"""


def wavefront_reference(n):
    w = [[0] * n for _ in range(n)]
    for j in range(n):
        w[0][j] = 1
    for i in range(1, n):
        w[i][0] = 1
    for i in range(1, n):
        for j in range(1, n):
            w[i][j] = w[i - 1][j] + w[i][j - 1]
    return w[n - 1][n - 1]


JACOBI = """
def relax_interior(src, dst, n) =
  (initial j <- 1
   while j < n - 1 do
     dst[j] <- (src[j - 1] + src[j + 1]) / 2;
     new j <- j + 1
   return 0);

def step(src, n) =
  let dst = array(n) in
  let t0 = (initial q <- 0 while q < 1 do
              dst[0] <- src[0];
              dst[n - 1] <- src[n - 1];
              new q <- q + 1
            return 0);
      t1 = relax_interior(src, dst, n) in
  dst;

def init(v, n) =
  (initial j <- 0
   while j < n do
     v[j] <- j * j;
     new j <- j + 1
   return 0);

def jacobi(n, steps, probe) =
  let v0 = array(n) in
  let t = init(v0, n) in
  (initial v <- v0
   for k from 1 to steps do
     new v <- step(v, n)
   return v[probe]);
"""


def jacobi_reference(n, steps, probe):
    v = [float(j * j) for j in range(n)]
    for _ in range(steps):
        nxt = list(v)
        for j in range(1, n - 1):
            nxt[j] = (v[j - 1] + v[j + 1]) / 2
        v = nxt
    return v[probe]


FIB = """
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
"""


def fib_reference(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


PRIMES = """
def is_prime(k) =
  if k < 2 then 0 else
  (initial d <- 2; p <- 1
   while d * d <= k and p == 1 do
     new p <- if k % d == 0 then 0 else p;
     new d <- d + 1
   return p);

def count_primes(n) =
  (initial c <- 0
   for k from 2 to n do
     new c <- c + is_prime(k)
   return c);
"""


def primes_reference(n):
    count = 0
    for k in range(2, n + 1):
        if k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1)):
            count += 1
    return count


REDUCTION = """
def tree_sum(a, lo, hi) =
  if hi - lo == 1 then a[lo]
  else let mid = floor((lo + hi) / 2) in
       tree_sum(a, lo, mid) + tree_sum(a, mid, hi);

def reduce(n) =
  let a = array(n) in
  let t = (initial k <- 0
           while k < n do
             a[k] <- k + 1;
             new k <- k + 1
           return 0) in
  tree_sum(a, 0, n);
"""


def reduction_reference(n):
    return n * (n + 1) // 2


PIPELINE = """
def produce(a, n) =
  (initial k <- 0
   while k < n do
     a[k] <- k * k;
     new k <- k + 1
   return 0);

def consume(a, n) =
  (initial k <- 0; s <- 0
   while k < n do
     new s <- s + a[k];
     new k <- k + 1
   return s);

def pipeline(n) =
  let a = array(n) in
  let t = produce(a, n) in
  consume(a, n);
"""


def pipeline_reference(n):
    return sum(k * k for k in range(n))


#: name -> (source, entry, reference, default args builder)
WORKLOADS = {
    "trapezoid": (
        TRAPEZOID, "trapezoid",
        lambda a, b, n, h: trapezoid_reference(a, b, n),
        lambda: (0.0, 1.0, 32, 1.0 / 32),
    ),
    "matmul": (
        MATMUL, "matmul_checksum", matmul_checksum_reference, lambda: (6,)
    ),
    "wavefront": (WAVEFRONT, "wavefront", wavefront_reference, lambda: (8,)),
    "jacobi": (
        JACOBI, "jacobi", jacobi_reference, lambda: (10, 4, 5)
    ),
    "fib": (FIB, "fib", fib_reference, lambda: (10,)),
    "pipeline": (PIPELINE, "pipeline", pipeline_reference, lambda: (16,)),
    "primes": (PRIMES, "count_primes", primes_reference, lambda: (40,)),
    "reduction": (REDUCTION, "reduce", reduction_reference, lambda: (16,)),
}


#: (source, entry) -> compiled Program.  Unbounded: the keys are the
#: named WORKLOADS sources.
_COMPILED = {}


def compile_workload(name):
    """Compile a named workload; returns (program, reference, default_args).

    Each workload is compiled once per process and every caller shares
    the one ``Program``, so treat it as read-only: the machines, the
    interpreter and graph export only read it, and ``optimize_program``
    works on a clone.  ``default_args()`` is called afresh each time.
    """
    source, entry, reference, default_args = WORKLOADS[name]
    key = (source, entry)
    program = _COMPILED.get(key)
    if program is None:
        program = _COMPILED[key] = compile_source(source, entry=entry)
    return program, reference, default_args()
