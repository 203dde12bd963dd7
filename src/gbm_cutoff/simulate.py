"""Monte Carlo oracle: path sampling under three representations plus a
truncated stochastic Magnus exponent, mean-square estimation, and the exact
mean square of any pair from its linear second-moment equation.

Every path draws from its own counter-based substream, keyed by
(seed, path index), so estimates are reproducible bit for bit no matter
how paths are batched.  Each scheme is one batch kernel over a range of
path indices and a grid of times: a path is drawn once, at the largest t,
and every other t reads a prefix of that draw.  The estimator streams the
rows through a thread pool in cache-sized chunks of about 2^18 increments,
one chunk per task, when a row holds enough draws to pay for the threads,
and on the calling thread otherwise: each task draws, steps and
exponentiates its rows and reduces them to |X_t|^2.  The d > 1
Euler-Maruyama kernel steps all rows of a batch of at most 2048 paths at
once, time-major, one product [I + dt D; B] X (D the Ito drift) and two
in-place updates per step, and draws its rows in chunks on the pool.
First-order verify (_with_first_order_reference) reads its exact-sampler
reference off each batch's draw: the batch's reference rows run as one
pool task beside its step loop.  The output does not depend on the CPU
count.  The exact and Magnus kernels, like the moment equation, exponentiate
with linalg_core.expm_stack, a stack at once, its rows independent.
The public single-path functions are n = 1 views.  The reduction uses
exact compensated summation over the per-path values in index order.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .errors import ToolkitError
from .hypothesis_checks import check_hypotheses
from .linalg_core import commutator, expm_stack
from .system import GBMSystem

SCHEMES = ("exact_commutative", "exact_first_order", "euler_maruyama", "magnus_truncated")

# A seed keys Philox substreams as one 64-bit word: valid seeds are [0, SEED_END).
SEED_END = 1 << 64
# Rows per batch of the d > 1 Euler-Maruyama step loop, and per chunk at
# most.  Past about 2048 columns the loop gains little: stepping the 3-D
# Heisenberg pair (increments drawn beforehand, min of 5, 2 cores) cost 13.4,
# 8.5, 7.4, 6.4 and 6.6 ns per path-step at 512, 1024, 2048, 4096 and 8192
# columns, and 2048 paths of 2000 steps hold their increments in 33 MB where
# 8192 held 131 MB.  Scalar EM and Magnus chunks stay at their
# _CHUNK_DOUBLES rows (131 at 2000 steps); the exact schemes' 2-draw rows
# take 2048 per chunk (9-point exact_first_order estimates at 8192 paths:
# 105-116 -> 96-111 ms, min of 9, same bits).
_BATCH = 2048
# Bound on the largest array of one batch, in doubles (2^24, 128 MiB): rows x
# steps of its increments, rows x d^2 of its exponents.  The chunks of rows
# in flight at once share it, and the d^2 x d^2 moment equation of
# exact_mean_square obeys it too.
_MAX_BATCH_DOUBLES = 1 << 24
# A chunk of rows holds about this many increments (2^18 doubles, 2 MiB), so
# that one task's arrays stay in a core's cache.
_CHUNK_DOUBLES = 1 << 18


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# One thread per usable CPU runs the chunks in parallel, as numpy releases the
# GIL while it draws, multiplies and reduces.  A task calls private helpers
# only, and never submits to the pool: a task waiting on tasks queued behind
# it could deadlock the pool.
_WORKERS = _usable_cpus()
_POOL = ThreadPoolExecutor(_WORKERS)
# Rows of fewer draws run on the calling thread: re-keying a row holds the
# GIL, and below this width it outweighs the draws, so the pool's threads
# only contend.  Pooled over inline time for about 2^20 draws (8192 rows at
# 2 draws), median of 31, 2 cores, numpy 2.4.6: 1.0-1.4 at 2 draws per row,
# 1.3-1.4 at 256, 1.1-1.2 at 512, 0.85-0.92 at 640, 0.7-0.8 at 1000 and 2000.
_POOLED_MIN_DRAWS = 640


def _run_chunks(task, n: int, k: int, per_row: int) -> None:
    """task(a, b) for row ranges (a, b) that cover 0..n-1, for rows of k
    steps and of per_row doubles in their largest array.  A chunk holds
    about _CHUNK_DOUBLES increments and at most _BATCH rows, and the chunks
    in flight at once hold at most _MAX_BATCH_DOUBLES.  Rows of at least
    _POOLED_MIN_DRAWS steps run on the pool, where each worker takes the
    next chunk until none is left (one submission per worker, however many
    chunks); shorter rows run in order on the calling thread.  A task writes
    its rows' results in place, so the order in which chunks finish changes
    no bit."""
    workers = _WORKERS if k >= _POOLED_MIN_DRAWS else 1
    size = max(1, min(_BATCH, _CHUNK_DOUBLES // k, _MAX_BATCH_DOUBLES // (workers * per_row)))
    todo = deque((a, min(a + size, n)) for a in range(0, n, size))  # popleft is atomic

    def drain() -> None:
        while True:
            try:
                a, b = todo.popleft()
            except IndexError:
                return
            task(a, b)

    if workers == 1 or len(todo) == 1:
        drain()
    else:
        # list() waits for every worker and re-raises a task's exception
        list(_POOL.map(lambda _: drain(), range(min(workers, len(todo)))))


def _fill(z: np.ndarray, seed: int, lo: int) -> None:
    """Fill row i of `z` with the first draws of path lo + i.

    One Philox per call, re-keyed to (seed, index) with counter 0 for each
    path: the same draws as a generator built afresh from that key.
    """
    bitgen = Philox(key=np.array([seed, lo], dtype=np.uint64))
    gen = Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for i in range(len(z)):
        key[1] = lo + i
        bitgen.state = state
        gen.standard_normal(out=z[i])


def _is_int(v) -> bool:
    """v is a Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_key(seed: int, lo: int = 0, hi: int = 0) -> None:
    """A substream key is two 64-bit words, (seed, path index): ``bad_seed``
    for a seed that is not an integer in [0, 2^64), ``bad_path_index`` for
    bounds lo, hi that are not integers, for a path index of lo..hi-1
    outside [0, 2^64) or for hi < lo."""
    if not (_is_int(seed) and 0 <= seed < SEED_END):
        raise ToolkitError("bad_seed", f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not (_is_int(lo) and _is_int(hi) and 0 <= lo <= hi <= SEED_END):
        raise ToolkitError("bad_path_index", f"path indices {lo}..{hi - 1} must lie in [0, 2^64)")


def _normals(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """(hi - lo, k) standard normals; row i is the first k draws of path lo + i,
    drawn on the calling thread.  Each row's draws depend only on its key, so
    splitting the rows into chunks changes no bit."""
    _check_key(seed, lo, hi)
    z = np.empty((hi - lo, k))
    _fill(z, seed, lo)
    return z


def _nsteps(t: float, dt: float) -> int:
    if not (dt > 0.0 and dt <= t):
        raise ToolkitError("bad_timestep", f"need 0 < dt <= t, got dt={dt}, t={t}")
    if t / dt == math.inf:
        raise ToolkitError("too_many_steps", f"t/dt overflows for dt={dt}, t={t}")
    n = int(round(t / dt))
    if n < 1 or abs(n * dt - t) > 1e-9 * t:
        raise ToolkitError("bad_timestep", f"t/dt = {t / dt} is not an integer")
    if n > _MAX_BATCH_DOUBLES:
        raise ToolkitError("too_many_steps", f"t/dt = {n} exceeds {_MAX_BATCH_DOUBLES} steps per path")
    return n


def _increments(n: int, dt: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Brownian increments of n steps of size dt, one row per path lo..hi-1."""
    inc = _normals(seed, lo, hi, n)
    inc *= math.sqrt(dt)
    return inc


def _time_major_increments(
    n: int, dt: float, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The increments of _increments transposed, one row per step and one
    column per path lo..hi-1, drawn in chunks of rows on the pool straight
    into place; and each path's first two normals unscaled, the rows of
    _normals(seed, lo, hi, 2), or None for paths of one step.  The chunks in
    flight hold at most a quarter of _MAX_BATCH_DOUBLES beside these arrays."""
    inc = np.empty((n, hi - lo))
    pairs = np.empty((hi - lo, 2)) if n >= 2 else None

    def fill(a: int, b: int) -> None:
        z = _normals(seed, lo + a, lo + b, n)
        if pairs is not None:
            pairs[a:b] = z[:, :2]
        # scaled while transposed: the bits of _increments, one pass fewer
        np.multiply(z.T, math.sqrt(dt), out=inc[:, a:b])

    _run_chunks(fill, hi - lo, n, 4 * n)
    return inc, pairs


def _pairs(t: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of (W_t, int_0^t W_s ds) from each row's 2 normals.

    The pair is bivariate normal with covariance [[t, t^2/2], [t^2/2, t^3/3]];
    sampling goes through the explicit Cholesky factor of that 2x2 matrix.
    """
    if not t > 0:
        raise ToolkitError("bad_time", "t must be positive")
    w = math.sqrt(t) * z[:, 0]
    integral = 0.5 * t**1.5 * z[:, 0] + math.sqrt(t**3 / 12.0) * z[:, 1]
    return w, integral


class PathFunctionals(NamedTuple):
    """Left-endpoint Riemann functionals of one Brownian path on [0, t]."""

    w_t: float
    int_w: float
    int_w2: float
    int_sw: float


def _walk(inc: np.ndarray) -> np.ndarray:
    """The Brownian path W_1..W_n at the grid points past W_0 = 0: the
    running sums of each row of increments, taken in place of them."""
    return np.cumsum(inc, axis=1, out=inc)


def _functionals(w: np.ndarray, ks: list[int], dt: float) -> list[PathFunctionals]:
    """PathFunctionals of the first k steps of each row of the walk `w`
    (W_1..W_n, from _walk), as arrays over the rows, for each k of `ks`.
    The left endpoints are W_0..W_{k-1}, and W_0 = 0 adds nothing, so every
    integral reads W_1..W_{k-1}.  einsum reduces each row on its own, so a
    row's bits do not depend on the other rows of the batch."""
    s = np.arange(1, max(ks)) * dt
    out = []
    for k in ks:
        w_in = w[:, : k - 1]
        out.append(PathFunctionals(
            w_t=w[:, k - 1],
            int_w=w_in.sum(axis=1) * dt,
            int_w2=np.einsum("ij,ij->i", w_in, w_in) * dt,
            int_sw=np.einsum("ij,j->i", w_in, s[: k - 1]) * dt,
        ))
    return out


@dataclass
class BrownianPath:
    """Increments of a single path; functionals recompute deterministically."""

    dt: float
    increments: np.ndarray

    @classmethod
    def sample(cls, t: float, dt: float, seed: int, index: int) -> "BrownianPath":
        return cls(dt=dt, increments=_increments(_nsteps(t, dt), dt, seed, index, index + 1)[0])

    def functionals(self, t: float) -> PathFunctionals:
        if t == 0.0:
            return PathFunctionals(0.0, 0.0, 0.0, 0.0)
        n = _nsteps(t, self.dt)
        if n > self.increments.size:
            raise ToolkitError("path_too_short", f"path covers {self.increments.size} steps, need {n}")
        f = _functionals(_walk(self.increments[None, :n].copy()), [n], self.dt)[0]
        return PathFunctionals(*(float(v[0]) for v in f))


def sample_gaussian_pair(t: float, seed: int, index: int) -> tuple[float, float]:
    """One exact draw of (W_t, int_0^t W_s ds) for path `index`."""
    w, integral = _pairs(t, _normals(seed, index, index + 1, 2))
    return float(w[0]), float(integral[0])


def sample_gaussian_pairs(t: float, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact pairs for path indices 0..n-1 (same draws as sample_gaussian_pair)."""
    return _pairs(t, _normals(seed, 0, n, 2))


def _first_order_matrix(sys: GBMSystem) -> np.ndarray:
    """C = [B, A] = 0.0 - [A, B] off the pair's report, which checks [A, C] = [B, C] = 0."""
    rep = check_hypotheses(sys)
    if rep.residuals["commute_A_C"] > rep.threshold or rep.residuals["commute_B_C"] > rep.threshold:
        raise ToolkitError("representation_invalid", "[A,C] or [B,C] does not vanish")
    return 0.0 - rep.C


def _ito_drift(sys: GBMSystem) -> np.ndarray:
    """A + B^2/2, the drift of the Ito form dX = (A + B^2/2) X dt + B X dW."""
    return sys.A + 0.5 * (sys.B @ sys.B)


def _exact_exponents(sys: GBMSystem, t: float, C: np.ndarray | None, z: np.ndarray) -> np.ndarray:
    """tA + W_t B, plus (t W_t / 2 - int W ds) C unless C is None (the
    commutative scheme), from each path's 2 normals `z`."""
    w, integral = _pairs(t, z)
    M = t * sys.A[None] + w[:, None, None] * sys.B[None]
    if C is not None:
        M = M + (0.5 * t * w - integral)[:, None, None] * C[None]
    return M


def _magnus_exponents(sys: GBMSystem, t: float, f: PathFunctionals) -> np.ndarray:
    """Truncated stochastic Magnus exponents, one per entry of the functionals."""
    B = sys.B
    D = _ito_drift(sys)
    DB = commutator(D, B)
    C1, C2, C3 = -DB, commutator(DB, B), commutator(DB, D)
    u1 = 0.5 * t * f.w_t - f.int_w
    u2 = 0.5 * f.int_w2 - 0.5 * f.w_t * f.int_w + 0.5 * t * f.w_t**2
    u3 = f.int_sw - 0.5 * t * f.int_w - t**2 * f.w_t / 12.0
    return (
        (D * t - 0.5 * (B @ B) * t)[None]
        + f.w_t[:, None, None] * B[None]
        + u1[:, None, None] * C1[None]
        + u2[:, None, None] * C2[None]
        + u3[:, None, None] * C3[None]
    )


def _prefix_products(f: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """np.prod(f[:, :k], axis=1) for each k of `ks`, bit for bit, in one pass
    over the columns; overwrites `f`.  Each prefix product is folded into the
    first factor of the next segment, which continues numpy's left-to-right
    chain of multiplies instead of restarting it."""
    prods, prev = {}, 0
    for k in sorted(set(ks)):
        if prev:
            f[:, prev] *= prods[prev]
        prods[k], prev = np.prod(f[:, prev:k], axis=1), k
    return [prods[k] for k in ks]


def _nothing(*args) -> None:
    pass


def _euler_states(
    sys: GBMSystem, ks: list[int], dt: float, seed: int, lo: int, hi: int, drawn=_nothing
) -> list[np.ndarray]:
    """Euler-Maruyama states of the Ito form dX = (A + B^2/2) X dt + B X dW
    after k steps, for each k of `ks`, from one draw of max(ks) steps.

    The scalar kernel works on its rows alone.  For d > 1 the kernel draws
    the batch, calls drawn(lo, hi, pairs) with the pairs of
    _time_major_increments, then takes each step as one (2d x d) @
    (d x rows) product [I + dt D; B] X over every row of the batch, with D
    the Ito drift and the rows' increments of that step contiguous, and
    X = (I + dt D) X + dW (BX) in place."""
    drift = _ito_drift(sys)
    if sys.dim == 1:
        # scalar update collapses to a product of per-step factors
        # 1 + drift dt + B dW, built in place of the increments
        inc = _increments(max(ks), dt, seed, lo, hi)
        inc *= sys.B[0, 0]
        inc += 1.0 + drift[0, 0] * dt
        return [(sys.x[0] * p)[:, None] for p in _prefix_products(inc, ks)]
    d, n = sys.dim, hi - lo
    dW, pairs = _time_major_increments(max(ks), dt, seed, lo, hi)
    drawn(lo, hi, pairs)
    if n == 1:
        # numpy multiplies by a one-column matrix through gemv, which rounds
        # differently from gemm; stepping a lone path as two columns keeps its
        # bits batch-independent
        dW = np.repeat(dW, 2, axis=1)
    MB = np.concatenate((np.eye(d) + dt * drift, sys.B))
    X = np.repeat(sys.x[:, None], dW.shape[1], axis=1)
    Y = np.empty((2 * d, dW.shape[1]))
    MX, BX = Y[:d], Y[d:]
    wanted, states = set(ks), {}
    for k in range(1, len(dW) + 1):
        np.matmul(MB, X, out=Y)
        BX *= dW[k - 1]
        np.add(MX, BX, out=X)
        if k in wanted:
            states[k] = X[:, :n].T.copy()
    return [states[k] for k in ks]


def _end_states(
    sys: GBMSystem,
    ts: list[float],
    scheme: str,
    dt: float,
    seed: int,
    lo: int,
    hi: int,
    C: np.ndarray | None = None,
    drawn=_nothing,
    pairs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """X_t(x) under `scheme` for each t of `ts` (all > 0), one row per path
    lo..hi-1.  Each path is drawn once, at the largest t; every other t reads
    a prefix of that draw, so its rows are those of a draw at that t.  `C` is
    the gated C = [B, A] of exact_first_order (from _first_order_matrix), and
    None for every other scheme.  The d > 1 Euler-Maruyama kernel calls
    drawn(lo, hi, pairs) between its draw and its step loop; no other kernel
    calls it.  The exact kernels read `pairs`, the rows' 2 normals, when
    given, and draw them otherwise."""
    if scheme == "euler_maruyama":
        return _euler_states(sys, [_nsteps(t, dt) for t in ts], dt, seed, lo, hi, drawn)
    if scheme == "magnus_truncated":
        ks = [_nsteps(t, dt) for t in ts]
        fs = _functionals(_walk(_increments(max(ks), dt, seed, lo, hi)), ks, dt)
        exponents = (_magnus_exponents(sys, t, f) for t, f in zip(ts, fs))
    else:
        z = _normals(seed, lo, hi, 2) if pairs is None else pairs
        exponents = (_exact_exponents(sys, t, C, z) for t in ts)
    return [expm_stack(Y) @ sys.x for Y in exponents]


def sample_exact_first_order(sys: GBMSystem, t: float, seed: int, index: int) -> np.ndarray:
    """X_t(x) = exp(tA + W_t B + (t W_t / 2 - int W ds) C) x with one exact pair."""
    C = _first_order_matrix(sys)
    return _end_states(sys, [t], "exact_first_order", 0.0, seed, index, index + 1, C)[0][0]


def euler_maruyama(sys: GBMSystem, t: float, dt: float, seed: int, index: int) -> np.ndarray:
    """One Euler-Maruyama path of the Ito form dX = (A + B^2/2) X dt + B X dW."""
    if t == 0.0:
        _check_key(seed, index, index + 1)
        return sys.x.copy()
    return _end_states(sys, [t], "euler_maruyama", dt, seed, index, index + 1)[0][0]


def magnus_exponent(sys: GBMSystem, path: BrownianPath, t: float) -> np.ndarray:
    """Truncated stochastic Magnus exponent Y_t, term for term:

        (A + B^2/2) t + B W_t
        + [B, A + B^2/2] (t W_t / 2 - int W)        - B^2 t / 2
        + [[A + B^2/2, B], B] (int W^2 / 2 - W_t int W / 2 + t W_t^2 / 2)
        + [[A + B^2/2, B], A + B^2/2] (int sW - t int W / 2 - t^2 W_t / 12)

    with all path functionals taken as left-endpoint sums.  Higher-order
    nested commutators are outside this truncation.
    """
    f = PathFunctionals(*(np.array([v]) for v in path.functionals(t)))
    return _magnus_exponents(sys, t, f)[0]


@dataclass
class MCEstimate:
    value: float
    std_error: float
    n_paths: int
    seed: int
    scheme: str

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "std_error": float(self.std_error),
            "n_paths": int(self.n_paths),
            "seed": int(self.seed),
            "scheme": self.scheme,
        }


def _grid_steps(
    sys: GBMSystem, ts: list[float], scheme: str, n_paths: int, dt: float, seed: int
) -> tuple[list[int], np.ndarray | None]:
    """Steps per path at each t of the grid: 0 at t = 0, 1 for an exact
    scheme; and the gated C = [B, A] of exact_first_order, None for any
    other scheme.  The checks run in grid order, as one estimate per t runs
    them."""
    if scheme not in SCHEMES:
        raise ToolkitError("bad_scheme", f"scheme must be one of {SCHEMES}")
    if not (_is_int(n_paths) and n_paths >= 100):
        raise ToolkitError("bad_path_count", f"need an integer count of at least 100 paths, got {n_paths!r}")
    steps, C = [], None
    for t in ts:
        if t < 0:
            raise ToolkitError("bad_time", "t must be nonnegative")
        if not steps:  # the checks that do not depend on t, at the first t
            _check_key(seed)
            if scheme == "exact_commutative":
                rep = check_hypotheses(sys)
                if rep.residuals["commute_A_B"] > rep.threshold:
                    raise ToolkitError("representation_invalid", "[A,B] does not vanish")
            if scheme == "exact_first_order":
                C = _first_order_matrix(sys)
        if t == 0.0:
            steps.append(0)
            continue
        # the pair's bound before the step checks: every scheme shares it, so a
        # caller checking two schemes' grids meets it first in either order
        if sys.dim**2 > _MAX_BATCH_DOUBLES:
            raise ToolkitError("too_large", f"one {sys.dim}x{sys.dim} path exceeds {_MAX_BATCH_DOUBLES} doubles per batch")
        steps.append(_nsteps(t, dt) if scheme in ("euler_maruyama", "magnus_truncated") else 1)
    return steps, C


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    try:
        mean = math.fsum(values) / n
        var = math.fsum(np.square(values - mean)) / (n - 1)
    except OverflowError:  # finite values whose exact sum is beyond the double range
        return math.inf, math.inf
    return mean, math.sqrt(var / n)


class _Estimation:
    """An estimate_mean_squares call with its grid checked: it draws nothing
    until rows() or run() is called, and estimates() reduces the rows."""

    def __init__(self, sys: GBMSystem, ts: list[float], scheme: str, n_paths: int, dt: float, seed: int):
        self.steps, self.C = _grid_steps(sys, ts, scheme, n_paths, dt, seed)
        self.sys, self.ts, self.scheme, self.n_paths, self.dt, self.seed = sys, ts, scheme, n_paths, dt, seed
        self.drawn_ts = list(dict.fromkeys(t for t, k in zip(ts, self.steps) if k))
        self.values = {t: np.empty(n_paths) for t in self.drawn_ts}

    def rows(self, lo: int, hi: int, drawn=_nothing, pairs: np.ndarray | None = None) -> None:
        """|X_t|^2 of paths lo..hi-1 at each drawn t, into self.values; drawn
        and pairs go to _end_states."""
        # overflow surfaces as a non-finite estimate, refused by estimates();
        # the error state is per thread, so each pool task sets its own
        ts = self.drawn_ts
        with np.errstate(all="ignore"):
            for t, X in zip(ts, _end_states(self.sys, ts, self.scheme, self.dt, self.seed, lo, hi, self.C, drawn, pairs)):
                self.values[t][lo:hi] = np.einsum("ni,ni->n", X, X)

    def run(self, drawn=_nothing) -> list[MCEstimate]:
        """Every path's rows, then estimates().  drawn(lo, hi, pairs) runs on
        the calling thread after each d > 1 Euler-Maruyama batch's draw; the
        chunked kernels draw inside their pool tasks, which never call it."""
        if self.drawn_ts:
            k, per_row = max(self.steps), max(max(self.steps), self.sys.dim**2)
            if self.scheme == "euler_maruyama" and self.sys.dim > 1:
                # each step spans every row of a batch; the kernel pools its draws
                size = min(_BATCH, _MAX_BATCH_DOUBLES // per_row)
                for lo in range(0, self.n_paths, size):
                    self.rows(lo, min(lo + size, self.n_paths), drawn)
            else:
                _run_chunks(self.rows, self.n_paths, k, per_row)
        return self.estimates()

    def estimates(self) -> list[MCEstimate]:
        """The estimate at each t of the grid, once every path's rows are in."""
        with np.errstate(all="ignore"):
            moments = {t: _mean_and_se(v) for t, v in self.values.items()}
            at_zero = (float(self.sys.x @ self.sys.x), 0.0)
        estimates = []
        for t in self.ts:
            value, std_error = moments.get(t, at_zero)
            if not (math.isfinite(value) and math.isfinite(std_error)):
                raise ToolkitError("report_not_finite", f"estimate at t={t} is {value} +- {std_error}")
            estimates.append(MCEstimate(value, std_error, self.n_paths, self.seed, self.scheme))
        return estimates


def estimate_mean_squares(
    sys: GBMSystem,
    ts: list[float],
    scheme: str,
    n_paths: int,
    dt: float = 1e-3,
    seed: int = 0,
) -> list[MCEstimate]:
    """Monte Carlo estimates of E|X_t(x)|^2, with standard errors, one per
    entry of `ts` in grid order; the grid may be unsorted and repeat a t.

    Paths are indexed 0..n_paths-1 on deterministic substreams; identical
    (seed, scheme, n_paths, dt) reproduce each estimate bit for bit.  Each
    path is drawn and stepped once, to the largest t, and every other t
    reads a prefix of that draw, so each estimate equals the one a draw at
    its own t gives.  Every t is checked, in grid order, before anything is
    drawn.  The paths run in chunks of at most 2048, and the chunks in
    flight hold at most 2^24 doubles in their increments (rows x steps) and
    in their exponents (rows x d^2); the d > 1 Euler-Maruyama kernel steps
    batches of at most 2048 paths and 2^24 increments.  A path
    of more than 2^24 steps is rejected with ``too_many_steps``, a pair with
    d^2 > 2^24 with ``too_large``, and an estimate whose value or standard
    error is not finite with ``report_not_finite``.
    """
    return _Estimation(sys, ts, scheme, n_paths, dt, seed).run()


def _with_first_order_reference(
    sys: GBMSystem, ts: list[float], n_paths: int, dt: float, seed: int
) -> tuple[list[MCEstimate], list[MCEstimate]]:
    """The euler_maruyama and exact_first_order estimates of one grid, with
    the bits of the two estimate_mean_squares calls in sequence.

    Both grids are checked first, the reference's and then Euler-Maruyama's,
    before anything is drawn, so the first-order gate runs once and its
    ``representation_invalid`` wins over any code of either grid.  Each d > 1
    Euler-Maruyama batch hands its paths' first two normals, the reference's
    draws, to one pool task submitted from the calling thread, which computes
    the batch's reference rows beside its step loop and submits nothing; at
    one step per path the tasks draw their own pairs.  When no batch is
    handed over (d = 1, or every t is 0), the reference runs after the
    estimates on the calling thread.  An error of the Euler-Maruyama estimate
    wins over one of the reference, as in sequence, and every task is done
    or cancelled before this returns."""
    reference = _Estimation(sys, ts, "exact_first_order", n_paths, dt, seed)
    em = _Estimation(sys, ts, "euler_maruyama", n_paths, dt, seed)
    tasks = []

    def drawn(lo: int, hi: int, pairs: np.ndarray | None) -> None:
        tasks.append(_POOL.submit(reference.rows, lo, hi, pairs=pairs))

    try:
        estimates = em.run(drawn)
        if not tasks:
            return estimates, reference.run()
        for task in tasks:
            task.result()
        return estimates, reference.estimates()
    finally:
        for task in tasks:
            task.cancel()
        wait(tasks)


def estimate_mean_square(
    sys: GBMSystem,
    t: float,
    scheme: str,
    n_paths: int,
    dt: float = 1e-3,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of E|X_t(x)|^2 with its standard error: the
    one-t view of estimate_mean_squares, with the same draws, bounds and
    error codes."""
    return estimate_mean_squares(sys, [t], scheme, n_paths, dt, seed)[0]


def exact_mean_square(sys: GBMSystem, t: float) -> float:
    """E|X_t(x)|^2 of any pair (A, B), exactly, from the linear moment equation.

    P(t) = E[X_t X_t^T] solves dP/dt = D P + P D^T + B P B^T with the Ito
    drift D = A + B^2/2 (Kloeden & Platen 1992), so

        vec P(t) = exp(t L) vec(x x^T),   L = I (x) D + D (x) I + B (x) B

    with (x) the Kronecker product and exp(t L) from expm_stack, and
    E|X_t|^2 = tr P(t), the squared W2 distance of X_t(x) to delta_0.  L has
    d^4 entries: a pair with d^4 > 2^24 (d > 64) is ``too_large``, and a t
    not finite and nonnegative ``bad_time``.  At t = 0 the value is x.x.
    """
    if not 0.0 <= t < math.inf:
        raise ToolkitError("bad_time", f"t must be finite and nonnegative, got {t}")
    d = sys.dim
    if d**4 > _MAX_BATCH_DOUBLES:
        raise ToolkitError("too_large", f"the moment equation of a {d}x{d} pair has {d**4} > {_MAX_BATCH_DOUBLES} entries")
    if t == 0.0:
        return float(sys.x @ sys.x)
    drift, eye = _ito_drift(sys), np.eye(d)
    L = np.kron(eye, drift) + np.kron(drift, eye) + np.kron(sys.B, sys.B)
    p = expm_stack((t * L)[None])[0] @ np.outer(sys.x, sys.x).ravel()
    return float(np.trace(p.reshape(d, d)))
