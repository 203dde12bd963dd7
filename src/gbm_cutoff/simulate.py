"""Monte Carlo oracle: path sampling under three representations plus a
truncated stochastic Magnus exponent, and mean-square estimation.

Every path draws from its own counter-based substream, keyed by
(seed, path index), so estimates are reproducible bit for bit no matter
how paths are batched.  Each scheme is one batch kernel over a range of
path indices; the public single-path functions are its n = 1 views.  The
reduction uses exact compensated summation over the per-path values in
index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from numpy.random import Generator, Philox

from .errors import ToolkitError
from .linalg_core import fro
from .system import GBMSystem

SCHEMES = ("exact_commutative", "exact_first_order", "euler_maruyama", "magnus_truncated")

# A seed keys Philox substreams as one 64-bit word: valid seeds are [0, SEED_END).
SEED_END = 1 << 64
_BATCH = 8192
# Bound on rows x steps of one batch's increment matrix (2^24 doubles, 128 MiB).
_MAX_BATCH_DOUBLES = 1 << 24


def _rng(seed: int, index: int) -> Generator:
    """Independent substream for one path: Philox keyed by (seed, index)."""
    return Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))


def _normals(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """(hi - lo, k) standard normals; row i is the first k draws of path lo + i."""
    z = np.empty((hi - lo, k))
    for i in range(hi - lo):
        z[i] = _rng(seed, lo + i).standard_normal(k)
    return z


def _nsteps(t: float, dt: float) -> int:
    if not (dt > 0.0 and dt <= t):
        raise ToolkitError("bad_timestep", f"need 0 < dt <= t, got dt={dt}, t={t}")
    n = int(round(t / dt))
    if n < 1 or abs(n * dt - t) > 1e-9 * max(t, 1.0):
        raise ToolkitError("bad_timestep", f"t/dt = {t / dt} is not an integer")
    return n


def _increments(t: float, dt: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Brownian increments on the grid k dt, one row per path lo..hi-1."""
    inc = _normals(seed, lo, hi, _nsteps(t, dt))
    inc *= math.sqrt(dt)
    return inc


def _pairs(t: float, seed: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of (W_t, int_0^t W_s ds) for paths lo..hi-1.

    The pair is bivariate normal with covariance [[t, t^2/2], [t^2/2, t^3/3]];
    sampling goes through the explicit Cholesky factor of that 2x2 matrix.
    """
    if not t > 0:
        raise ToolkitError("bad_time", "t must be positive")
    z = _normals(seed, lo, hi, 2)
    w = math.sqrt(t) * z[:, 0]
    integral = 0.5 * t**1.5 * z[:, 0] + math.sqrt(t**3 / 12.0) * z[:, 1]
    return w, integral


class PathFunctionals(NamedTuple):
    """Left-endpoint Riemann functionals of one Brownian path on [0, t]."""

    w_t: float
    int_w: float
    int_w2: float
    int_sw: float


def _functionals(inc: np.ndarray, dt: float) -> PathFunctionals:
    """PathFunctionals of each row of increments, as arrays over the rows."""
    cum = np.cumsum(inc, axis=1)
    w_left = np.hstack([np.zeros((len(inc), 1)), cum[:, :-1]])
    s_left = np.arange(inc.shape[1]) * dt
    return PathFunctionals(
        w_t=cum[:, -1],
        int_w=w_left.sum(axis=1) * dt,
        int_w2=(w_left**2).sum(axis=1) * dt,
        int_sw=(w_left * s_left).sum(axis=1) * dt,
    )


@dataclass
class BrownianPath:
    """Increments of a single path; functionals recompute deterministically."""

    dt: float
    increments: np.ndarray

    @classmethod
    def sample(cls, t: float, dt: float, seed: int, index: int) -> "BrownianPath":
        return cls(dt=dt, increments=_increments(t, dt, seed, index, index + 1)[0])

    def functionals(self, t: float) -> PathFunctionals:
        if t == 0.0:
            return PathFunctionals(0.0, 0.0, 0.0, 0.0)
        n = _nsteps(t, self.dt)
        if n > self.increments.size:
            raise ToolkitError("path_too_short", f"path covers {self.increments.size} steps, need {n}")
        return PathFunctionals(*(float(v[0]) for v in _functionals(self.increments[None, :n], self.dt)))


def sample_gaussian_pair(t: float, seed: int, index: int) -> tuple[float, float]:
    """One exact draw of (W_t, int_0^t W_s ds) for path `index`."""
    w, integral = _pairs(t, seed, index, index + 1)
    return float(w[0]), float(integral[0])


def sample_gaussian_pairs(t: float, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact pairs for path indices 0..n-1 (same draws as sample_gaussian_pair)."""
    return _pairs(t, seed, 0, n)


def _first_order_matrix(sys: GBMSystem) -> np.ndarray:
    """C = [B, A], checked to satisfy [A, C] = [B, C] = 0."""
    A, B = sys.A, sys.B
    C = B @ A - A @ B
    thr = sys.tol * sys.bracket_scale()
    if fro(A @ C - C @ A) > thr or fro(B @ C - C @ B) > thr:
        raise ToolkitError("representation_invalid", "[A,C] or [B,C] does not vanish")
    return C


def _exact_exponents(sys: GBMSystem, t: float, scheme: str, seed: int, lo: int, hi: int) -> np.ndarray:
    """tA + W_t B, plus (t W_t / 2 - int W ds) C for the first-order scheme."""
    w, integral = _pairs(t, seed, lo, hi)
    M = t * sys.A[None] + w[:, None, None] * sys.B[None]
    if scheme == "exact_first_order":
        C = _first_order_matrix(sys)
        M = M + (0.5 * t * w - integral)[:, None, None] * C[None]
    return M


def _magnus_exponents(sys: GBMSystem, t: float, f: PathFunctionals) -> np.ndarray:
    """Truncated stochastic Magnus exponents, one per entry of the functionals."""
    A, B = sys.A, sys.B
    D = A + 0.5 * (B @ B)
    DB = D @ B - B @ D  # [D, B]
    C1, C2, C3 = -DB, DB @ B - B @ DB, DB @ D - D @ DB
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


def _euler_states(sys: GBMSystem, t: float, dt: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Euler-Maruyama end states of the Ito form dX = (A + B^2/2) X dt + B X dW."""
    inc = _increments(t, dt, seed, lo, hi)
    drift = sys.A + 0.5 * (sys.B @ sys.B)
    if sys.dim == 1:
        # scalar update collapses to a product of per-step factors
        factors = 1.0 + drift[0, 0] * dt + sys.B[0, 0] * inc
        return (sys.x[0] * np.prod(factors, axis=1))[:, None]
    # numpy multiplies a one-row matrix through gemv, which rounds differently
    # from gemm; stepping a lone path as two rows keeps its bits batch-independent
    rows = max(hi - lo, 2)
    inc = np.broadcast_to(inc, (rows, inc.shape[1]))
    driftT = drift.T
    BT = sys.B.T
    X = np.broadcast_to(sys.x, (rows, sys.dim)).copy()
    for k in range(inc.shape[1]):
        X = X + dt * (X @ driftT) + inc[:, k, None] * (X @ BT)
    return X[: hi - lo]


def _end_states(sys: GBMSystem, t: float, scheme: str, dt: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """X_t(x) under `scheme`, one row per path lo..hi-1 (t > 0)."""
    if scheme == "euler_maruyama":
        return _euler_states(sys, t, dt, seed, lo, hi)
    if scheme == "magnus_truncated":
        Y = _magnus_exponents(sys, t, _functionals(_increments(t, dt, seed, lo, hi), dt))
    else:
        Y = _exact_exponents(sys, t, scheme, seed, lo, hi)
    return scipy.linalg.expm(Y) @ sys.x


def sample_exact_first_order(sys: GBMSystem, t: float, seed: int, index: int) -> np.ndarray:
    """X_t(x) = exp(tA + W_t B + (t W_t / 2 - int W ds) C) x with one exact pair."""
    return _end_states(sys, t, "exact_first_order", 0.0, seed, index, index + 1)[0]


def euler_maruyama(sys: GBMSystem, t: float, dt: float, seed: int, index: int) -> np.ndarray:
    """One Euler-Maruyama path of the Ito form dX = (A + B^2/2) X dt + B X dW."""
    if t == 0.0:
        return sys.x.copy()
    return _end_states(sys, t, "euler_maruyama", dt, seed, index, index + 1)[0]


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


def estimate_mean_square(
    sys: GBMSystem,
    t: float,
    scheme: str,
    n_paths: int,
    dt: float = 1e-3,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of E|X_t(x)|^2 with its standard error.

    Paths are indexed 0..n_paths-1 on deterministic substreams; identical
    (seed, scheme, n_paths, dt) reproduce the estimate bit for bit.  A batch
    holds at most 8192 paths and 2^24 Brownian increments; a path of more
    than 2^24 steps is rejected.
    """
    if scheme not in SCHEMES:
        raise ToolkitError("bad_scheme", f"scheme must be one of {SCHEMES}")
    if n_paths < 100:
        raise ToolkitError("bad_path_count", "need at least 100 paths")
    if t < 0:
        raise ToolkitError("bad_time", "t must be nonnegative")
    if not 0 <= seed < SEED_END:
        raise ToolkitError("bad_seed", f"seed must lie in [0, 2^64), got {seed}")

    if scheme == "exact_commutative":
        thr = sys.tol * sys.bracket_scale()
        if fro(sys.A @ sys.B - sys.B @ sys.A) > thr:
            raise ToolkitError("representation_invalid", "[A,B] does not vanish")
    if scheme == "exact_first_order":
        _first_order_matrix(sys)

    if t == 0.0:
        return MCEstimate(
            value=float(sys.x @ sys.x), std_error=0.0,
            n_paths=n_paths, seed=seed, scheme=scheme,
        )

    steps = _nsteps(t, dt) if scheme in ("euler_maruyama", "magnus_truncated") else 1
    if steps > _MAX_BATCH_DOUBLES:
        raise ToolkitError("too_many_steps", f"t/dt = {steps} exceeds {_MAX_BATCH_DOUBLES} steps per path")
    rows = min(_BATCH, _MAX_BATCH_DOUBLES // steps)
    values = np.empty(n_paths)
    for lo in range(0, n_paths, rows):
        hi = min(lo + rows, n_paths)
        X = _end_states(sys, t, scheme, dt, seed, lo, hi)
        values[lo:hi] = np.einsum("ni,ni->n", X, X)

    mean = math.fsum(values) / n_paths
    var = math.fsum((v - mean) ** 2 for v in values) / (n_paths - 1)
    return MCEstimate(
        value=mean,
        std_error=math.sqrt(var / n_paths),
        n_paths=n_paths,
        seed=seed,
        scheme=scheme,
    )
