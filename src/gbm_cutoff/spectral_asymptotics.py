"""Asymptotic parameters of t -> exp(tQ)y for a Hurwitz-stable Q.

For y != 0 the trajectory behaves like (t^(ell-1) / e^(qt)) * S(t) with an
almost-periodic carrier S(t) = sum_k exp(i theta_k t) v_k.  This module
extracts (q, ell, theta_k, v_k) from one `np.linalg.eig` of Q (`_Spectrum`,
the one place a drift is factored), which also gives the Hurwitz test and
the action t -> exp(tQ)V u that both closed forms evaluate:

* eigenvalues are clustered (relative gap 1e-7) and taken by decreasing
  real part; a cluster's spectral projector is built when a vector is
  first read off it, and reading stops below the slowest decay rate the
  vector reaches, so usually only the leading cluster is projected;
* a split factors one complex Schur form of Q, when its first projector
  is built, and every cluster shares it: a cluster's projector reorders
  that form so the cluster leads (LAPACK ztrsen) and decouples it with
  one triangular Sylvester solve (ztrsyl);
* q is the slowest decay rate among clusters that actually carry a
  component of y, ell the largest Jordan chain height y attains there;
* only chains of maximal height survive the t^(ell-1) normalization, so
  clusters of lower height are dropped from the carrier.

The liminf/limsup envelope [K0, K1] of |S| is estimated on a deterministic
grid; the true extrema of an almost-periodic function are not computable
in closed form for incommensurate frequencies.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ToolkitError
from .linalg_core import CLUSTER_GAP, as_matrix, as_vector, cluster_values

# A generalized-eigenspace component below this fraction of |y| counts as zero.
COMPONENT_TOL = 1e-9
# Largest condition number of the eigenvector matrix W of M at which
# _Spectrum.exp_action reads exp(tM) off M = W diag(lam) W^-1; the eigenvector
# method's error grows with cond(W) (Moler & Van Loan 2003, method 14).
# Worst relative error of |exp(tM)v|^2 against 40-digit mpmath over t in
# [0.3, 25], eig against scipy.linalg.expm (numpy 2.4.6, scipy 1.17.1):
# near-Jordan 2 x 2 drifts U [[l, k], [e, l]] U^T, 20 per row:
#   cond(W) 3e1-9e1: 1.4e-13 against 5.9e-12;  3e2-1e3: 2.9e-13 against 1.5e-12
#   2e3-9e3: 2.0e-12 against 1.3e-12;  3e4-7e4: 1.6e-11 against 2.0e-12
#   e = 0 (cond(W) 1e8 and up): 6.7 against 1.6e-12.
# The benchmark's closed-form drifts: its symmetric and synthetic ones take
# eig (profile and mean-square cells at seeds 1-5 err at most 2.9e-14,
# against expm's 1.3e-12); its Jordan drift (cond(W) 4e7-1.2e8) takes expm.
_EIG_COND_MAX = 1e3
# Envelope grid: 10^4 points spanning 100 beat periods of the slowest gap.
GRID_POINTS = 10_000
GRID_PERIODS_X_2PI = 200.0 * math.pi


@dataclass
class SpectralAsymptotics:
    q: float
    ell: int
    m: int
    thetas: list[float]
    vs: list[np.ndarray]
    K0: float
    K1: float

    def carrier(self, t: float) -> np.ndarray:
        """S(t) = sum_k exp(i theta_k t) v_k (complex d-vector)."""
        out = np.zeros_like(self.vs[0], dtype=complex)
        for theta, v in zip(self.thetas, self.vs):
            out = out + np.exp(1j * theta * t) * v
        return out

    def to_dict(self) -> dict:
        return {
            "q": float(self.q),
            "ell": int(self.ell),
            "m": int(self.m),
            "thetas": [float(t) for t in self.thetas],
            "vs": [{"re": list(map(float, v.real)), "im": list(map(float, v.imag))} for v in self.vs],
            "K0": float(self.K0),
            "K1": float(self.K1),
        }


def spectral_projector(Q, members, radius: float) -> np.ndarray:
    """Projector onto the joint generalized eigenspace of the eigenvalues
    in `members`, along the complementary one.

    Built as a split builds each cluster's projector, off the complex Schur
    form of Q, which a split factors once for all its clusters.
    """
    T, Z = _schur_form(as_matrix(Q, "Q"))
    return _cluster_projector(T, Z, np.asarray(members, dtype=complex), radius)


def _schur_form(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form Q = Z T Z^H, unsorted."""
    return scipy.linalg.schur(Q.astype(complex), output="complex")


def _cluster_projector(T: np.ndarray, Z: np.ndarray, members: np.ndarray, radius: float) -> np.ndarray:
    """Spectral projector of the eigenvalues of T within `radius` of `members`.

    ztrsen moves them to the front of the Schur form (the reordering that a
    sorted `schur` runs inside zgees), and ztrsyl decouples the leading block
    from the trailing one on the triangular blocks themselves.
    """
    n = T.shape[0]

    def selected(w: np.ndarray) -> np.ndarray:
        return (np.abs(w[:, None] - members) <= radius).any(axis=1)

    select = selected(np.diag(T))
    k = int(np.count_nonzero(select))
    if k == 0:
        raise ToolkitError("eig_failure", "Schur reordering selected no eigenvalues")
    if k == n:
        return np.eye(n, dtype=complex)
    T, Z, _, k, _, _, info = scipy.linalg.lapack.ztrsen(select.astype(np.intc), T, Z, job="N")
    if info != 0 or not np.all(selected(np.diag(T)[:k])):
        raise ToolkitError("eig_failure", "Schur reordering failed to lead with the selected eigenvalues")
    # ztrsyl solves T11 X - X T22 = scale * (-T12), scale <= 1 only to keep X
    # from overflowing, so X / scale solves the unscaled equation; info = 1
    # only flags close eigenvalues, which the solve perturbs, and is not fatal
    X, scale, _ = scipy.linalg.lapack.ztrsyl(T[:k, :k], T[k:, k:], -T[:k, k:], isgn=-1)
    M = np.zeros((n, n), dtype=complex)
    M[:k, :k] = np.eye(k)
    M[:k, k:] = -X / scale
    return Z @ M @ Z.conj().T


def is_diagonalizable(M) -> bool:
    """True when every eigenvalue cluster of M has full geometric multiplicity:
    M - rep I has as many zero singular values as the cluster has members."""
    spectrum = _Spectrum(as_matrix(M, "M"))
    scale = CLUSTER_GAP * (1.0 + float(np.max(np.abs(spectrum.eigenvalues))))
    for c in spectrum.clusters:
        sv = np.linalg.svd(c.N, compute_uv=False)
        if int(np.sum(sv <= scale * (1.0 + sv[0]))) < c.size:
            return False
    return True


class _Spectrum:
    """One eigendecomposition M = W diag(lam) W^-1 (`np.linalg.eig`) of a real
    square matrix and its views: the Hurwitz test, the split into eigenvalue
    clusters and the action of exp(tM).  A non-finite M is never factored;
    the eigenvalue views of such an M raise ``not_finite``, those of an M
    whose eig failed ``eig_failure``, and the exp action takes expm per t."""

    def __init__(self, M: np.ndarray):
        self.M, self.lam, self.W, self.failure = M, None, None, None
        if not np.all(np.isfinite(M)):
            self.failure = ("not_finite", "matrix contains NaN/Inf entries")
        else:
            try:
                self.lam, self.W = np.linalg.eig(M)
            except np.linalg.LinAlgError as exc:
                self.failure = ("eig_failure", str(exc))

    @property
    def eigenvalues(self) -> np.ndarray:
        if self.failure is not None:
            raise ToolkitError(*self.failure)
        return self.lam

    def is_hurwitz(self, margin: float) -> bool:
        """True iff every eigenvalue of M has real part <= -margin."""
        return bool(np.max(self.eigenvalues.real) <= -margin)

    @cached_property
    def clusters(self) -> list[_Cluster]:
        """The split every vector is read off: the eigenvalue clusters by
        decreasing real part, sharing the Schur form of the first projector."""
        parts = [_Cluster(self, k, idx) for k, idx in enumerate(cluster_values(self.eigenvalues))]
        return sorted(parts, key=lambda c: -c.rep.real)

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        return _schur_form(self.M)

    def exp_action(self, V: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """t, u -> exp(tM) V u for a d x k matrix V: Re(W (e^{t lam} * (G u)))
        with G = W^-1 V, O(d^2) per call, when cond(W) <= _EIG_COND_MAX.  For
        any other M (non-finite, defective or nearly defective drifts), and
        for a t whose value comes out non-finite, scipy.linalg.expm(tM) @ (V u),
        so an overflow comes out exactly as expm's."""
        def by_expm(t: float, u: np.ndarray) -> np.ndarray:
            return scipy.linalg.expm(t * self.M) @ (V @ u)

        if self.W is None or not np.linalg.cond(self.W) <= _EIG_COND_MAX:
            return by_expm
        G = np.linalg.solve(self.W, V)

        def by_eig(t: float, u: np.ndarray) -> np.ndarray:
            v = (self.W @ (np.exp(t * self.lam) * (G @ u))).real
            return v if np.all(np.isfinite(v)) else by_expm(t, u)

        return by_eig


class _Cluster:
    """One eigenvalue cluster of a split: its position in the eigenvalue
    order, its mean rep and its size; its spectral projector, read off the
    split's shared Schur form, and M - rep I are built on first use."""

    def __init__(self, spectrum: _Spectrum, index: int, idx: list[int]):
        self.spectrum, self.index, self.size = spectrum, index, len(idx)
        self.members, self.others = spectrum.lam[idx], np.delete(spectrum.lam, idx)
        self.rep = complex(np.mean(self.members))

    @cached_property
    def projector(self) -> np.ndarray:
        members, others = self.members, self.others
        radius = 0.5 * float(min(abs(m - o) for m in members for o in others)) if others.size else np.inf
        return _cluster_projector(*self.spectrum.schur, members, radius)

    @cached_property
    def N(self) -> np.ndarray:
        M = self.spectrum.M
        return M.astype(complex) - self.rep * np.eye(M.shape[0])


def _read_vector(parts: list[_Cluster], y: np.ndarray) -> tuple[float, int, list]:
    """(q, ell, kept) of exp(tQ)y off the split of Q: kept lists (rep, top of
    chain) of the leading clusters of height ell, by decreasing frequency.
    Projectors are built only for the clusters down to the leading real part
    -q - lead_tol, as no cluster below it can carry a leading component."""
    ynorm = float(np.linalg.norm(y))
    yc = y.astype(complex)
    q = None
    # cluster, chain height and top-of-chain vector of each leading component of y
    leading = []
    for c in parts:
        if q is not None and c.rep.real < -q - lead_tol:
            break
        comp = c.projector @ yc
        if np.linalg.norm(comp) <= COMPONENT_TOL * ynorm:
            continue
        height, top = 1, comp
        z = comp
        for j in range(1, c.size):
            z = c.N @ z
            if np.linalg.norm(z) > COMPONENT_TOL * ynorm:
                height, top = j + 1, z
        if q is None:
            q = -c.rep.real
            lead_tol = CLUSTER_GAP * (1.0 + abs(q))
        leading.append((c, height, top))

    if q is None:
        raise ToolkitError("eig_failure", "no spectral component of y exceeds threshold")

    ell = max(height for _, height, _ in leading)
    kept = [
        (c.rep, top)
        for c, height, top in sorted(leading, key=lambda e: (-e[0].rep.imag, e[0].index))
        if height == ell
    ]
    return q, ell, kept


def _read_decay(spectrum: _Spectrum, y: np.ndarray) -> tuple[float, int, list]:
    """(q, ell, kept) of exp(tQ)y off the record of Q, as `_read_vector`
    reads them; ``not_stable`` unless Q is Hurwitz and exp(tQ)y decays."""
    if not spectrum.is_hurwitz(0.0):
        raise ToolkitError("not_stable", "Q is not Hurwitz stable")
    q, ell, kept = _read_vector(spectrum.clusters, y)
    if q <= 0.0:  # a marginal mode of y: |exp(tQ)y| does not decay
        raise ToolkitError("not_stable", f"slowest component of y decays at rate {q}")
    return q, ell, kept


def extract_asymptotics(Q, y) -> SpectralAsymptotics:
    """Extract (q, ell, m, thetas, vs, K0, K1) for exp(tQ)y.

    Q must be Hurwitz stable, y nonzero and exp(tQ)y decaying (q > 0).
    """
    Q = as_matrix(Q, "Q")
    y = as_vector(y, "y")
    if float(np.linalg.norm(y)) == 0.0:
        raise ToolkitError("zero_vector", "y must be nonzero")
    q, ell, kept = _read_decay(_Spectrum(Q), y)
    fact = math.factorial(ell - 1)
    thetas = [rep.imag for rep, _ in kept]
    vs = [top / fact for _, top in kept]

    if len(kept) == 1:
        K0 = K1 = float(np.linalg.norm(vs[0]))
    else:
        th = np.asarray(thetas)
        gaps = np.abs(th[:, None] - th[None, :])
        nz = gaps[gaps > 1e-12 * (1.0 + np.max(np.abs(th)))]
        g = float(np.min(nz))
        ts = np.linspace(0.0, GRID_PERIODS_X_2PI / g, GRID_POINTS)
        V = np.vstack(vs)                       # (m, d)
        S = np.exp(1j * np.outer(ts, th)) @ V   # (grid, d)
        norms = np.linalg.norm(S, axis=1)
        K0, K1 = float(np.min(norms)), float(np.max(norms))

    return SpectralAsymptotics(
        q=float(q), ell=int(ell), m=len(kept), thetas=thetas, vs=vs, K0=K0, K1=K1
    )


def normalized_state(Q, y, asym: SpectralAsymptotics, t: float) -> np.ndarray:
    """(e^(qt) / t^(ell-1)) exp(tQ) y — the quantity that converges to S(t);
    ``bad_time`` for t < 0, and for t = 0 when ell > 1."""
    if t < 0.0 or (t == 0.0 and asym.ell > 1):
        raise ToolkitError("bad_time", f"no normalized state at t = {t} for ell = {asym.ell}")
    y = as_vector(y, "y")
    state = _Spectrum(as_matrix(Q, "Q")).exp_action(y[:, None])(t, np.ones(1))
    return math.exp(asym.q * t) / t ** (asym.ell - 1) * state


def is_hurwitz(U, margin: float = 0.0) -> bool:
    """True iff every eigenvalue of U has real part <= -margin."""
    U = as_matrix(U, "U")
    if margin < 0:
        raise ToolkitError("bad_margin", "margin must be >= 0")
    return _Spectrum(U).is_hurwitz(margin)
