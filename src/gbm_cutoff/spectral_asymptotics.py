"""Asymptotic parameters of t -> exp(tQ)y for a Hurwitz-stable Q.

For y != 0 the trajectory behaves like (t^(ell-1) / e^(qt)) * S(t) with an
almost-periodic carrier S(t) = sum_k exp(i theta_k t) v_k.  This module
extracts (q, ell, theta_k, v_k) from one `np.linalg.eig` of Q (`_Spectrum`,
the one place a drift is factored), which gives the Hurwitz test and one
split of Q into blocks (`_Split`).  Both the reading of (q, ell) and the
action t -> exp(tQ)V u that both closed forms evaluate read that split:

* eigenvalues are clustered (relative gap 1e-7); a block is an invariant
  subspace of one cluster, on which Q = c I + N with c the cluster's mean
  eigenvalue and N nearly nilpotent, so exp(tQ) = e^(tc) sum_{j<k} (tN)^j/j!
  there for a block of k eigenvalues (Schur-Parlett blocking, Davies &
  Higham 2003);
* when every cluster is one eigenvalue and the eigenvector matrix W is well
  conditioned, the blocks are W's columns and W^-1's rows;
* otherwise one complex Schur form of Q is factored and every cluster's
  block reorders it so the cluster leads (LAPACK ztrsen) and decouples it
  with one triangular Sylvester solve (ztrsyl); two clusters closer than
  rounding of Q's entries can move their mean eigenvalues (a cluster whose
  reordering fails counts as unbounded) merge, so a rounded Jordan chain
  is one block while a resolvable pair stays split, however large its
  projectors;
* q is the slowest decay rate among blocks that actually carry a component
  of y, ell the largest Jordan chain height y attains there;
* only chains of maximal height survive the t^(ell-1) normalization, so
  blocks of lower height are dropped from the carrier.

The liminf/limsup envelope [K0, K1] of |S| is estimated on a deterministic
grid; the true extrema of an almost-periodic function are not computable
in closed form for incommensurate frequencies.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import ToolkitError
from .linalg_core import CLUSTER_GAP, as_matrix, as_vector, cluster_values

# A generalized-eigenspace component below this fraction of |y| counts as zero.
COMPONENT_TOL = 1e-9
# Largest condition number of the eigenvector matrix W of M at which a split
# of simple eigenvalues reads its blocks off M = W diag(lam) W^-1; the
# eigenvector method's error grows with cond(W) (Moler & Van Loan 2003,
# method 14).  Worst relative error of |exp(tM)v|^2 against 40-digit mpmath
# over t in [0.3, 25] (numpy 2.4.6, scipy 1.17.1), near-Jordan 2 x 2 drifts
# U [[l, k], [e, l]] U^T, 20 per row, read off W:
#   cond(W) 3e1-9e1: 1.4e-13;  3e2-1e3: 2.9e-13;  2e3-9e3: 2.0e-12;
#   3e4-7e4: 1.6e-11;  e = 0 (cond(W) 1e8 and up): 6.7.
# The benchmark's symmetric and synthetic drifts read W; its Jordan drift
# (one cluster of two eigenvalues) is one block.
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


def _schur_form(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form Q = Z T Z^H, unsorted."""
    import scipy.linalg  # here, so that drifts that need no Schur form start without scipy
    return scipy.linalg.schur(Q.astype(complex), output="complex")


class _Block(NamedTuple):
    """One block of a split: the columns `cols` of the split's basis span an
    invariant subspace of M on which M acts as c I + N (k x k, in the
    block's coordinates), c the split's rate of those columns; r, which the
    decay rate is read off, is the mean of the record's eigenvalues in a
    block of one cluster and c in a merged one.  Blocks stack in the order
    of their first eigenvalue."""

    cols: slice
    r: complex
    N: np.ndarray


class _Split(NamedTuple):
    """M = basis diag_b(c_b I + N_b) basis^-1, with `rates` the c of every
    column: an eigenvalue of W's, or the mean of a Schur block's diagonal,
    which the block's basis was computed with.  `inverse` holds basis^-1,
    the blocks' coordinate rows, or is None for an eigenvector basis, whose
    coordinates are solved for.  `blocks` are by decreasing real part."""

    basis: np.ndarray
    inverse: Optional[np.ndarray]
    rates: np.ndarray
    blocks: list[_Block]

    def coordinates(self, V: np.ndarray) -> np.ndarray:
        """basis^-1 V: the blocks' coordinates of V, stacked."""
        return np.linalg.solve(self.basis, V) if self.inverse is None else self.inverse @ V


def _cluster_block(M: np.ndarray, schur: Callable, lam: np.ndarray, members: list[int]):
    """(basis, coordinate rows, M in the block's coordinates, rounding
    radius) of the cluster `members`, or None when its block cannot be split
    off: the Schur form does not hold exactly len(members) eigenvalues within
    half the gap to the others, or its reordering fails.

    ztrsen moves the cluster to the front of the shared Schur form (the
    reordering that a sorted `schur` runs inside zgees), and ztrsyl
    decouples the leading block from the trailing one on the triangular
    blocks themselves.  The radius bounds, to first order, how far the
    cluster's mean eigenvalue trace(rows M basis) / k moves when every entry
    of M moves by n eps of itself, the rounding of an n-term inner product
    that may have formed it: the componentwise condition of that mean.
    """
    n, k = M.shape[0], len(members)
    others = np.delete(lam, members)
    if not others.size:
        eye = np.eye(n, dtype=complex)
        return eye, eye, M.astype(complex), 0.0
    T, Z = schur()
    radius = 0.5 * float(np.min(np.abs(lam[members][:, None] - others)))

    def selected(w: np.ndarray) -> np.ndarray:
        return (np.abs(w[:, None] - lam[members]) <= radius).any(axis=1)

    select = selected(np.diag(T))
    if int(np.count_nonzero(select)) != k:
        return None
    import scipy.linalg  # loaded by schur() already
    T, Z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select.astype(np.intc), T, Z, job="N")
    if info != 0 or not np.all(selected(np.diag(T)[:k])):
        return None
    # ztrsyl solves T11 X - X T22 = scale * (-T12), scale <= 1 only to keep X
    # from overflowing, so X / scale solves the unscaled equation; info = 1
    # only flags close eigenvalues, which the solve perturbs, and is not fatal
    X, scale, _ = scipy.linalg.lapack.ztrsyl(T[:k, :k], T[k:, k:], -T[:k, k:], isgn=-1)
    rows, basis = np.hstack([np.eye(k), -X / scale]) @ Z.conj().T, Z[:, :k]
    rounding = n * np.finfo(float).eps * float(np.sum((np.abs(rows) @ np.abs(M)) * np.abs(basis).T)) / k
    return basis, rows, T[:k, :k], rounding


def _schur_split(M: np.ndarray, lam: np.ndarray) -> _Split:
    """The split of M into cluster blocks off one shared Schur form.  Two
    clusters whose distance is within the sum of their rounding radii (a
    cluster whose block cannot be split off has an infinite one) are one
    chain to rounding: the nearest such pair merges, until none is left.  A
    single cluster is the whole space, in M's own basis."""
    schur = cache(lambda: _schur_form(M))
    groups = cluster_values(lam)
    unmerged, built = {tuple(g) for g in groups}, {}

    def rounding(g: list[int]) -> float:
        block = built[tuple(g)]
        return math.inf if block is None else block[3]

    while True:
        for g in groups:
            if tuple(g) not in built:
                built[tuple(g)] = _cluster_block(M, schur, lam, g)
        pairs = [
            (gap, i, j)
            for i, g in enumerate(groups)
            for j, h in enumerate(groups[:i])
            if (gap := float(np.min(np.abs(lam[g][:, None] - lam[h])))) <= rounding(g) + rounding(h)
        ]
        if not pairs:
            break
        _, i, j = min(pairs)
        groups = sorted([g for m, g in enumerate(groups) if m not in (i, j)] + [sorted(groups[i] + groups[j])],
                        key=lambda g: g[0])

    bases, rows, rates, blocks, col = [], [], [], [], 0
    for g in groups:
        basis, coords, Mb, _ = built[tuple(g)]
        k = len(g)
        # the exponential is centred on the block's Schur diagonal: on the
        # singletons of U [[-1, 10], [0, -1 - 1e-4]] U^T it errs 2.9e-12 over
        # t in [0.3, 25], centred on eig's eigenvalues 4.7e-9
        center = complex(np.trace(Mb)) / k
        # a cluster decays at the mean of eig's eigenvalues; a merged chain,
        # whose eigenvalues eig scattered by rounding, at the centre
        r = complex(np.mean(lam[g])) if tuple(g) in unmerged else center
        blocks.append(_Block(slice(col, col + k), r, Mb - center * np.eye(k)))
        bases.append(basis)
        rows.append(coords)
        rates.append(np.full(k, center))
        col += k
    return _Split(np.hstack(bases), np.vstack(rows), np.concatenate(rates), sorted(blocks, key=lambda b: -b.r.real))


def is_diagonalizable(M) -> bool:
    """True when every block of the split of M acts as a multiple of the
    identity: its nilpotent part N is within the clustering gap of |M|."""
    M = as_matrix(M, "M")
    scale = CLUSTER_GAP * (1.0 + np.linalg.norm(M, 2))
    return all(np.linalg.norm(b.N, 2) <= scale for b in _Spectrum(M).split.blocks)


class _Spectrum:
    """One eigendecomposition M = W diag(lam) W^-1 (`np.linalg.eig`) of a real
    square matrix and its views: the Hurwitz test, the split into blocks and
    the action of exp(tM) on it.  A non-finite M is never factored; the
    eigenvalue views of such an M raise ``not_finite``, those of an M whose
    eig failed ``eig_failure``, and the exp action of a non-finite M is NaN."""

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
    def split(self) -> _Split:
        """The blocks every vector and the exp action are read off: W's
        columns when every cluster is one eigenvalue and cond(W) <=
        _EIG_COND_MAX, else the blocks of the shared Schur form."""
        lam = self.eigenvalues
        if len(cluster_values(lam)) == len(lam) and np.linalg.cond(self.W) <= _EIG_COND_MAX:
            blocks = [_Block(slice(i, i + 1), complex(v), np.zeros((1, 1))) for i, v in enumerate(lam)]
            return _Split(self.W, None, lam, sorted(blocks, key=lambda b: -b.r.real))
        return _schur_split(self.M, lam)

    def exp_action(self, V: np.ndarray) -> Callable[[float, np.ndarray], tuple[float, np.ndarray]]:
        """t, u -> (s, v) with exp(tM) V u = e^s v for a d x k matrix V, O(d^2)
        per call, off the coordinates h = G u (G = basis^-1 V) and their images
        p under sum_{j<k} (tN)^j/j! on each block of k > 1 eigenvalues.  On
        W's columns, or a single block, v = Re(basis (e^{t rates - s} * p)).
        Several Schur blocks are summed relative to the rate c0 of largest real
        part, as basis h = V u:

            v = Re(e^{t c0 - s} (V u + basis (expm1(t (rates - c0)) * p + p - h))),

        so the large coordinates of a close but resolvable pair are scaled by
        their small expm1 instead of cancelling each other in the sum.
        s = t max(0, Re c0) is 0 for a decaying M, so v is then read off the
        plain exponentials; a growing M's overflow shows as an infinite e^s,
        not as NaN."""
        if self.failure is not None and self.failure[0] == "not_finite":
            nan = np.full(self.M.shape[0], np.nan)
            return lambda t, u: (0.0, nan)
        split = self.split
        G = split.coordinates(V)
        chains = [b for b in split.blocks if b.N.shape[0] > 1]
        lead = split.rates[np.argmax(split.rates.real)]
        growth, shift = max(0.0, float(lead.real)), split.rates - lead
        relative = split.inverse is not None and len(split.blocks) > 1

        def act(t: float, u: np.ndarray) -> tuple[float, np.ndarray]:
            h = G @ u
            p = h.copy() if relative else h
            for b in chains:  # Horner: c + tN (c + tN/2 (c + ...))
                c = z = h[b.cols]
                for j in range(b.N.shape[0] - 1, 0, -1):
                    z = c + (t / j) * (b.N @ z)
                p[b.cols] = z
            s = t * growth
            if not relative:
                return s, (split.basis @ (np.exp(t * split.rates - s) * p)).real
            d = np.expm1(t * shift) * p + (p - h)
            return s, (np.exp(t * lead - s) * (V @ u + split.basis @ d)).real

        return act


def _read_vector(split: _Split, y: np.ndarray) -> tuple[float, int, list]:
    """(q, ell, kept) of exp(tQ)y off the split of Q: kept lists (rep, top of
    chain) of the leading blocks of height ell, by decreasing frequency.
    Every block's basis has unit columns (W's) or orthonormal ones (Schur
    vectors), so a component's norm is that of its coordinates."""
    ynorm = float(np.linalg.norm(y))
    coords = split.coordinates(y[:, None])[:, 0]
    q = None
    # block, chain height and top-of-chain vector of each leading component of y
    leading = []
    for b in split.blocks:
        if q is not None and b.r.real < -q - lead_tol:
            break
        comp = coords[b.cols]
        if np.linalg.norm(comp) <= COMPONENT_TOL * ynorm:
            continue
        height, top = 1, comp
        z = comp
        for j in range(1, b.N.shape[0]):
            z = b.N @ z
            if np.linalg.norm(z) > COMPONENT_TOL * ynorm:
                height, top = j + 1, z
        if q is None:
            q = -b.r.real
            lead_tol = CLUSTER_GAP * (1.0 + abs(q))
        leading.append((b, height, split.basis[:, b.cols] @ top))

    if q is None:
        raise ToolkitError("eig_failure", "no spectral component of y exceeds threshold")

    ell = max(height for _, height, _ in leading)
    kept = [
        (b.r, top)
        for b, height, top in sorted(leading, key=lambda e: (-e[0].r.imag, e[0].cols.start))
        if height == ell
    ]
    return q, ell, kept


def _read_decay(spectrum: _Spectrum, y: np.ndarray) -> tuple[float, int, list]:
    """(q, ell, kept) of exp(tQ)y off the record of Q, as `_read_vector`
    reads them; ``not_stable`` unless Q is Hurwitz and exp(tQ)y decays."""
    if not spectrum.is_hurwitz(0.0):
        raise ToolkitError("not_stable", "Q is not Hurwitz stable")
    q, ell, kept = _read_vector(spectrum.split, y)
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
    ``bad_time`` unless t is finite and positive, or 0 with ell = 1."""
    if not 0.0 <= t < math.inf or (t == 0.0 and asym.ell > 1):
        raise ToolkitError("bad_time", f"no normalized state at t = {t} for ell = {asym.ell}")
    y = as_vector(y, "y")
    s, state = _Spectrum(as_matrix(Q, "Q")).exp_action(y[:, None])(t, np.ones(1))
    return math.exp(asym.q * t + s) / t ** (asym.ell - 1) * state


def is_hurwitz(U, margin: float = 0.0) -> bool:
    """True iff every eigenvalue of U has real part <= -margin."""
    U = as_matrix(U, "U")
    if margin < 0:
        raise ToolkitError("bad_margin", "margin must be >= 0")
    return _Spectrum(U).is_hurwitz(margin)
