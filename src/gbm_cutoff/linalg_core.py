"""Dense real square-matrix primitives.

Brackets, the batched exponential, the eigenvalue clustering rule and the
joint eigenbasis of a commuting symmetric family, used by every analysis
module.  All operations are pure; inputs are validated once and never
mutated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToolkitError

# Relative tolerance governing symmetry/commutation tests.
DEFAULT_TOL = 1e-10
# Relative gap used to cluster nearly-equal eigenvalues.
CLUSTER_GAP = 1e-7


def _square(M, name: str) -> np.ndarray:
    """M as a d x d float64 array, d >= 1."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ToolkitError("not_square", f"{name} must be square, got shape {A.shape}")
    return A


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a d x d float64 array (d >= 1, all entries finite)."""
    A = _square(M, name)
    if not np.all(np.isfinite(A)):
        raise ToolkitError("not_finite", f"{name} contains NaN/Inf entries")
    return A


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d float64 array with finite entries."""
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ToolkitError("not_vector", f"{name}: {exc}") from exc
    if v.ndim != 1 or v.size < 1:
        raise ToolkitError("not_vector", f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ToolkitError("not_finite", f"{name} contains NaN/Inf entries")
    return v


def _is_time(t) -> bool:
    """t is finite and nonnegative: the one rule for every time the toolkit takes."""
    return 0.0 <= t < math.inf


def as_time(t) -> float:
    """Return t if it is a time (``_is_time``), else raise ``bad_time``."""
    if not _is_time(t):
        raise ToolkitError("bad_time", f"t must be finite and nonnegative, got {t}")
    return t


def fro(M) -> float:
    """Frobenius norm of a real matrix, as np.linalg.norm(M, "fro") computes
    it (the entries in memory order, one dot, a correctly rounded square
    root), without its dispatch."""
    v = np.asarray(M, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def commutator(U, V) -> np.ndarray:
    """Lie bracket UV - VU.

    Entries need not be finite: brackets of large finite matrices overflow,
    and the residual reports built from them pass the inf/nan on to their
    own finiteness check.
    """
    U = _square(U, "U")
    V = _square(V, "V")
    if U.shape != V.shape:
        raise ToolkitError("dim_mismatch", f"{U.shape} vs {V.shape}")
    return U @ V - V @ U


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, over b_0,
# and the 1-norm up to which it is accurate to double precision (Higham
# 2005).  With b_0 = 1 the approximant of a zero or nilpotent matrix has an
# exact unit diagonal, which squaring then keeps.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152


def expm_stack(Y) -> np.ndarray:
    """exp(Y[i]) for each matrix of an (n, d, d) stack.

    Pade-13 scaling and squaring (Higham 2005) with one scaling power per
    matrix, s_i = max(0, ceil(log2(|Y_i|_1 / theta_13))), chosen for each
    matrix alone as in Al-Mohy & Higham 2009: row i is squared s_i times.
    A 1 x 1 stack takes the scalar exponential, as scipy.linalg.expm does.
    Every step works on each matrix alone, so row i's bits do not depend on
    its neighbours or on n.  A row with a non-finite entry or 1-norm comes
    out all NaN; a row whose exponential overflows comes out non-finite.
    """
    Y = np.asarray(Y, dtype=float)
    norms = np.abs(Y).sum(axis=1).max(axis=1)
    bad = ~np.isfinite(norms)
    R = np.exp(Y) if Y.shape[-1] == 1 else _pade13_squared(Y, norms)
    R[bad] = np.nan
    return R


def _pade13_squared(Y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The Pade-13 scaling and squaring of expm_stack, given the 1-norms of
    Y.  Besides Y, at most six (n, d, d) arrays are held at once."""
    n, d = len(Y), Y.shape[-1]
    # ceil(log2(r)) is e - 1 when r = m 2^e with m = 1/2, else e; a row with
    # a non-finite 1-norm is not squared (C leaves frexp's e unspecified there)
    m, e = np.frexp(norms / _THETA13)
    s = np.where(np.isfinite(norms), np.maximum(e - (m == 0.5), 0), 0)
    X = np.ldexp(Y, -s[:, None, None])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    u, w = np.empty_like(X), np.empty_like(X)

    def add_even(out, scratch, c6, c4, c2, c0=None):
        """out = c6 X6 + c4 X4 + c2 X2 when c0 is None, else
        out += c6 X6 + c4 X4 + c2 X2 + c0 I."""
        if c0 is None:
            np.multiply(X6, c6, out=out)
        else:
            out += np.multiply(X6, c6, out=scratch)
            out.reshape(n, d * d)[:, :: d + 1] += c0
        out += np.multiply(X4, c4, out=scratch)
        out += np.multiply(X2, c2, out=scratch)

    b = _PADE13
    # U = X (X6 (b13 X6 + b11 X4 + b9 X2) + b7 X6 + b5 X4 + b3 X2 + b1 I), in u
    add_even(u, w, b[13], b[11], b[9])
    np.matmul(X6, u, out=w)
    add_even(w, u, b[7], b[5], b[3], b[1])
    np.matmul(X, w, out=u)
    # V = X6 (b12 X6 + b10 X4 + b8 X2) + b6 X6 + b4 X4 + b2 X2 + b0 I, in X
    add_even(w, X, b[12], b[10], b[8])
    np.matmul(X6, w, out=X)
    add_even(X, w, b[6], b[4], b[2], b[0])
    # drop each array once it is spent, so that the solve and the squarings
    # stay within the six
    del X2, X4, X6
    np.add(X, u, out=w)  # V + U
    X -= u  # V - U
    del u
    R = np.linalg.solve(X, w)
    del X, w
    for j in range(int(s.max(initial=0))):
        rows = s > j
        R[rows] = R[rows] @ R[rows]
    return R


def cluster_values(values: np.ndarray) -> list[list[int]]:
    """Group indices of nearly-equal (complex) values.

    Two values belong to the same cluster when their distance is below
    ``CLUSTER_GAP * (1 + max|value|)``; clusters are the connected
    components of that relation, listed in a deterministic order (by first
    member).
    """
    n = len(values)
    if n == 0:
        return []
    tol = CLUSTER_GAP * (1.0 + float(np.max(np.abs(values))))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _require_symmetric(U: np.ndarray, tol: float) -> np.ndarray:
    res = fro(U - U.T)
    if res > tol * (1.0 + fro(U)):
        raise ToolkitError("not_symmetric", f"asymmetry residual {res:.3e}")
    return 0.5 * (U + U.T)


def simultaneous_diagonalize(family, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Joint orthonormal eigenbasis of a commuting family of symmetric
    matrices, as the columns of V.

    Proceeds by sequential block refinement: each family member is
    diagonalized inside the eigenspaces the previous members left
    undetermined.  Off-diagonal residuals beyond ``1e-8`` (relative) raise
    ``joint_diag_failure``; a violated pairwise commutator raises
    ``not_commuting``.
    """
    mats = [_require_symmetric(as_matrix(M, f"family[{k}]"), tol) for k, M in enumerate(family)]
    if not mats:
        raise ToolkitError("empty_family", "need at least one matrix")
    d = mats[0].shape[0]
    for M in mats:
        if M.shape[0] != d:
            raise ToolkitError("dim_mismatch", "family members differ in dimension")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            res = fro(mats[i] @ mats[j] - mats[j] @ mats[i])
            if res > tol * (1.0 + fro(mats[i]) * fro(mats[j])):
                raise ToolkitError("not_commuting", f"[family[{i}], family[{j}]] = {res:.3e}")

    V = np.eye(d)
    blocks = [list(range(d))]
    for M in mats:
        refined: list[list[int]] = []
        for blk in blocks:
            if len(blk) == 1:
                refined.append(blk)
                continue
            Vb = V[:, blk]
            sub = Vb.T @ M @ Vb
            w, R = np.linalg.eigh(0.5 * (sub + sub.T))
            V[:, blk] = Vb @ R
            # split the block by eigenvalue clusters of this member
            refined.extend([blk[i] for i in idx] for idx in cluster_values(w))
        blocks = refined

    for k, M in enumerate(mats):
        D = V.T @ M @ V
        off = fro(D - np.diag(np.diag(D)))
        if off > 1e-8 * (1.0 + fro(M)):
            raise ToolkitError("joint_diag_failure", f"member {k} off-diagonal {off:.3e}")

    return V


def matrix_to_rows(M) -> list[list[float]]:
    """A report matrix as JSON rows of floats."""
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]
