"""Dense real square-matrix primitives.

Brackets, exponentials, stability tests and (joint) symmetric
eigendecompositions used by every analysis module.  All operations are
pure; inputs are validated once and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


def fro(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M, "fro"))


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


def matrix_exp(U) -> np.ndarray:
    """Matrix exponential exp(U) (scaling-and-squaring via scipy.linalg.expm)."""
    return scipy.linalg.expm(as_matrix(U, "U"))


def is_hurwitz(U, margin: float = 0.0) -> bool:
    """True iff every eigenvalue of U has real part <= -margin."""
    U = as_matrix(U, "U")
    if margin < 0:
        raise ToolkitError("bad_margin", "margin must be >= 0")
    try:
        lam = np.linalg.eigvals(U)
    except np.linalg.LinAlgError as exc:
        raise ToolkitError("eig_failure", str(exc)) from exc
    return bool(np.max(lam.real) <= -margin)


def cluster_values(values: np.ndarray, gap: float = CLUSTER_GAP) -> list[list[int]]:
    """Group indices of nearly-equal (complex) values.

    Two values belong to the same cluster when their distance is below
    ``gap * (1 + max|value|)``; clusters are the connected components of
    that relation, listed in a deterministic order (by first member).
    """
    n = len(values)
    if n == 0:
        return []
    tol = gap * (1.0 + float(np.max(np.abs(values))))
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


@dataclass
class EigDecomposition:
    """Eigenstructure container shared by sym_eig and simultaneous_diagonalize.

    ``basis`` holds the eigenvectors as columns; ``jordan_heights`` gives the
    chain height per eigenvalue cluster (all 1 for the symmetric routines).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    jordan_heights: list[int] = field(default_factory=list)
    orthonormal: bool = False

    def eigenvalues_of(self, M) -> np.ndarray:
        """Diagonal of basis* M basis: per-matrix eigenvalues by congruence."""
        V = self.basis
        return np.real(np.diag(V.conj().T @ as_matrix(M) @ V))


def _require_symmetric(U: np.ndarray, tol: float) -> np.ndarray:
    res = fro(U - U.T)
    if res > tol * (1.0 + fro(U)):
        raise ToolkitError("not_symmetric", f"asymmetry residual {res:.3e}")
    return 0.5 * (U + U.T)


def sym_eig(U, tol: float = DEFAULT_TOL) -> EigDecomposition:
    """Eigendecomposition of a (numerically) symmetric matrix.

    Returns real eigenvalues and an orthonormal basis such that
    U = sum_j lambda_j v_j v_j* up to roundoff.
    """
    U = _require_symmetric(as_matrix(U, "U"), tol)
    try:
        w, V = np.linalg.eigh(U)
    except np.linalg.LinAlgError as exc:
        raise ToolkitError("eig_failure", str(exc)) from exc
    return EigDecomposition(
        eigenvalues=w.astype(complex),
        basis=V.astype(float),
        jordan_heights=[1] * len(w),
        orthonormal=True,
    )


def simultaneous_diagonalize(family, tol: float = DEFAULT_TOL) -> EigDecomposition:
    """Joint orthonormal eigenbasis of a commuting family of symmetric matrices.

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
            scale = CLUSTER_GAP * (1.0 + float(np.max(np.abs(w))))
            start = 0
            for k in range(1, len(w) + 1):
                if k == len(w) or w[k] - w[k - 1] > scale:
                    refined.append([blk[i] for i in range(start, k)])
                    start = k
        blocks = refined

    for k, M in enumerate(mats):
        D = V.T @ M @ V
        off = fro(D - np.diag(np.diag(D)))
        if off > 1e-8 * (1.0 + fro(M)):
            raise ToolkitError("joint_diag_failure", f"member {k} off-diagonal {off:.3e}")

    return EigDecomposition(
        eigenvalues=np.diag(V.T @ mats[0] @ V).astype(complex),
        basis=V,
        jordan_heights=[1] * d,
        orthonormal=True,
    )


def matrix_to_rows(M) -> list[list[float]]:
    """JSON-friendly arrays-of-rows form (shared with the CLI config)."""
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def matrix_from_rows(rows, name: str = "matrix") -> np.ndarray:
    """Inverse of matrix_to_rows with full validation."""
    try:
        A = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ToolkitError("not_square", f"{name}: {exc}") from exc
    return as_matrix(A, name)
