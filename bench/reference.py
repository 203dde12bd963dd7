"""The benchmark's own closed forms, computed apart from the program.

Each model is built from the parameters the generator drew, not from
program output, and evaluates the mean square on a vector of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A component of x below this fraction of |x| does not count for q and ell.
OVERLAP_TOL = 1e-9
# The program's default bracket tolerance; generated configs do not set `tol`.
PROGRAM_TOL = 1e-10


def fro(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def own_threshold(A, B) -> float:
    return PROGRAM_TOL * (1.0 + fro(A)) * (1.0 + fro(B))


def own_commutes(A, B) -> bool:
    """[A, B] = 0 and [A, B*] = 0 within the relative bracket threshold."""
    thr = own_threshold(A, B)
    return fro(A @ B - B @ A) <= thr and fro(A @ B.T - B.T @ A) <= thr


def own_normal(A, B) -> bool:
    return fro(B @ B.T - B.T @ B) <= own_threshold(A, B)


@dataclass
class CommutativeModel:
    """E|X_t|^2 = |exp(tQ)x|^2 with Q = A + ((B + B*)/2)^2.

    `kind` says how the benchmark evaluates exp(tQ)x: "symmetric" by an
    eigendecomposition of the symmetric Q, "jordan" and "rotation" by the
    2x2 formula exp(tQ) = e^{mu t}(c(t) I + s(t)(Q - mu I)) for a double
    real eigenvalue mu or a complex pair mu +- i omega.
    """

    A: np.ndarray
    B: np.ndarray
    x: np.ndarray
    kind: str
    eps_list: list
    delta: float
    w: float
    rho_grid: list
    Q: np.ndarray = field(init=False)
    q: float = field(init=False)
    ell: int = field(init=False)

    def __post_init__(self):
        S = 0.5 * (self.B + self.B.T)
        self.Q = self.A + S @ S
        if self.kind == "symmetric":
            self._w, V = np.linalg.eigh(0.5 * (self.Q + self.Q.T))
            self._c = V.T @ self.x
            live = np.abs(self._c) > OVERLAP_TOL * np.linalg.norm(self.x)
            self.q, self.ell = -float(np.max(self._w[live])), 1
            return
        mu = 0.5 * float(np.trace(self.Q))
        self._mu, self._N = mu, self.Q - mu * np.eye(2)
        self._omega = math.sqrt(max(float(np.linalg.det(self.Q)) - mu * mu, 0.0))
        nx = self._N @ self.x
        self.q = -mu
        self.ell = 2 if self.kind == "jordan" and np.linalg.norm(nx) > OVERLAP_TOL * np.linalg.norm(self.x) else 1

    def msq(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "symmetric":
            return np.exp(2.0 * np.multiply.outer(t, self._w)) @ (self._c**2)
        if self.kind == "jordan":
            c, s = np.ones_like(t), t
        else:
            c, s = np.cos(self._omega * t), np.sin(self._omega * t) / self._omega
        nx = self._N @ self.x
        v = np.multiply.outer(c, self.x) + np.multiply.outer(s, nx)
        return np.exp(2.0 * self._mu * t) * np.sum(v * v, axis=-1)

    def t_eps(self, eps: float) -> float:
        L = abs(math.log(eps))
        return L / self.q + (self.ell - 1) * math.log(L) / self.q

    def w_eps(self, eps: float) -> float:
        return self.w


@dataclass
class SyntheticModel:
    """Synthetic first-order mode data, diagonal in the orthonormal basis U:

        E|X_t|^2 = sum_j c_j^2 exp(2 A_j t + alpha_j t - beta_j t^2 + Gamma_j t^3),  c = U^T x.

    Every generated mode has Gamma_j < 0, beta_j >= 0, 2 A_j + alpha_j < 0,
    so the mean square decreases and the dominant mode is the one with the
    smallest -Gamma_j.
    """

    U: np.ndarray
    a_diag: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    Gamma: np.ndarray
    x: np.ndarray
    eps_list: list
    delta: float
    rho_grid: list

    def __post_init__(self):
        self._c = self.U.T @ self.x
        live = np.flatnonzero(np.abs(self._c) > OVERLAP_TOL * np.linalg.norm(self.x))
        j = live[np.argmax(self.Gamma[live])]
        # cutoff cubic gamma t^3 + b t^2 + a t + ln(eps) of the dominant mode
        self.gamma = -0.5 * float(self.Gamma[j])
        self.b = 0.5 * float(self.beta[j])
        self.a = -0.5 * float(self.alpha[j]) - float(self.a_diag[j])

    def matrices(self) -> dict:
        rot = lambda d: self.U @ np.diag(d) @ self.U.T
        return {"A": rot(self.a_diag), "alpha": rot(self.alpha), "beta": rot(self.beta), "Gamma": rot(self.Gamma)}

    def msq(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        expo = (
            np.multiply.outer(t, 2.0 * self.a_diag + self.alpha)
            - np.multiply.outer(t**2, self.beta)
            + np.multiply.outer(t**3, self.Gamma)
        )
        return np.exp(expo) @ (self._c**2)

    def cubic(self, t: float, eps: float) -> float:
        return ((self.gamma * t + self.b) * t + self.a) * t + math.log(eps)

    def t_eps(self, eps: float) -> float:
        """Positive root of the increasing cutoff cubic, by bisection."""
        lo, hi = 0.0, 1.0
        while self.cubic(hi, eps) < 0.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if self.cubic(mid, eps) < 0.0 else (lo, mid)
        return 0.5 * (lo + hi)

    def w_eps(self, eps: float) -> float:
        return self.t_eps(eps) ** -2


@dataclass
class CommutingFirstOrderModel:
    """A commuting symmetric pair analysed in first_order mode: C = 0, so
    Gamma = beta = 0 and alpha = (B + B*)^2 / 2; every schedule is no_decay."""

    A: np.ndarray
    B: np.ndarray
    x: np.ndarray
    eps_list: list

    def mode_a(self) -> np.ndarray:
        Bhat = self.B + self.B.T
        return np.sort(-np.linalg.eigvalsh(0.5 * Bhat @ Bhat))


def heisenberg_msq(t: float) -> float:
    """E|X_t|^2 = 1 + t^2 + t^3/3 for A = E23, B = E12, x = e3."""
    return 1.0 + t * t + t**3 / 3.0


def scalar_msq(t: float) -> float:
    """E|X_t|^2 = x^2 e^{-1.5 t} for A = -1, B = 0.5, x = 1."""
    return math.exp(-1.5 * t)


def example35_x(t: float) -> float:
    return math.exp(-(t**3) - t**2)
