"""Real-root solving for the cutoff cubics.

The cutoff time scale in the first-order regime solves
``c3 t^3 + c2 t^2 + c1 t + c0 = 0`` (with c0 = ln(eps)), possibly with an
extra ``-ell_star ln(t)`` term.  The solvers here seed the unique real root
by the classical depressed-cubic radicals (the log-cubic shrinks a bracket
around that seed by ITP steps, `shrink_sign_change`), and every root ends in
one step, `_certify`: a few Newton steps polish it, and a root that still
misses the residual contract is ``bracket_failure`` rather than a number.
The radical form loses digits to cube-root cancellation when the constant
term dominates; the polish wins them back.  A cubic with three distinct
real roots is refused rather than silently tie-broken.  Radicals that
overflow (or divide by a power of c3 that underflows to zero) are taken
again for the cubic rescaled by a power of two, and a cubic whose radicals
are not finite either way is ``bad_coefficients``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ToolkitError

# Residual contract for every returned root: |poly(t)| <= RESIDUAL_TOL * (1 + |c0|).
RESIDUAL_TOL = 1e-9
# Relative slack when classifying the depressed-cubic discriminant as zero.
DISCRIMINANT_TOL = 1e-12


@dataclass
class CubicCoefficients:
    """c3 t^3 + c2 t^2 + c1 t + c0."""

    c3: float
    c2: float
    c1: float
    c0: float

    @classmethod
    def from_cutoff(cls, gamma: float, b: float, a: float, eps: float) -> "CubicCoefficients":
        """Coefficients of the cutoff equation gamma t^3 + b t^2 + a t + ln(eps) = 0."""
        if not 0.0 < eps < 1.0:
            raise ToolkitError("bad_epsilon", "eps must lie in (0, 1)")
        return cls(gamma, b, a, math.log(eps))

    def __call__(self, t: float) -> float:
        return ((self.c3 * t + self.c2) * t + self.c1) * t + self.c0

    def derivative(self, t: float) -> float:
        return (3.0 * self.c3 * t + 2.0 * self.c2) * t + self.c1


@dataclass
class CutoffSchedule:
    """Cutoff time scale, window and the cubic data that produced them.

    The mean square behaves like (e^{-a t - b t^2 - gamma t^3} t^{ell_star})^2,
    so the commutative regime is the special case gamma = b = 0 with a the
    decay rate q and ell_star = ell - 1.  Entries that do not apply to a
    regime stay None.
    """

    regime: str
    eps: float
    gamma: Optional[float] = None
    b: Optional[float] = None
    a: Optional[float] = None
    ell_star: Optional[int] = None
    t_eps: Optional[float] = None
    w_eps: Optional[float] = None
    r_eps: Optional[float] = None
    T_eps: Optional[float] = None
    tau_eps: Optional[float] = None
    selected_mode: Optional[int] = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {"regime": self.regime, "eps": float(self.eps)}
        for k in ("gamma", "b", "a", "t_eps", "w_eps", "r_eps", "T_eps", "tau_eps"):
            v = getattr(self, k)
            if v is not None:
                out[k] = float(v)
        if self.ell_star is not None:
            out["ell_star"] = int(self.ell_star)
        if self.selected_mode is not None:
            out["selected_mode"] = int(self.selected_mode)
        if self.note:
            out["note"] = self.note
        return out


def _polish(f, fprime, t: float, target: float) -> float:
    """The iterate of least residual over at most four Newton steps from an
    approximate root, stopping once the residual target is met."""
    best, best_res = t, abs(f(t))
    for _ in range(4):
        if best_res <= 0.25 * target:
            break
        fp = fprime(t)
        if fp == 0.0 or not math.isfinite(fp):
            break
        t = t - f(t) / fp
        res = abs(f(t))
        if res < best_res:
            best, best_res = t, res
    return best


def _certify(f, fprime, t: float, target: float) -> float:
    """The polished root, or ``bracket_failure`` if it misses |f| <= target."""
    t = _polish(f, fprime, t, target)
    if not abs(f(t)) <= target:
        raise ToolkitError("bracket_failure", "residual contract not met")
    return t


def _radicals(c: CubicCoefficients, k: int) -> Optional[tuple[float, ...]]:
    """(shift, p, q, disc, disc_scale) of the depressed form of the cubic in
    u = t / 2^k, or None if one is not finite.  Python floats raise on
    overflow or on division by a power of c3 that underflowed to zero, where
    numpy floats give inf or nan."""
    try:
        c3, c2, c1 = (math.ldexp(float(v), j * k) for v, j in ((c.c3, 3), (c.c2, 2), (c.c1, 1)))
        c0 = float(c.c0)
        shift = -c2 / (3.0 * c3)
        p = (3.0 * c3 * c1 - c2**2) / (3.0 * c3**2)
        q = (2.0 * c2**3 - 9.0 * c3 * c2 * c1 + 27.0 * c3**2 * c0) / (27.0 * c3**3)
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        disc_scale = (q / 2.0) ** 2 + abs(p / 3.0) ** 3
    except (ZeroDivisionError, OverflowError):
        return None
    out = (shift, p, q, disc, disc_scale)
    return out if all(map(math.isfinite, out)) else None


def cardano_unique_real(c: CubicCoefficients) -> float:
    """The unique real root of the cubic, by Cardano radicals plus polishing.

    Raises ``ambiguous_roots`` when the cubic has more than one distinct
    real root (negative depressed discriminant, or a double root next to a
    simple one): the cutoff setting guarantees uniqueness, so a silent
    choice would mask a modeling error.  c3 = 0, or radicals that are not
    finite even for the rescaled cubic, are ``bad_coefficients``.
    """
    if c.c3 == 0.0:
        raise ToolkitError("bad_coefficients", "cubic requires c3 != 0")

    # the radicals of the cubic as given; where they are not finite (a tiny
    # or huge c3), those of the cubic in u = t / 2^k, whose leading
    # coefficient c3 8^k lies in [1/8, 4), so every cubic solved as given
    # keeps its bits
    k = 0
    rad = _radicals(c, k)
    if rad is None:
        k = -int(math.frexp(float(c.c3))[1] / 3)
        rad = _radicals(c, k)
    if rad is None:
        raise ToolkitError("bad_coefficients", "cubic radicals are not finite")
    shift, p, q, disc, disc_scale = rad

    if disc > DISCRIMINANT_TOL * disc_scale:
        root = math.sqrt(disc)
        s = np.cbrt(-q / 2.0 + root) + np.cbrt(-q / 2.0 - root)
        u = float(s + shift)
    elif disc >= -DISCRIMINANT_TOL * disc_scale:
        if abs(p) > DISCRIMINANT_TOL * (1.0 + p**2) or abs(q) > DISCRIMINANT_TOL * (1.0 + q**2):
            # double root beside a simple one: two distinct real values
            raise ToolkitError("ambiguous_roots", "repeated real root is not unique")
        u = shift  # triple root
    else:
        raise ToolkitError("ambiguous_roots", "cubic has three distinct real roots")

    # a root beyond the double range comes out inf, which _certify refuses
    return _certify(c, c.derivative, u * 2.0**k, RESIDUAL_TOL * (1.0 + abs(c.c0)))


def shrink_sign_change(
    point: Callable[[float], tuple[float, bool]], a: float, b: float, f_a: float, f_b: float
) -> tuple[float, float, float, float]:
    """The bracket a < b of a sign change of f shrunk to adjacent doubles, as
    (a, f(a), b, f(b)) with b = nextafter(a, inf).

    point(x) evaluates f once and returns (f(x), whether x takes b's side):
    each caller keeps its own exact side test.  The steps are ITP (Oliveira
    & Takahashi 2021; kappa1 = 0.1 / (b - a), kappa2 = 2, n0 = 1): regula
    falsi, truncated towards the midpoint, projected into the minmax disc of
    a width of half an ulp of b and, while the bracket is at least 4 ulps
    wide, kept 2 ulps inside it, so that an exact hit f(x) = 0 cannot pin
    the next point to b.  Narrower brackets are bisected."""
    # adjacent doubles when a = b / 2; below that, the disc ends in bisection
    width = 0.5 * math.ulp(b)
    n_max = math.ceil(math.log2((b - a) / width)) + 1
    kappa1 = 0.1 / (b - a)
    j = 0
    while (up := math.nextafter(a, math.inf)) < b:
        half = 0.5 * (a + b)
        lo, hi = math.nextafter(up, math.inf), math.nextafter(math.nextafter(b, -math.inf), -math.inf)
        x = half
        if lo <= hi:
            # f(a) = f(b) when both round to 0; NaN when f(b) = -inf
            x_f = (f_b * a - f_a * b) / (f_b - f_a) if f_a != f_b else half
            if not a <= x_f <= b:
                x_f = half
            sigma = math.copysign(1.0, half - x_f)
            trunc = kappa1 * (b - a) ** 2
            x_t = x_f + sigma * trunc if trunc <= abs(half - x_f) else half
            r = max(0.5 * width * 2.0 ** (n_max - j) - 0.5 * (b - a), 0.0)
            x = min(max(x_t if abs(x_t - half) <= r else half - sigma * r, lo), hi)
        f_x, right = point(x)
        if right:
            b, f_b = x, f_x
        else:
            a, f_a = x, f_x
        j += 1
    return a, f_a, b, f_b


def solve_log_cubic(c: CubicCoefficients, ell_star: int) -> float:
    """Unique root of c3 T^3 + c2 T^2 + c1 T - ell_star ln(T) + c0 = 0.

    Shrinks [t0/2, 4 t0] around the Cardano root t0 of the ell_star = 0
    cubic down to adjacent doubles, then certifies the end of smaller
    residual; the log term is a small perturbation beyond the turning region.
    """
    if ell_star < 0:
        raise ToolkitError("bad_coefficients", "ell_star must be nonnegative")
    if ell_star == 0:
        return cardano_unique_real(c)
    if not c.c3 > 0.0:
        raise ToolkitError("bad_coefficients", "log-cubic requires c3 > 0")

    def g(t):
        return c(t) - ell_star * math.log(t)

    def gprime(t):
        return c.derivative(t) - ell_star / t

    t0 = cardano_unique_real(c)
    if t0 <= 0.0:
        raise ToolkitError("bracket_failure", "cubic seed root is not positive")
    lo, hi = t0 / 2.0, 4.0 * t0
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0:
        raise ToolkitError("bracket_failure", f"no sign change on [{lo:.6g}, {hi:.6g}]")
    # a point takes hi's side where g has hi's sign or is 0
    a, g_a, b, g_b = shrink_sign_change(lambda t: (g_t := g(t), g_t * g_lo <= 0.0), lo, hi, g_lo, g_hi)
    t = b if abs(g_b) < abs(g_a) else a
    return _certify(g, gprime, t, RESIDUAL_TOL * (1.0 + abs(c.c0)))


def correction_root(t_eps: float, c: CubicCoefficients, ell_star: int) -> float:
    """Root r of the correction cubic around an established cutoff time t_eps:

        c3 r^3 + (3 c3 t + c2) r^2 + (3 c3 t^2 + 2 c2 t + c1) r - ell_star ln(t) = 0.

    The depressed cubic's radicals (`_radicals`) seed Newton steps against
    this cubic toward a zero residual, as r is printed to 17 digits; the
    residual contract is certified on the cubic itself.  The
    caller exposes tau_eps = t_eps + r.
    """
    if ell_star < 0:
        raise ToolkitError("bad_coefficients", "ell_star must be nonnegative")
    if ell_star == 0:
        return 0.0
    if not c.c3 > 0.0:
        raise ToolkitError("bad_coefficients", "correction cubic requires c3 > 0")
    if not t_eps > 1.0:
        raise ToolkitError("bad_coefficients", "correction form requires t_eps > 1")

    gamma, b, a = c.c3, c.c2, c.c1
    a2 = 3.0 * gamma * t_eps + b
    a1 = 3.0 * gamma * t_eps**2 + 2.0 * b * t_eps + a
    a0 = -ell_star * math.log(t_eps)
    corr = CubicCoefficients(gamma, a2, a1, a0)

    # the radicals of the depressed correction cubic seed the root; a
    # negative discriminant (three real roots) seeds it at 0
    rad = _radicals(corr, 0)
    if rad is None:
        raise ToolkitError("bad_coefficients", "cubic radicals are not finite")
    shift, _, q, disc, _ = rad
    r = 0.0
    if disc >= 0.0:
        root = math.sqrt(disc)
        r = float(np.cbrt(-q / 2.0 + root) + np.cbrt(-q / 2.0 - root) + shift)
    # polishing toward a zero residual takes all of _polish's Newton steps,
    # which bring the seed to within a few ulps of the root
    r = _polish(corr, corr.derivative, r, 0.0)
    return _certify(corr, corr.derivative, r, RESIDUAL_TOL * (1.0 + abs(a0)))
