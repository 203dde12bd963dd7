import math

import numpy as np
import pytest
import scipy.optimize

from gbm_cutoff import cubic_solver
from gbm_cutoff.cubic_solver import (
    CubicCoefficients,
    cardano_unique_real,
    correction_root,
    solve_log_cubic,
)
from gbm_cutoff.errors import ToolkitError


def bisect_root(f, lo, hi, iters=200):
    """Oracle: plain bisection on a sign-changing bracket."""
    flo = f(lo)
    assert flo * f(hi) < 0, "oracle bracket must change sign"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def outcome(solve, *args):
    """The solver's root, or the code of the ToolkitError it raises."""
    try:
        return solve(*args)
    except ToolkitError as exc:
        return exc.code


def brentq_log_cubic(c, ell):
    """Oracle: Brent's method on the log-cubic's bracket [t0/2, 4 t0] about the
    Cardano root t0, with the same residual contract and error codes."""
    g = lambda t: c(t) - ell * math.log(t)
    t0 = cardano_unique_real(c)
    if t0 <= 0.0 or g(t0 / 2.0) * g(4.0 * t0) > 0:
        raise ToolkitError("bracket_failure", "no bracket")
    t = scipy.optimize.brentq(g, t0 / 2.0, 4.0 * t0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    if not abs(g(t)) <= 1e-9 * (1.0 + abs(c.c0)):
        raise ToolkitError("bracket_failure", "residual")
    return t


def bisect_log_cubic(c, ell):
    """The bisection that solve_log_cubic ran before its ITP search: the
    bracket [t0/2, 4 t0] about the Cardano root t0, halved down to adjacent
    doubles, then the end of smaller |g| certified."""
    g = lambda t: c(t) - ell * math.log(t)
    t0 = cardano_unique_real(c)
    lo, hi = t0 / 2.0, 4.0 * t0
    g_lo = g(lo)
    if t0 <= 0.0 or g_lo * g(hi) > 0:
        raise ToolkitError("bracket_failure", "no bracket")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        g_mid = g(mid)
        if g_mid * g_lo > 0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    t = min(lo, hi, key=lambda s: abs(g(s)))
    return cubic_solver._certify(g, lambda s: c.derivative(s) - ell / s, t, 1e-9 * (1.0 + abs(c.c0)))


def random_cutoff_cubics(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gamma = rng.uniform(0.1, 2.0)
        b = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-1.0, 1.0)
        log_eps = -rng.uniform(5.0, 30.0)
        out.append(CubicCoefficients(gamma, b, a, log_eps))
    return out


class TestCardano:
    def test_perfect_cube(self):
        assert cardano_unique_real(CubicCoefficients(1.0, 0.0, 0.0, -8.0)) == pytest.approx(2.0, abs=1e-12)

    def test_cutoff_coefficients_perfect_cube(self):
        c = CubicCoefficients.from_cutoff(1.0, 0.0, 0.0, math.exp(-8.0))
        assert cardano_unique_real(c) == pytest.approx(2.0, abs=1e-12)

    def test_reference_cubic_against_bisection(self):
        c = CubicCoefficients(0.3, 0.15, 0.9, -10.0)
        t = cardano_unique_real(c)
        ref = bisect_root(c, 0.0, 10.0)
        assert abs(t - ref) < 1e-9
        assert 2.7 < t < 2.9
        assert abs(c(t)) < 1e-9 * (1.0 + abs(c.c0))

    def test_random_suite_residual_and_bisection(self):
        for c in random_cutoff_cubics(100, seed=41):
            t = cardano_unique_real(c)
            assert abs(c(t)) < 1e-9 * (1.0 + abs(c.c0))
            hi = 10.0 * (1.0 + abs(c.c0))
            ref = bisect_root(c, 0.0, hi)
            assert abs(t - ref) < 1e-9

    def test_monotone_in_log_eps(self):
        for gamma, b, a in [(1.0, 0.5, 0.2), (0.3, 0.0, 0.9), (2.0, 1.0, 0.0)]:
            roots = [
                cardano_unique_real(CubicCoefficients(gamma, b, a, -float(n)))
                for n in range(5, 31)
            ]
            assert all(r2 > r1 for r1, r2 in zip(roots, roots[1:]))

    def test_triple_root(self):
        # (t - 1)^3 = t^3 - 3 t^2 + 3 t - 1
        assert cardano_unique_real(CubicCoefficients(1.0, -3.0, 3.0, -1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_three_real_roots_refused(self):
        # roots 1, 2, 3
        with pytest.raises(ToolkitError) as err:
            cardano_unique_real(CubicCoefficients(1.0, -6.0, 11.0, -6.0))
        assert err.value.code == "ambiguous_roots"

    def test_double_plus_simple_refused(self):
        # (t - 1)^2 (t - 3) = t^3 - 5 t^2 + 7 t - 3
        with pytest.raises(ToolkitError) as err:
            cardano_unique_real(CubicCoefficients(1.0, -5.0, 7.0, -3.0))
        assert err.value.code == "ambiguous_roots"

    @pytest.mark.parametrize("c2,c1,c0", [(0.0, 2.0, -5.0), (1.0, 0.0, -1.0), (1.0, -2.0, 1.0)])
    def test_zero_cubic_coefficient_refused(self, c2, c1, c0):
        # the schedule solves a cubic only for gamma > 0
        with pytest.raises(ToolkitError) as err:
            cardano_unique_real(CubicCoefficients(0.0, c2, c1, c0))
        assert err.value.code == "bad_coefficients"

    def test_extreme_constant_term_precision(self):
        # cube-root cancellation regime: huge |ln eps|
        c = CubicCoefficients(0.7, 0.3, 0.1, -1000.0)
        t = cardano_unique_real(c)
        assert abs(c(t)) < 1e-9 * (1.0 + abs(c.c0))


class TestLogCubic:
    def test_ell_zero_identical_to_cardano(self):
        c = CubicCoefficients(0.3, 0.15, 0.9, -10.0)
        assert solve_log_cubic(c, 0) == cardano_unique_real(c)

    def test_reference_log_cubic(self):
        c = CubicCoefficients(1.0, 0.0, 0.0, -8.0)
        T = solve_log_cubic(c, 1)
        f = lambda t: t**3 - math.log(t) - 8.0
        ref = bisect_root(f, 1.0, 4.0)
        assert abs(T - ref) < 1e-9
        assert 2.0 < T < 2.2

    def test_random_suite_residual(self):
        for k, c in enumerate(random_cutoff_cubics(100, seed=42)):
            ell = 1 + (k % 3)
            T = solve_log_cubic(c, ell)
            res = c(T) - ell * math.log(T)
            assert abs(res) < 1e-9 * (1.0 + abs(c.c0))

    def test_requires_positive_cubic_coefficient(self):
        with pytest.raises(ToolkitError) as err:
            solve_log_cubic(CubicCoefficients(-1.0, 0.0, 0.0, -8.0), 1)
        assert err.value.code == "bad_coefficients"

    def test_itp_calls_the_cubic_half_as_often_as_bisection(self, monkeypatch):
        # 8997 roots and 3 bracket_failures: bisection made 62.3 cubic calls
        # per root, Cardano seed and certification included, ITP 20.2; 6
        # roots moved, each by one ulp
        cases = [(c, ell) for seed in range(40, 70) for c in random_cutoff_cubics(100, seed) for ell in (1, 2, 3)]
        refs = [outcome(bisect_log_cubic, c, ell) for c, ell in cases]
        calls, call = [], CubicCoefficients.__call__
        monkeypatch.setattr(CubicCoefficients, "__call__", lambda c, t: calls.append(None) or call(c, t))
        roots = [outcome(solve_log_cubic, c, ell) for c, ell in cases]
        solved = [(T, ref) for T, ref in zip(roots, refs) if not isinstance(ref, str)]
        assert [T for T in roots if isinstance(T, str)] == [ref for ref in refs if isinstance(ref, str)]
        assert len(calls) <= 31 * len(solved)
        assert all(abs(T - ref) <= math.ulp(ref) for T, ref in solved)
        assert sum(T != ref for T, ref in solved) <= len(solved) // 100

    def test_bisection_agrees_with_brentq(self):
        # brentq stops within its relative tolerance of 4 eps, so the two
        # roots agree to that, not to the last bit
        for seed in (47, 48):
            for c in random_cutoff_cubics(100, seed):
                for ell in (1, 2, 3):
                    T, ref = outcome(solve_log_cubic, c, ell), outcome(brentq_log_cubic, c, ell)
                    if isinstance(ref, str):
                        assert T == ref
                    else:
                        assert abs(T - ref) <= 4 * np.finfo(float).eps * ref


@pytest.mark.parametrize(
    "solve,args",
    [
        (cardano_unique_real, (CubicCoefficients(1.0, 0.0, 0.0, -8.0),)),
        (solve_log_cubic, (CubicCoefficients(1.0, 0.0, 0.0, -8.0), 1)),
        (correction_root, (2.0, CubicCoefficients(1.0, 0.0, 0.0, -8.0), 1)),
    ],
)
def test_root_that_misses_the_residual_contract_is_refused(monkeypatch, solve, args):
    monkeypatch.setattr(cubic_solver, "_polish", lambda f, fprime, t, target: t + 1.0)
    with pytest.raises(ToolkitError) as err:
        solve(*args)
    assert err.value.code == "bracket_failure"


@pytest.mark.parametrize(
    "solve,args",
    [
        # c3**3 underflows to zero: a bare ZeroDivisionError before
        (cardano_unique_real, (CubicCoefficients(1e-160, 1.0, 1.0, -30.0),)),
        # c2**3 overflows: a bare OverflowError before
        (cardano_unique_real, (CubicCoefficients(1e-150, 1e150, 1.0, -5.0),)),
        # numpy floats divide by zero into inf and nan, read as ambiguous_roots
        # before; the rescaled cubic's c2**3 overflows
        (cardano_unique_real, (CubicCoefficients(np.float64(1e-160), np.float64(1.0), 1.0, -30.0),)),
        (solve_log_cubic, (CubicCoefficients(1e-170, 1.0, 1.0, -30.0), 1)),
        (correction_root, (5.0, CubicCoefficients(1e-170, 1.0, 1.0, -30.0), 1)),
    ],
)
def test_radicals_that_are_not_finite_are_refused(solve, args):
    with pytest.raises(ToolkitError) as err, np.errstate(all="ignore"):
        solve(*args)
    assert err.value.code == "bad_coefficients"


@pytest.mark.parametrize("c3,root", [
    (np.float64(5e-171), math.log(100.0) / 0.9),  # the cubic of Gamma = -1e-170 in a synthetic config
    (5e-161, math.log(100.0) / 0.9),
    (1e-300, math.log(100.0) / 0.9),
    (np.float64(1e250), (math.log(100.0) / 1e250) ** (1.0 / 3.0)),
])
def test_cubic_with_an_extreme_c3_is_solved(c3, root):
    # c3 t^3 + 0.9 t + ln(0.01): the radicals as given divide by a power of
    # c3 that underflows (or overflows), those of the cubic rescaled by a
    # power of two do not
    c = CubicCoefficients(c3, 0.0, 0.9, math.log(0.01))
    t = cardano_unique_real(c)
    assert abs(c(t)) <= cubic_solver.RESIDUAL_TOL * (1.0 + abs(c.c0))
    assert math.isclose(t, root, rel_tol=1e-12)


class TestCorrectionRoot:
    def test_ell_zero_gives_zero(self):
        c = CubicCoefficients(1.0, 0.0, 0.0, -8.0)
        assert correction_root(2.0, c, 0) == 0.0

    def test_reference_small_positive_root(self):
        c = CubicCoefficients(1.0, 0.0, 0.0, -8.0)
        r = correction_root(2.0, c, 1)
        f = lambda s: s**3 + 6.0 * s**2 + 12.0 * s - math.log(2.0)
        ref = bisect_root(f, 0.0, 1.0)
        assert abs(r - ref) < 1e-9
        assert 0.0 < r < 0.1

    def test_residual_on_random_suite(self):
        for k, c in enumerate(random_cutoff_cubics(60, seed=43)):
            t_eps = cardano_unique_real(c)
            if t_eps <= 1.0:
                continue
            ell = 1 + (k % 2)
            r = correction_root(t_eps, c, ell)
            corr = CubicCoefficients(
                c.c3,
                3.0 * c.c3 * t_eps + c.c2,
                3.0 * c.c3 * t_eps**2 + 2.0 * c.c2 * t_eps + c.c1,
                -ell * math.log(t_eps),
            )
            assert abs(corr(r)) < 1e-9 * (1.0 + abs(corr.c0))

    def test_newton_starts_at_the_root_of_the_correction_cubic(self, monkeypatch):
        # the radicals solve the correction cubic itself, so Newton starts
        # next to its root (cube-root cancellation costs a few digits) and
        # meets the residual contract, else correction_root would raise
        cases = []
        for seed in (44, 45, 46):
            for k, c in enumerate(random_cutoff_cubics(100, seed)):
                try:
                    t_eps = cardano_unique_real(c)
                except ToolkitError:  # three real roots: not a cutoff cubic
                    continue
                if t_eps > 1.0:
                    cases.append((t_eps, c, 1 + k % 3))
        assert len(cases) > 200
        starts = []
        polish = cubic_solver._polish

        def recorded(f, fprime, t, target):
            starts.append(t)
            return polish(f, fprime, t, target)

        monkeypatch.setattr(cubic_solver, "_polish", recorded)
        for t_eps, c, ell in cases:
            starts.clear()
            r = correction_root(t_eps, c, ell)
            assert abs(starts[0] - r) <= 1e-3 * abs(r)

    def test_root_against_mpmath(self):
        # 250 cutoff cubics with gamma in [1e-6, 1e3], eps in [1e-12, 0.1] and
        # ell* 1-3; on 2400 such cubics the root erred at most 4.5e-16 relative
        # (it erred 3.7e-9 when Newton stopped at the residual contract)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(47)
        worst, n = 0.0, 0
        while n < 250:
            gamma, b, a = 10 ** rng.uniform(-6, 3), rng.uniform(0, 1) * 10 ** rng.uniform(-3, 1), rng.uniform(0.05, 2.0)
            c = CubicCoefficients.from_cutoff(gamma, b, a, 10 ** rng.uniform(-12, -1))
            ell = int(rng.integers(1, 4))
            try:
                t_eps = cardano_unique_real(c)
            except ToolkitError:  # three real roots: not a cutoff cubic
                continue
            if not t_eps > 1.0:
                continue
            n += 1
            r = correction_root(t_eps, c, ell)
            with mp.workdps(40):
                g, b2, a1, t = map(mp.mpf, (gamma, b, a, t_eps))
                ref = mp.findroot(lambda s: g * s**3 + (3 * g * t + b2) * s**2 + (3 * g * t**2 + 2 * b2 * t + a1) * s
                                  - ell * mp.log(t), mp.mpf(r))
                worst = max(worst, float(abs(r - ref) / abs(ref)))
        assert worst <= 1e-15

    def test_consistency_with_log_cubic_at_small_eps(self):
        # tau = t + r approximates the log-cubic root T within 5% at eps = e^-20
        for gamma, b, a in [(0.3, 0.15, 0.9), (1.0, 0.2, 0.0), (0.5, 0.0, 0.5)]:
            c = CubicCoefficients.from_cutoff(gamma, b, a, math.exp(-20.0))
            t_eps = cardano_unique_real(c)
            for ell in (1, 2):
                T = solve_log_cubic(c, ell)
                r = correction_root(t_eps, c, ell)
                assert abs(T - (t_eps + r)) / T < 0.05

    def test_requires_t_above_one(self):
        c = CubicCoefficients(1.0, 0.0, 0.0, -8.0)
        with pytest.raises(ToolkitError) as err:
            correction_root(0.9, c, 1)
        assert err.value.code == "bad_coefficients"
