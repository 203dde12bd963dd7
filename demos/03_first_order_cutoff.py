"""First-order non-commutative regime: cubic cutoff times.

When the coefficient matrices fail to commute at first order, the
mean-square exponent picks up quadratic and cubic terms in t and the
cutoff time solves gamma t^3 + b t^2 + a t + ln(eps) = 0.  The time scale
grows like |ln eps|^(1/3) (instead of |ln eps|) and the cutoff window
shrinks like t_eps^{-2}.

Negative-definite Gamma cannot arise from a real coefficient pair (it is
a square), so the mode-level quantities are supplied directly here.
"""

import math

import numpy as np

from gbm_cutoff import (
    cutoff_schedule_first_order,
    mean_square_first_order,
    synthetic_mode_decomposition,
)

dec = synthetic_mode_decomposition(
    alpha=np.diag([0.2, 0.4]),
    beta=np.diag([0.3, 0.1]),
    Gamma=np.diag([-0.6, -1.2]),
    A=np.diag([-1.0, -2.0]),
    x=np.array([1.0, 1.0]),
)

print("per-mode exponent data (a_j, b_j, gamma_j, lambda_j, ell_j, overlap):")
for j in range(2):
    print(
        f"  mode {j}: a = {dec.a_coeffs[j]:+.2f}  b = {dec.b_coeffs[j]:+.2f} "
        f" gamma = {dec.g_coeffs[j]:+.2f}  lambda = {dec.lambdas[j]:.1f} "
        f" ell = {dec.ells[j]}  <x,v> = {dec.overlaps[j]:+.2f}"
    )

print("\nselection cascade picks the slowest cubic mode; schedules per eps:")
print(f"{'eps':>8} {'t_eps':>9} {'w_eps':>10} {'T_eps':>9} {'tau_eps':>9}")
for n in (5, 10, 20, 40):
    sched = cutoff_schedule_first_order(dec, math.exp(-n))
    print(
        f"  e^-{n:<3} {sched.t_eps:9.4f} {sched.w_eps:10.5f} "
        f"{sched.T_eps:9.4f} {sched.tau_eps:9.4f}"
    )

print("\ncube-root scaling: t_eps * gamma^(1/3) / |ln eps|^(1/3) -> 1")
for n in (10, 20, 40, 80):
    sched = cutoff_schedule_first_order(dec, math.exp(-n))
    print(f"  eps = e^-{n:<3}: ratio = {sched.t_eps * sched.gamma ** (1 / 3) / n ** (1 / 3):.4f}")

print("\nthe window shrinks like t_eps^{-2}; the threshold is razor thin:")
eps = math.exp(-15.0)
sched = cutoff_schedule_first_order(dec, eps)
for rho in (-5.0, -1.0, 0.0, 1.0, 5.0):
    t = sched.t_eps + rho * sched.w_eps
    print(f"  rho = {rho:+.0f}:  E|X|^2 / eps^2 = {mean_square_first_order(dec, t) / eps**2:10.4e}")
