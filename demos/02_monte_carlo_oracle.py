"""Monte Carlo oracle checks.

Three independent routes to E|X_t(x)|^2 agree: the closed form, the exact
exponential-representation sampler, and plain Euler-Maruyama on the Ito
form.  On the non-commuting Heisenberg pair the exact value comes from the
linear second-moment equation.  Every path draws from its own
counter-based substream, so the estimates below reproduce bit for bit on
any machine.
"""

import math

import numpy as np

from gbm_cutoff import (
    GBMSystem,
    estimate_mean_square,
    estimate_mean_squares,
    exact_mean_square,
    mean_square_commutative,
    sample_gaussian_pairs,
)

scalar = GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))
N = 50_000

print("scalar system, E|X_t|^2 = e^{-1.5 t}:")
print(f"{'t':>4} {'closed form':>12} {'exact MC':>12} {'euler MC':>12} {'3*SE':>10}")
ts = (0.5, 1.0, 2.0)
# one kernel call per scheme draws each path once, at the largest t
exact_mc = estimate_mean_squares(scalar, ts, "exact_commutative", N, seed=7)
euler_mc = estimate_mean_squares(scalar, ts, "euler_maruyama", N, dt=1e-3, seed=7)
for t, mc1, mc2 in zip(ts, exact_mc, euler_mc):
    exact = mean_square_commutative(scalar, t)
    band = 3 * max(mc1.std_error, mc2.std_error)
    print(f"{t:4.1f} {exact:12.6f} {mc1.value:12.6f} {mc2.value:12.6f} {band:10.2e}")

heisenberg = GBMSystem(
    A=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    B=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    x=np.array([0.0, 0.0, 1.0]),
)
print("\nHeisenberg pair, E|X_t|^2 = 1 + t^2 + t^3/3 from the moment equation:")
print(f"{'t':>4} {'moment eq.':>12} {'exact MC':>12} {'euler MC':>12} {'3*SE':>10}")
t = 1.0
exact = exact_mean_square(heisenberg, t)
mc1 = estimate_mean_square(heisenberg, t, "exact_first_order", N, seed=7)
mc2 = estimate_mean_square(heisenberg, t, "euler_maruyama", N, dt=1e-2, seed=7)
band = 3 * max(mc1.std_error, mc2.std_error)
print(f"{t:4.1f} {exact:12.6f} {mc1.value:12.6f} {mc2.value:12.6f} {band:10.2e}")

print("\nexact joint sampling of (W_t, int_0^t W_s ds) at t = 2:")
w, integral = sample_gaussian_pairs(2.0, seed=8, n=N)
print(f"  Var(W_t)      = {np.var(w, ddof=1):8.4f}   target {2.0}")
print(f"  Cov(W_t, I_t) = {np.mean(w * integral):8.4f}   target {2.0}")
print(f"  Var(I_t)      = {np.var(integral, ddof=1):8.4f}   target {8/3:.4f}")

print("\nbit-for-bit reproducibility:")
a = estimate_mean_square(scalar, 1.0, "euler_maruyama", 10_000, dt=1e-2, seed=9)
b = estimate_mean_square(scalar, 1.0, "euler_maruyama", 10_000, dt=1e-2, seed=9)
print(f"  run 1: {a.value!r}")
print(f"  run 2: {b.value!r}")
print(f"  identical: {a.value == b.value}")
