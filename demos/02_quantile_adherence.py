"""
How closely do samples track the true quantiles?
================================================

The k-th order statistic of a sample estimates the k-th quantile of the
sampling distribution.  Under IID sampling its MSE shrinks like 1/m; under
QS sampling like 1/m^2, so stratified samples give far steadier empirical
quantiles and far more regular spacing between them.
"""

import numpy as np

from qstrat import mse_exact, order_stat_moments, quantile_targets, spacing_law
from qstrat.sampling import iid_uniform_batches, lqs_uniform_batches, qs_uniform_batches

# --- MSE of the median order statistic as m grows -------------------------
print("MSE of the central order statistic as a quantile estimator:")
print(f"{'m':>5} {'iid':>12} {'qs':>12} {'ratio':>8}")
for m in (5, 10, 20, 50, 100):
    k = (m + 1) // 2
    mse_iid = mse_exact(m, k, "iid", "iid")
    mse_qs = mse_exact(m, k, "iid", "qs")
    print(f"{m:>5} {mse_iid:>12.3e} {mse_qs:>12.3e} {mse_qs / mse_iid:>8.4f}")

# --- Empirical adherence of sorted uniforms to expected positions ---------
m, reps = 30, 5_000
targets = np.array([quantile_targets(m, k)[1] for k in range(1, m + 1)])
rng = np.random.default_rng(1)
u_iid, _ = iid_uniform_batches(m, reps, rng)
u_lqs, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
u_qs, _ = qs_uniform_batches(m, reps, rng)

print("\nmean |sorted uniform - expected position| at m = 30:")
for name, u in (("iid", u_iid), ("lqs (18,9,3)", u_lqs), ("qs", u_qs)):
    mad = np.abs(np.sort(u, axis=1) - targets).mean()
    print(f"  {name:<13} {mad:.5f}")
print("(QS adheres most closely; layering sits in between.)")

# --- Spacing between order statistics --------------------------------------
print("\nlaw of the gap between order statistics 3 apart, m = 10:")
for method in ("iid", "qs"):
    law = spacing_law(10, 3, method)
    print(f"  {method}: {law.kind:<10} mean={law.mean:.4f} variance={law.variance:.6f}")

print("\nempirical check from 50k simulated batches at m = 10:")
rng2 = np.random.default_rng(2)
for method, gen in (("iid", iid_uniform_batches), ("qs", qs_uniform_batches)):
    u, _ = gen(10, 50_000, rng2)
    u.sort(axis=1)
    d = u[:, 5] - u[:, 2]  # gap of 3 starting at k = 3
    law = spacing_law(10, 3, method)
    print(f"  {method}: empirical mean={d.mean():.4f} var={d.var(ddof=1):.6f}"
          f"  (theory {law.mean:.4f}, {law.variance:.6f})")

# --- Mean and variance of a single order statistic ------------------------
print("\nmoments of the 5th of 10 uniform order statistics:")
for method in ("iid", "qs"):
    mean, var = order_stat_moments(10, 5, method)
    print(f"  {method}: mean={mean:.5f} variance={var:.6f}")
