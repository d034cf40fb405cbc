"""Brute-force finite model: the oracle behind the closed forms.

Every analytic curve in this package has a finite-dimensional shadow:
D_B-level photons, fN of them in a fragment, perturbation eigenvalues
b_j on the scattered state. Small enough to diagonalize exactly, big
enough to expose a wrong formula. This script walks the checks the
automated battery runs, with the numbers on display.
"""

import math

import numpy as np

from photon_darwinism import (
    alpha_disk,
    analytic_entropy_change,
    discrete_alpha,
    fragment_entropy_change_exact,
    fragment_entropy_change_series,
    fragment_eigenvalues,
    oracle_battery,
    planck_spectral_nodes,
    scattering_probability_grid,
)
from photon_darwinism.discrete_oracle import entropy_error_halving
from photon_darwinism.radiometry import ZETA_3, ZETA_9

b, fN = np.array([-0.01, -0.02, -0.04]), 2
values, mult = fragment_eigenvalues(b, fN)
print(f"== fragment spectrum: D_B = {b.size}, fN = {fN} ==")
print(f"distinct eigenvalue groups: {values.size}, "
      f"total dimension {int(mult.sum())} = 2 * {b.size}**{fN}")
print("  eigenvalue      multiplicity")
for v, m in zip(values, mult):
    print(f"  {v:+.10f}   {int(m)}")
print()

# Three routes to the fragment entropy deficit must agree: exact
# diagonalization, the moment series, and (to leading order) the
# analytic small-b formula.
print("== entropy deficit ln2 - Delta H, three ways ==")
print("  b scale    exact            series           analytic")
for scale in (1.0, 0.5, 0.25):
    b = scale * np.array([-0.01, -0.02, -0.04])
    exact = fragment_entropy_change_exact(b, 2)
    series = fragment_entropy_change_series(b, 2)
    analytic = analytic_entropy_change(b, 2)
    print(f"  {scale:5.2f}   {exact:.12f}   {series:.12f}   {analytic:.12f}")
print()

ratios = entropy_error_halving(-0.002, D_B=8, fN=6)
print("halving b shrinks the exact-vs-analytic gap by factors of "
      + ", ".join(f"{r:.2f}" for r in ratios)
      + "  (a second-order error gives about 4)")
print()

# Directional receptivity from the grid model: scattering probabilities
# over a discretized sphere, alpha from counting where records land.
theta0 = np.deg2rad(60.0)
print("== discrete alpha vs closed form, 60 degree cap ==")
print("  n_theta   discrete alpha   error")
target = alpha_disk(theta0, 0.0)
for n_theta in (8, 16, 32, 64):
    grid = scattering_probability_grid(n_theta, 2 * n_theta, theta0)
    a = discrete_alpha(grid)
    print(f"  {n_theta:5d}     {a:.8f}     {abs(a - target):.2e}")
print(f"  closed    {target:.8f}")
print()

# Thermal weighting: Gauss nodes for the Planck k^6 average.
nodes, weights = planck_spectral_nodes(32)
k6 = float(np.sum(weights * nodes ** 6))
exact_k6 = math.factorial(8) * ZETA_9 / (2 * ZETA_3)
print("== Planck spectral nodes (32 point) ==")
print(f"weight sum  {float(np.sum(weights)):.12f}  (should be 1)")
print(f"<kappa^6>   {k6:.6f}  vs 8! zeta(9) / 2 zeta(3) = {exact_k6:.6f}")
print()

# The full battery: every identity above plus a dozen more, seeded.
report = oracle_battery(seed=0)
print(f"== oracle battery (seed 0): "
      f"{'all passed' if report['all_passed'] else 'FAILURES'} ==")
for check in report["checks"]:
    print(f"  {'ok  ' if check['passed'] else 'FAIL'} {check['name']}")
