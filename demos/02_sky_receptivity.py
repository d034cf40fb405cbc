"""Receptivity: how much of the scattered light can actually carry news.

Photons arriving from all over the sky start out angle-mixed, and a
mixed environment is a hazy one: part of each scattering event only
confirms what the bath already knew. The receptivity alpha in [0, 1]
measures the fraction of the decoherence rate that builds usable
records, so tau_R^-1 = alpha * tau_D^-1.
"""

import math

import numpy as np

from photon_darwinism import (
    SkyRegion,
    alpha_disk,
    alpha_numeric,
    disk_rate,
    redundancy_rate,
)

print("== receptivity of polar caps (closed form) ==")
print("theta0   chi=0      chi=45     chi=90")
for theta0 in (10, 30, 60, 90, 120, 150, 170):
    row = [alpha_disk(math.radians(theta0), math.radians(chi))
           for chi in (0, 45, 90)]
    print(f"{theta0:5d}   {row[0]:.6f}   {row[1]:.6f}   {row[2]:.6f}")
print()
print("Limits: a point source is fully receptive (alpha -> 1); the full")
print("sky has already measured everything it can (alpha -> 0).")
print(f"  alpha(point)     = {alpha_numeric(SkyRegion.point()):.1f}")
print(f"  alpha(full sky)  = {alpha_numeric(SkyRegion.isotropic()):.1f}")
print()

# The useful record rate combines geometry twice: once in the rate
# ratio, once in alpha. A hemisphere keeps about 44% of the isotropic
# rate's record-building power.
print("== record rate relative to the full-sky decoherence rate ==")
print("theta0   rate ratio   alpha      tau_R / T_D")
for theta0 in (30, 60, 90, 120, 150):
    t0 = math.radians(theta0)
    ratio = disk_rate(t0, 0.0)
    alpha = alpha_disk(t0, 0.0)
    print(f"{theta0:5d}   {ratio:.6f}   {alpha:.6f}   {alpha * ratio:.6f}")
print()

# Swapping the region for its complement changes both factors but not
# their product: learning about the sphere from the lit side or the
# shadow side is equally fast.
t0, c0 = math.radians(60.0), math.radians(30.0)
t1, c1 = math.pi - t0, math.pi - c0
here = alpha_disk(t0, c0) * disk_rate(t0, c0)
there = alpha_disk(t1, c1) * disk_rate(t1, c1)
print("== complement invariance ==")
print(f"region (60, 30):      alpha * ratio = {here:.10f}")
print(f"complement (120, 150): alpha * ratio = {there:.10f}")
print()

# Custom regions work from a plain indicator grid. Two antipodal caps:
rows, cols = 120, 240
u = -1.0 + (np.arange(rows) + 0.5) * (2.0 / rows)
phi = (np.arange(cols) + 0.5) * (2.0 * math.pi / cols)
mask = (np.abs(u) > 0.8)[:, None] & np.ones(cols, dtype=bool)
caps = SkyRegion.custom(u, phi, mask)
alpha = alpha_numeric(caps)
print("== custom region: two antipodal caps (|cos theta| > 0.8) ==")
print(f"solid angle  {caps.solid_angle_sr:.4f} sr "
      f"({caps.solid_angle_sr / (4 * math.pi):.1%} of the sky)")
print(f"alpha        {alpha:.4f}")
print(f"tau_R^-1     {redundancy_rate(alpha, 1.0):.4f} (in units of tau_D^-1)")
