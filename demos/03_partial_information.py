"""Partial information plots: what a fragment of the environment knows.

An observer who catches a fraction f of the scattered photons holds
mutual information I(f) about which branch the sphere is in. Early on
the curve is a featureless ramp; once decoherence is deep it snaps into
the classical plateau at ln 2, reaching it already at small f. That
plateau is quantum Darwinism's signature: many independent fragments
all telling the same story.
"""

import math

import numpy as np

from photon_darwinism import (
    LN2,
    mutual_information,
    mutual_information_approx,
    mutual_information_at_time,
    system_entropy,
)

F_GRID = np.linspace(0.0, 1.0, 11)


def render(times, alpha):
    print(f"   f     " + "".join(f"t={t:<7g}" for t in times))
    for f in F_GRID:
        cells = "".join(
            f"{mutual_information_at_time(t, alpha, float(f)):7.4f}  "
            for t in times
        )
        print(f"  {f:.1f}   {cells}")


print("== fully receptive sky (alpha = 1), information in nats ==")
render((0.5, 2.0, 10.0, 100.0), alpha=1.0)
print()
print(f"ln 2 = {LN2:.4f}: by t = 10 tau_D a 10% fragment already holds "
      f"{mutual_information_at_time(10.0, 1.0, 0.1) / LN2:.1%} of it.")
print()

# The curve is antisymmetric about f = 1/2 around half the quantum
# ceiling: what the small fragment is missing, its complement holds.
gamma = math.exp(-10.0)
mi = mutual_information(gamma, 1.0, F_GRID)
total = mi + mi[::-1]
print(f"antisymmetry check: I(f) + I(1-f) spans "
      f"[{total.min():.12f}, {total.max():.12f}]"
      f" vs 2 H_S = {2 * system_entropy(gamma):.12f}")
print()

# Reduced receptivity stretches the plateau out: with alpha < 1 a
# fragment needs 1/alpha times more photons for the same story.
print("== hazy sky (alpha = 0.25) ==")
render((10.0, 100.0, 1000.0), alpha=0.25)
print()

# Near the plateau the closed form is one exponential away from exact.
print("== plateau approximation, t = 10, alpha = 1 ==")
print("   f    exact      ln2 - G^(af)/2")
for f in (0.1, 0.2, 0.3, 0.4):
    exact = mutual_information_at_time(10.0, 1.0, f)
    approx = mutual_information_approx(gamma, 1.0, f)
    print(f"  {f:.1f}   {exact:.6f}   {approx:.6f}")
print()

# A blind axis (alpha = 0) never develops a plateau. The environment
# still decoheres the sphere, but no fragment short of everything can
# say which branch: the records are spread, not copied.
print("== blind axis (alpha = 0): information stays with the whole ==")
print("   f     t=10      t=100     t=1000")
for f in (0.2, 0.4, 0.6, 0.8, 1.0):
    cells = "".join(
        f"{mutual_information_at_time(t, 0.0, f):8.5f}  "
        for t in (10.0, 100.0, 1000.0)
    )
    print(f"  {f:.1f}   {cells}")
