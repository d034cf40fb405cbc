"""Accuracy contract of the general superpositions' mutual informations,
against 60-digit references written here.

mi_unbalanced and mi_mway take a Gamma as t = -ln Gamma and each power
Gamma^w as e^(-t w), and the sweep hands them t itself. Each result then
lies within

    |err| <= 1e-12 |I| + 16 eps ln 2

of the true value, for t in [1e-3, 1e4], f in [1e-6, 1], mu in [0, 0.9]
and M in [2, 64]. The absolute term covers the corner of small I, where
ln 2 - h(Gamma^f) cancels. When the sweep formed Gamma = exp(-t) first and
raised it to powers, every Gamma^w was lost once Gamma underflowed: past
t = 745 it printed the t = inf value, up to 68% off.

The references use mpmath alone; a Gamma entry is compared at its double
Gamma, whose exponent is -ln Gamma at 60 digits.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from photon_darwinism.cli import _SWEEP_TABLE
from photon_darwinism.superpositions import mi_mway, mi_unbalanced

REL_TOL = 1e-12
ABS_TOL = 16 * 2.0**-52 * math.log(2.0)


def _h(x):
    """sum_{n>=1} x^n / (2n(2n-1)): the series for small x (no cancellation
    at any exponent), the closed form sqrt(x) atanh(sqrt(x)) + ln(1-x)/2
    otherwise."""
    if x < mp.mpf("0.01"):
        return mp.fsum(x**n / (2 * n * (2 * n - 1)) for n in range(1, 40))
    if x == 1:
        return mp.log(2)
    u = mp.sqrt(x)
    return u * mp.atanh(u) + mp.log1p(-x) / 2


def _mi_unbalanced(t, f, mu):
    """ln 2 + H(1 - f) - H(f) - H(1), H(w) = h(mu + (1 - mu) e^(-t w))."""
    def shifted(w):
        return _h(mu + (1 - mu) * mp.exp(-t * w))

    return mp.log(2) + shifted(1 - f) - shifted(f) - shifted(1)


def _mi_mway(t, f, M):
    """E(f) + E(1) - E(1 - f), E(w) the entropy of the M-point spectrum
    with pairwise element x = e^(-t w / 2)."""
    def entropy(w):
        x = mp.exp(-t * w / 2)
        top, rest = (1 + (M - 1) * x) / M, (1 - x) / M
        return -(top * mp.log(top) + (M - 1) * (rest * mp.log(rest) if rest else 0))

    return entropy(f) + entropy(1) - entropy(1 - f)


def _assert_close(got, reference, t, *args):
    """got within the contract of reference(t, *args) at 60 digits."""
    with mp.workdps(60):
        want = reference(t, *(mp.mpf(a) for a in args))
        err = abs(mp.mpf(float(got)) - want)
        assert err <= REL_TOL * abs(want) + ABS_TOL, (float(want), float(got))


def _check(public, reference, sweep_name, t, f, extra):
    """The sweep's t path at t, and the Gamma entry at Gamma = exp(-t)."""
    axis = "mu" if sweep_name == "mi_unbalanced" else "M"
    sweep = _SWEEP_TABLE[sweep_name]["evaluate"]
    got = sweep({"t_over_tauD": np.array([t]), "f": f, axis: extra})
    _assert_close(got[0], reference, mp.mpf(t), f, extra)
    gamma = math.exp(-t)
    if gamma > 0.0:
        with mp.workdps(60):
            exponent = -mp.log(mp.mpf(gamma))
        _assert_close(public(gamma, f, extra), reference, exponent, f, extra)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda x: min(max(math.exp(x), lo), hi))


times = _log_uniform(1e-3, 1e4)
fractions = _log_uniform(1e-6, 1.0)


@settings(max_examples=150, deadline=None)
@given(times, fractions, st.floats(0.0, 0.9))
@example(750.0, 1e-3, 0.5)
@example(1e4, 1e-6, 0.0)
@example(1e-3, 1e-6, 0.9)
@example(300.0, 1.0, 0.3)
def test_mi_unbalanced_keeps_its_digits(t, f, mu):
    _check(mi_unbalanced, _mi_unbalanced, "mi_unbalanced", t, f, mu)


@settings(max_examples=150, deadline=None)
@given(times, fractions, st.integers(2, 64))
@example(750.0, 1e-3, 3)
@example(1e4, 1e-6, 64)
@example(1e-3, 1e-6, 2)
@example(300.0, 1.0, 17)
def test_mi_mway_keeps_its_digits(t, f, M):
    _check(mi_mway, _mi_mway, "mi_mway", t, f, float(M))
