"""Tests for mutual information curves and redundancy measures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photon_darwinism.entropy_kernels import LN2, h
from photon_darwinism.information import (
    MAX_DEFICIT,
    fragment_entropy_change,
    mutual_information,
    mutual_information_approx,
    mutual_information_at_time,
    redundancy_estimate,
    redundancy_exact,
    redundancy_lower_bound,
    system_entropy,
)


def test_system_entropy_frozen_value():
    # mpmath, 50 digits
    assert system_entropy(math.exp(-1.0)) == pytest.approx(0.4958422580214, rel=1e-12)


def test_system_entropy_limits():
    assert system_entropy(1.0) == pytest.approx(0.0, abs=1e-15)
    assert system_entropy(0.0) == pytest.approx(LN2, rel=1e-15)


def test_fragment_entropy_change_frozen_value():
    got = fragment_entropy_change(math.exp(-10.0), 1.0, 0.3)
    assert got == pytest.approx(0.6680428567978, rel=1e-12)


def test_fragment_entropy_change_alpha_zero_is_flat():
    assert fragment_entropy_change(0.3, 0.0, 0.7) == 0.0


class TestMutualInformation:
    def test_frozen_plateau_value(self):
        # mpmath, 50 digits, closed form and direct series agree
        got = mutual_information(math.exp(-10.0), 1.0, 0.2)
        assert got == pytest.approx(0.6240091046964404, rel=1e-12)

    def test_no_fragment_no_information(self):
        for gamma in (0.0, 0.2, 0.9, 1.0):
            assert mutual_information(gamma, 1.0, 0.0) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_whole_environment_doubles_system_entropy(self):
        for gamma in (0.05, 0.4, 0.95):
            assert mutual_information(gamma, 1.0, 1.0) == pytest.approx(
                2.0 * system_entropy(gamma), rel=1e-13
            )

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_antisymmetry_about_half(self, gamma, f):
        total = (mutual_information(gamma, 1.0, f)
                 + mutual_information(gamma, 1.0, 1.0 - f))
        assert total == pytest.approx(2.0 * system_entropy(gamma), abs=1e-12)

    def test_monotone_in_fragment_size(self):
        fs = np.linspace(0.0, 1.0, 101)
        vals = [mutual_information(math.exp(-3.0), 1.0, float(f)) for f in fs]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_plateau_forms_deep_in_decoherence(self):
        assert mutual_information(math.exp(-100.0), 1.0, 0.1) >= 0.99 * LN2

    def test_blind_axis_form(self):
        # alpha = 0 drops the fragment term entirely
        gamma, f = 0.3, 0.4
        expected = h(gamma ** (1.0 - f)) - h(gamma)
        assert mutual_information(gamma, 0.0, f) == pytest.approx(expected, rel=1e-14)
        assert mutual_information(gamma, 0.0, 1.0) == pytest.approx(
            system_entropy(gamma), rel=1e-14
        )

    def test_blind_axis_information_decays(self):
        assert mutual_information_at_time(1000.0, 0.0, 0.4) < 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mutual_information(1.5, 1.0, 0.2)
        with pytest.raises(ValueError):
            mutual_information(0.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            mutual_information(0.5, -0.2, 0.5)


class TestMutualInformationAtTime:
    @pytest.mark.parametrize("t", [0.5, 2.0, 20.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_matches_direct_gamma_route(self, t, alpha):
        direct = mutual_information(math.exp(-t), alpha, 0.3)
        assert mutual_information_at_time(t, alpha, 0.3) == pytest.approx(
            direct, rel=1e-12
        )

    def test_survives_extreme_times(self):
        # exp(-1000) underflows to zero; the exponent route must not care
        val = mutual_information_at_time(1000.0, 1.0, 0.2)
        assert val == pytest.approx(LN2, rel=1e-12)

    def test_zero_time(self):
        assert mutual_information_at_time(0.0, 1.0, 0.3) == 0.0

    @pytest.mark.parametrize("t", [1.0, 10.0, 30.0, 1e3])
    @pytest.mark.parametrize("alpha", [1e-8, 0.37, 1.0])
    def test_no_fragment_holds_exactly_nothing(self, t, alpha):
        # The fragment's h(1) = ln 2 once cancelled the leading ln 2 only
        # to rounding: I(0) read 5.55e-17 at t = 1 and -4.77e-17 at t = 30.
        assert mutual_information_at_time(t, alpha, 0.0) == 0.0
        assert mutual_information(math.exp(-t), alpha, 0.0) == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_is_named(self, t):
        with pytest.raises(ValueError, match="t_over_tauD"):
            mutual_information_at_time(t, 1.0, 0.3)


def test_approximation_near_plateau():
    # ln 2 - gamma^(alpha f) / 2, frozen from the closed form
    got = mutual_information_approx(math.exp(-10.0), 1.0, 0.2)
    assert got == pytest.approx(0.625479538941639, rel=1e-12)
    exact = mutual_information(math.exp(-10.0), 1.0, 0.2)
    assert abs(got - exact) < 2e-3


def test_approximation_guards_its_domain():
    with pytest.raises(ValueError):
        mutual_information_approx(0.5, 1.0, 0.7)
    with pytest.raises(ValueError):
        mutual_information_approx(0.5, 0.0, 0.2)


class TestRedundancyExact:
    def test_frozen_values(self):
        # bisection against the plateau-deficit target, checked with mpmath
        assert redundancy_exact(None, 1.0, 0.01, t_over_tauD=100.0) == pytest.approx(
            23.35983999794, rel=1e-9
        )
        assert redundancy_exact(None, 0.5, 0.01, t_over_tauD=100.0) == pytest.approx(
            11.67991999897, rel=1e-9
        )

    def test_gamma_and_time_routes_agree(self):
        a = redundancy_exact(math.exp(-80.0), 1.0, 0.01)
        b = redundancy_exact(None, 1.0, 0.01, t_over_tauD=80.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_unattainable_target_gives_none(self):
        assert redundancy_exact(None, 1.0, 0.01, t_over_tauD=1.0) is None
        assert redundancy_exact(1.0, 1.0, 0.01) is None
        assert redundancy_exact(None, 1.0, 0.01, t_over_tauD=0.0) is None

    def test_perfect_decoherence_gives_unbounded_redundancy(self):
        assert redundancy_exact(0.0, 1.0, 0.01) == math.inf

    def test_redundancy_at_least_two_when_defined(self):
        # the search stops at half the environment, so R = 1/f >= 2
        for t in (8.0, 20.0, 300.0):
            r = redundancy_exact(None, 1.0, 0.2, t_over_tauD=t)
            if r is not None:
                assert r >= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            redundancy_exact(None, 1.0, 0.01)
        with pytest.raises(ValueError):
            redundancy_exact(0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            redundancy_exact(0.5, 0.0, 0.01)

    def test_both_forms_are_refused(self):
        # The time form used to win silently, even over an invalid gamma.
        for gamma in (7.0, math.exp(-100.0)):
            with pytest.raises(ValueError, match="^provide either gamma or "
                               "t_over_tauD, not both$"):
                redundancy_exact(gamma, 1.0, 0.01, t_over_tauD=100.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_time_is_named(self, t):
        with pytest.raises(ValueError, match="t_over_tauD"):
            redundancy_exact(None, 1.0, 0.01, t_over_tauD=t)


class TestRedundancyEstimate:
    def test_frozen_value(self):
        assert redundancy_estimate(100.0, 1.0, 0.01) == pytest.approx(
            23.3724810845, rel=1e-10
        )

    def test_scales_linearly_in_alpha_t(self):
        base = redundancy_estimate(100.0, 1.0, 0.01)
        assert redundancy_estimate(100.0, 0.5, 0.01) == pytest.approx(
            base / 2.0, rel=1e-13
        )
        assert redundancy_estimate(200.0, 1.0, 0.01) == pytest.approx(
            2.0 * base, rel=1e-13
        )

    def test_close_to_exact_deep_in_decoherence(self):
        exact = redundancy_exact(None, 1.0, 0.01, t_over_tauD=100.0)
        est = redundancy_estimate(100.0, 1.0, 0.01)
        assert abs(exact - est) / est < 1e-3

    def test_warns_in_the_crossover(self):
        with pytest.warns(UserWarning, match="crossover"):
            redundancy_estimate(5.0, 1.0, 0.01)

    def test_deficit_cap(self):
        assert MAX_DEFICIT == pytest.approx(1.0 / (2.0 * LN2), rel=1e-15)
        with pytest.raises(ValueError):
            redundancy_estimate(100.0, 1.0, MAX_DEFICIT)


class TestRedundancyLowerBound:
    def test_frozen_value(self):
        assert redundancy_lower_bound(100.0, 0.01) == pytest.approx(
            21.71472409516, rel=1e-10
        )

    def test_requires_enough_decoherence(self):
        with pytest.raises(ValueError):
            redundancy_lower_bound(5.0, 0.01)

    def test_never_exceeds_the_exact_answer(self):
        for t in (8.0, 20.0, 50.0, 300.0):
            exact = redundancy_exact(None, 1.0, 0.01, t_over_tauD=t)
            if exact is None:
                continue
            assert redundancy_lower_bound(t, 0.01) <= exact + 1e-9
