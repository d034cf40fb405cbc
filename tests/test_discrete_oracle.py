"""Tests for the finite-environment oracle and its cross-check battery."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

from photon_darwinism import discrete_oracle
from photon_darwinism.discrete_oracle import (
    DEFAULT_CAP,
    DirectionalGrid,
    OracleCapError,
    analytic_entropy_change,
    discrete_alpha,
    discrete_gamma,
    fragment_eigenvalues,
    fragment_entropy_change_exact,
    fragment_entropy_change_series,
    fragment_entropy_exact,
    matrix_element_diag,
    mi_exact_general,
    oracle_battery,
    planck_spectral_nodes,
    scattering_probability_grid,
)
from photon_darwinism.entropy_kernels import LN2, h
from photon_darwinism.information import mutual_information
from photon_darwinism.radiometry import ZETA_3, ZETA_9, Scenario
from photon_darwinism.sky import FULL_SPHERE, SkyRegion
from photon_darwinism.superpositions import CatSpec, mi_mway


class TestFragmentSpectrum:
    def test_single_photon_pairs(self):
        b = [-0.1, 0.04]
        vals, mults = fragment_eigenvalues(b, 1)
        assert mults.sum() == 4
        assert np.sum(vals * mults) == pytest.approx(1.0, abs=1e-14)
        expected = sorted(
            (1.0 + s * math.sqrt(1.0 + bj)) / 4.0
            for bj in b for s in (+1.0, -1.0)
        )
        assert sorted(vals) == pytest.approx(expected, abs=1e-15)

    def test_unperturbed_environment_learns_nothing(self):
        vals, mults = fragment_eigenvalues([0.0] * 3, 2)
        assert np.sum(vals * mults) == pytest.approx(1.0, abs=1e-14)
        # half the branch pairs collapse to 1/D^fN, the other half to zero
        nonzero = vals[vals > 0.0]
        assert np.allclose(nonzero, 1.0 / 9.0)
        assert fragment_entropy_change_exact([0.0] * 3, 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_group_count_matches_multiset_combinatorics(self):
        D, fN = 4, 3
        vals, mults = fragment_eigenvalues([-0.01 * j for j in range(D)], fN)
        n_multisets = len(list(combinations_with_replacement(range(D), fN)))
        assert vals.size == 2 * n_multisets
        assert mults.sum() == 2 * D**fN

    def test_cap_guards_the_enumeration(self):
        with pytest.raises(OracleCapError):
            fragment_eigenvalues([0.0] * 10, 8)
        with pytest.raises(OracleCapError):
            fragment_eigenvalues([0.0] * 4, 4, cap=100)
        # The cap comes first, before any multiplicity could overflow int64.
        with pytest.raises(OracleCapError):
            fragment_eigenvalues([0.0] * 2, 67)
        assert DEFAULT_CAP == 10_000_000

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fragment_eigenvalues([-1.5], 1)  # 1 + b must stay nonnegative
        with pytest.raises(ValueError):
            fragment_eigenvalues([0.0], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalues_are_rejected_by_name(self, bad):
        # NaN used to give a NaN entropy change, -inf a "1 + b" complaint.
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            fragment_eigenvalues([-0.01, bad], 2)
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            fragment_entropy_change_exact([bad], 1)

    @pytest.mark.parametrize("call", [fragment_eigenvalues,
                                      fragment_entropy_change_exact])
    def test_inputs_are_checked_once_by_name(self, call):
        # One rule each, with one message that names the value at fault.
        with pytest.raises(ValueError) as info:
            call([-1.5], 1)
        assert str(info.value) == ("perturbation eigenvalues need 1 + b >= 0, "
                                   "got -1.5")
        with pytest.raises(ValueError) as info:
            call([-0.01], 0)
        assert str(info.value) == ("photon count fN must be a positive "
                                   "integer, got 0")
        call([-0.01, -0.02], np.int64(2))  # a numpy integer count passes

    def test_a_stack_gives_one_spectrum_per_row(self):
        b = np.array([[-0.01, -0.02, -0.03], [0.0, 0.0, 0.0]])
        values, mults = fragment_eigenvalues(b, 2)
        assert values.shape == (2, 12) and mults.shape == (12,)
        for row, spectrum in zip(b, values):
            assert np.array_equal(spectrum, fragment_eigenvalues(row, 2)[0])
        stacked = fragment_eigenvalues(b.reshape(1, 2, 1, 3), 2)[0]
        assert np.array_equal(stacked, values.reshape(1, 2, 1, 12))

    @pytest.mark.parametrize("b", [-0.01, [], np.zeros((2, 0)),
                                   np.zeros((0, 3))])
    def test_an_empty_or_scalar_b_is_refused(self, b):
        with pytest.raises(ValueError, match=re.escape(
                "b must be a nonempty 1-d array of eigenvalues, or a stack "
                "of them")):
            fragment_eigenvalues(b, 2)

    def test_the_entropy_change_takes_one_spectrum(self):
        with pytest.raises(ValueError, match=re.escape(
                "b must be a nonempty 1-d array of eigenvalues")):
            fragment_entropy_change_exact(np.full((2, 3), -0.01), 2)

    @pytest.mark.parametrize("fN", [True, 2.0, -1])
    def test_photon_count_must_be_a_positive_integer(self, fN):
        # True was taken as one photon.
        with pytest.raises(ValueError, match=re.escape(
                f"photon count fN must be a positive integer, got {fN}")):
            fragment_eigenvalues([-0.01], fN)


class TestFragmentEntropy:
    def test_uniform_spectrum(self):
        d = 7
        assert fragment_entropy_exact(np.full(d, 1.0 / d)) == pytest.approx(
            math.log(d), rel=1e-13
        )

    def test_pure_state(self):
        assert fragment_entropy_exact(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_multiplicities_expand_correctly(self):
        vals = np.array([0.2, 0.1])
        mults = np.array([3, 4])
        expanded = np.repeat(vals, mults)
        assert fragment_entropy_exact(vals, mults) == pytest.approx(
            fragment_entropy_exact(expanded), rel=1e-14
        )

    def test_rejects_bad_spectra(self):
        with pytest.raises(ValueError):
            fragment_entropy_exact(np.array([0.7, 0.6]))
        with pytest.raises(ValueError):
            fragment_entropy_exact(np.array([1.1, -0.1]))

    def test_negative_multiplicity_is_named(self):
        # The weighted total [0.5, 0.5] . [-1, 3] is 1, so this returned ln 2.
        with pytest.raises(ValueError, match=re.escape(
                "multiplicities must be nonnegative, got -1.0")):
            fragment_entropy_exact([0.5, 0.5], [-1, 3])


class TestEntropyChange:
    def test_series_matches_enumeration(self):
        for b, fN in (([-0.01, -0.03, -0.002], 1),
                      ([-0.01, -0.03, -0.002], 3),
                      ([0.0, -0.05, -0.1], 2)):
            exact = fragment_entropy_change_exact(b, fN)
            series = fragment_entropy_change_series(b, fN)
            assert series == pytest.approx(exact, rel=1e-11, abs=1e-15)

    def test_series_requires_nonpositive_deficits(self):
        with pytest.raises(ValueError):
            fragment_entropy_change_series([0.01], 1)

    def test_moment_series_identity(self):
        # Independent route: Delta H = ln 2 - sum_m <(1+b)^m>^fN / (2m(2m-1)),
        # summed here directly with numpy.
        b = np.array([-0.05, -0.08, -0.02])
        fN = 2
        m = np.arange(1, 3000, dtype=float)
        q = np.mean((1.0 + b)[:, None] ** m[None, :], axis=0)
        reference = LN2 - float(np.sum(q**fN / (2.0 * m * (2.0 * m - 1.0))))
        assert fragment_entropy_change_exact(b, fN) == pytest.approx(
            reference, rel=1e-10
        )

    def test_analytic_form_and_its_gap(self):
        b = [-0.02, -0.025, -0.015]
        fN = 3
        expected = LN2 - h(math.exp(fN * float(np.mean(b))))
        assert analytic_entropy_change(b, fN) == pytest.approx(expected, rel=1e-14)
        # the analytic curve is first order in b; its error shrinks
        # roughly quadratically when b does
        gap = abs(fragment_entropy_change_exact(b, fN)
                  - analytic_entropy_change(b, fN))
        half = [x / 4.0 for x in b]
        gap_half = abs(fragment_entropy_change_exact(half, fN)
                       - analytic_entropy_change(half, fN))
        assert gap_half < gap / 8.0

    def test_halving_ratios_sit_near_second_order(self):
        from photon_darwinism.discrete_oracle import entropy_error_halving

        ratios = entropy_error_halving(-0.002, 8, 6, levels=3)
        assert len(ratios) == 2
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_halving_is_blind_to_environment_size_for_uniform_b(self):
        # with every b equal the per-branch moments collapse and D_B
        # drops out of the entropy change entirely
        from photon_darwinism.discrete_oracle import entropy_error_halving

        assert entropy_error_halving(-0.004, 4, 3) == pytest.approx(
            entropy_error_halving(-0.004, 8, 3), rel=1e-9
        )

    @pytest.mark.parametrize("levels", [1, 0, -2, 2.0, 3.5, "3"])
    def test_halving_needs_two_levels(self, levels):
        # levels 1 and 0 returned [], so a check over the ratios passed
        # with nothing checked.
        from photon_darwinism.discrete_oracle import entropy_error_halving

        with pytest.raises(ValueError, match=re.escape(
                f"levels must be an integer >= 2, got {levels!r}")):
            entropy_error_halving(-0.002, 4, 2, levels=levels)
        assert len(entropy_error_halving(-0.002, 4, 2, levels=2)) == 1

    @pytest.mark.parametrize("D_B", [0, 2.5, True, -3, "4", None])
    def test_halving_names_a_bad_environment_size(self, D_B):
        # 0 read "b must be a nonempty 1-d array", 2.5 and True gave
        # numpy TypeErrors, and -3 "negative dimensions are not allowed".
        from photon_darwinism.discrete_oracle import entropy_error_halving

        with pytest.raises(ValueError, match=re.escape(
                f"environment size D_B must be a positive integer, got {D_B}")):
            entropy_error_halving(-0.002, D_B, 2)

    @pytest.mark.parametrize("base_b", [math.nan, -2.0, -1.0 - 1e-12, 0.0,
                                        0.5, math.inf, -math.inf])
    def test_halving_names_a_bad_base_b(self, base_b):
        # NaN read "perturbation eigenvalues must be finite", and -2.0
        # "need 1 + b >= 0".
        from photon_darwinism.discrete_oracle import entropy_error_halving

        with pytest.raises(ValueError, match=re.escape(
                f"base_b must be finite and in [-1, 0), got {base_b}")):
            entropy_error_halving(base_b, 4, 2)

    @pytest.mark.parametrize("base_b", [-1e-8, -1e-9, -1e-12, -1e-300])
    def test_halving_refuses_gaps_lost_in_rounding(self, base_b):
        # -1e-12 returned [15.0, 1.0] and -1e-9 [4.5, 1.0]; -1e-8 and
        # -1e-300 raised a bare ZeroDivisionError when a gap rounded to 0.
        from photon_darwinism.discrete_oracle import entropy_error_halving

        with pytest.raises(ValueError, match=re.escape(
                f"base_b = {base_b} is too small to resolve: the gap at "
                "halving 0 is ")):
            entropy_error_halving(base_b, 2, 2)

    def test_halving_names_the_level_whose_gap_is_noise(self):
        # On (2, 2) the gaps at -3e-7, -1.5e-7 and -7.5e-8 read 74 to 1,160
        # roundings; the last is under the bound of 100.
        from photon_darwinism.discrete_oracle import entropy_error_halving

        with pytest.raises(ValueError, match=r"the gap at halving 2 is .*, "
                           r"not above its entropies' rounding bound 4\.62e-14$"):
            entropy_error_halving(-3e-7, 2, 2)

    @pytest.mark.parametrize("D_B,fN", [(2, 2), (8, 6), (4, 3)])
    def test_halving_still_resolves_a_small_b(self, D_B, fN):
        from photon_darwinism.discrete_oracle import entropy_error_halving

        ratios = entropy_error_halving(-1e-6, D_B, fN)
        assert len(ratios) == 2
        assert all(3.7 <= r <= 3.9 for r in ratios)

    def test_halving_takes_the_whole_unit_interval(self):
        from photon_darwinism.discrete_oracle import entropy_error_halving

        assert len(entropy_error_halving(-1.0, 2, 2)) == 2
        assert len(entropy_error_halving(-1e-3, np.int64(2), 2)) == 2


def test_discrete_gamma():
    assert discrete_gamma(np.ones(5)) == pytest.approx(1.0, rel=1e-15)
    assert discrete_gamma(np.array([1.0, -1.0])) == 0.0
    assert discrete_gamma(np.array([1.0, 1.0j])) == pytest.approx(0.5, rel=1e-14)


class TestMatrixElement:
    @staticmethod
    def _scenario():
        return Scenario(radius_m=1e-6, permittivity=4.0, dx_m=1e-6,
                        temperature_K=2.725, region=SkyRegion.isotropic())

    def test_deficit_formula(self):
        scn = self._scenario()
        k, t, V = 1e6, 1.0, 1.0
        d = (2.0 * math.pi / 15.0) * 14.0 * scn.effective_radius_m**6 \
            * scn.dx_m**2 * k**6 * 299792458.0 * t / V
        assert matrix_element_diag(k, 0.0, scn, V=V, t=t) == pytest.approx(
            1.0 - d, rel=1e-12
        )

    def test_polar_to_equatorial_deficit_ratio(self):
        scn = self._scenario()
        d_pole = 1.0 - matrix_element_diag(1e6, 0.0, scn, V=1.0, t=1.0)
        d_eq = 1.0 - matrix_element_diag(1e6, math.pi / 2.0, scn, V=1.0, t=1.0)
        assert d_eq / d_pole == pytest.approx(3.0 / 14.0, rel=1e-9)

    def test_deficit_scales_linearly_in_time_and_inverse_volume(self):
        scn = self._scenario()
        d1 = 1.0 - matrix_element_diag(1e6, 0.3, scn, V=1.0, t=1.0)
        d2 = 1.0 - matrix_element_diag(1e6, 0.3, scn, V=2.0, t=4.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-9)

    @pytest.mark.parametrize("name,value,message", [
        ("k", math.nan, "k must be finite and nonnegative, got nan"),
        ("k", -1.0, "k must be finite and nonnegative, got -1.0"),
        ("k", math.inf, "k must be finite and nonnegative, got inf"),
        ("theta", math.nan, "theta must be finite, got nan"),
        ("theta", math.inf, "theta must be finite, got inf"),
        ("V", math.nan, "V must be finite and positive, got nan"),
        ("V", 0.0, "V must be finite and positive, got 0.0"),
        ("V", math.inf, "V must be finite and positive, got inf"),
        ("t", math.nan, "t must be finite and nonnegative, got nan"),
        ("t", -1.0, "t must be finite and nonnegative, got -1.0"),
    ])
    def test_bad_argument_is_named(self, name, value, message):
        # A NaN k, theta or V returned NaN instead of raising.
        args = {"k": 1e6, "theta": 0.3, "V": 1.0, "t": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matrix_element_diag(args["k"], args["theta"], self._scenario(),
                                V=args["V"], t=args["t"])


class TestDirectionalGrid:
    def test_leaks_are_small_probabilities(self):
        grid = scattering_probability_grid(8, 16, math.pi / 2.0)
        assert grid.D_S == 128 and grid.mask.sum() == 64
        assert (grid.leak > 0.0).all() and grid.leak.max() < 1e-3

    def test_equatorial_cap_masks_half_the_bins(self):
        grid = scattering_probability_grid(10, 20, math.pi / 2.0)
        assert grid.mask.sum() == grid.D_S // 2

    def test_excessive_coupling_is_rejected(self):
        with pytest.raises(ValueError, match="coupling"):
            scattering_probability_grid(8, 16, math.pi / 2.0, coupling=1e3)
        grid = scattering_probability_grid(8, 16, math.pi / 2.0)
        with pytest.raises(ValueError, match="^coupling 1000.0 leaks"):
            replace(grid, coupling=1e3)

    @pytest.mark.parametrize("theta0", [-1.0, math.pi + 0.1, 10.0])
    def test_cap_outside_zero_to_pi_is_named(self, theta0):
        # -1.0 became a cap of half-angle 1, and 10.0 selected every bin.
        with pytest.raises(ValueError, match=re.escape(
                f"theta0 must be in [0, pi], got {theta0}")):
            scattering_probability_grid(4, 8, theta0)

    def test_zero_cap_is_built_and_named_by_alpha(self):
        # The cap's lower edge is in range and selects no bin.
        grid = scattering_probability_grid(4, 8, 0.0)
        assert not grid.mask.any() and np.isnan(grid.cross).all()
        with pytest.raises(ValueError, match="^region mask selects no"):
            discrete_alpha(grid)

    @pytest.mark.parametrize("name", ["coupling", "theta0", "chi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_rejected_by_name(self, name, bad):
        # A NaN coupling used to give an all-NaN matrix, and a NaN theta0
        # an empty mask that discrete_alpha blamed on the region.
        kwargs = {"theta0": math.pi / 2.0, "chi": 0.0, "coupling": 1e-6}
        kwargs[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            scattering_probability_grid(8, 16, **kwargs)

    def test_grid_and_alpha_hold_at_most_four_ring_blocks(self):
        # The earlier build held one D_S x D_S matrix (32 MB here) and
        # copied its region block out to sum it; a ring block is
        # n_phi x D_S, 1 MB.
        tracemalloc.start()
        try:
            grid = scattering_probability_grid(32, 64, math.pi / 2.0)
            discrete_alpha(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.n_phi * grid.D_S * 8

    @pytest.mark.parametrize("n_theta,n_phi,name", [
        (8.5, 16, "n_theta"), (8, 16.0, "n_phi"), ("8", 16, "n_theta")])
    def test_non_integer_bin_count_is_named(self, n_theta, n_phi, name):
        # 8.5 raised numpy's "'float' object cannot be interpreted as an
        # integer", and 16.0 "slice indices must be integers".
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            scattering_probability_grid(n_theta, n_phi, math.pi / 2.0)
        grid = scattering_probability_grid(np.int64(4), np.int64(8), 1.0)
        assert grid.D_S == 32

    def test_cross_is_kept_on_the_rings_that_hold_the_region(self):
        grid = scattering_probability_grid(8, 16, 1.1, 0.7)
        held = grid.mask.reshape(8, 16).any(axis=1).repeat(16)
        assert held.any() and not held.all()
        assert np.isnan(grid.cross[~held]).all()
        assert (grid.cross[held] <= grid.leak[held]).all()
        assert (grid.cross[grid.mask] > 0.0).all()
        # (u_n - u_m)^2 is exactly 0 within a theta ring, so a ring's rows
        # leak nothing into the ring: their cross sums are their leaks.
        ring = np.arange(grid.D_S) // 16 == 3
        ringed = replace(grid, mask=ring)
        assert np.array_equal(ringed.cross[ring], grid.leak[ring])
        assert ringed.leak is not grid.leak
        assert np.array_equal(ringed.leak, grid.leak)

    def test_grid_and_alpha_hold_a_few_arrays_of_bins(self):
        # Six moments per ring need a few arrays of D_S entries; the ring
        # pass held an n_phi x D_S block, 139 D_S doubles at its peak here.
        tracemalloc.start()
        try:
            grid = scattering_probability_grid(64, 128, math.pi / 2.0)
            discrete_alpha(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * grid.D_S * 8

    def test_rows_moved_across_rings_are_refused(self):
        # The grid prices every row of a ring at the ring's first
        # cos(theta): these rows gave alpha = 0.621 instead of 0.907.
        grid = scattering_probability_grid(4, 8, math.pi / 2.0)
        perm = np.random.default_rng(0).permutation(grid.D_S)
        with pytest.raises(ValueError, match=re.escape(
                "points must lie in theta rings of n_phi = 8 rows that share "
                "one cos(theta), got 32 points")):
            replace(grid, points=grid.points[perm], mask=grid.mask[perm])
        # Whole rings in another order are still rings.
        rings = np.arange(grid.D_S).reshape(4, 8)[::-1].ravel()
        moved = replace(grid, points=grid.points[rings], mask=grid.mask[rings])
        assert discrete_alpha(moved) == pytest.approx(discrete_alpha(grid),
                                                      rel=1e-14)

    def test_points_that_are_not_whole_rings_are_refused(self):
        # 30 points in rings of 8 raised numpy's matmul core-dimension error.
        grid = scattering_probability_grid(4, 8, math.pi / 2.0)
        with pytest.raises(ValueError, match=re.escape(
                "points must lie in theta rings of n_phi = 8 rows that share "
                "one cos(theta), got 30 points")):
            replace(grid, points=grid.points[:30], mask=grid.mask[:30])

    def test_bin_solid_angle_follows_from_the_bins(self):
        # delta_omega was a free field: 100 times the bin's solid angle
        # moved alpha from 0.906585 to 0.906075 without a word.
        grid = scattering_probability_grid(4, 8, math.pi / 2.0)
        assert grid.delta_omega == FULL_SPHERE / 32
        with pytest.raises(TypeError, match="delta_omega"):
            replace(grid, delta_omega=100.0 * grid.delta_omega)

    def test_grids_compare_by_identity(self):
        # With array fields, a generated == raised "truth value of an
        # array with more than one element is ambiguous".
        grid = scattering_probability_grid(4, 8, 1.0)
        assert grid == grid
        assert grid != scattering_probability_grid(4, 8, 1.0)
        assert len({grid, grid}) == 1


class TestDiscreteAlpha:
    def test_full_sphere_scores_zero(self):
        grid = scattering_probability_grid(8, 16, math.pi)
        assert discrete_alpha(grid) == 0.0

    def test_single_direction_is_fully_receptive(self):
        grid = scattering_probability_grid(16, 32, math.pi)
        mask = np.zeros(grid.D_S, dtype=bool)
        mask[5] = True
        single = replace(grid, mask=mask)
        assert discrete_alpha(single) == pytest.approx(1.0, abs=1e-4)

    def test_another_region_equals_a_grid_built_for_it(self):
        half = scattering_probability_grid(16, 32, math.pi / 2.0, 0.7)
        full = scattering_probability_grid(16, 32, math.pi)
        assert discrete_alpha(replace(full, mask=half.mask)) \
            == discrete_alpha(half)

    def test_empty_mask_is_rejected(self):
        grid = scattering_probability_grid(8, 16, math.pi)
        empty = replace(grid, mask=np.zeros(grid.D_S, dtype=bool))
        with pytest.raises(ValueError, match="^region mask selects no"):
            discrete_alpha(empty)

    def test_refinement_approaches_the_continuum(self):
        target = 1135.0 / 1280.0
        errs = []
        for n_theta in (8, 16):
            grid = scattering_probability_grid(n_theta, 2 * n_theta, math.pi / 2.0)
            errs.append(abs(discrete_alpha(grid) - target))
        assert errs[1] < 0.6 * errs[0]

    # Each of these once returned 0.0 (mask.all() held) or raised numpy's
    # "boolean index did not match" IndexError.
    @pytest.mark.parametrize("shape", [(5,), (40,), (32, 1), (1, 32), ()])
    @pytest.mark.parametrize("fill", [True, False])
    def test_mask_of_the_wrong_shape_is_named(self, shape, fill):
        grid = scattering_probability_grid(8, 4, math.pi / 2.0)
        mask = np.full(shape, fill)
        if not fill and mask.size:
            mask.flat[0] = True
        with pytest.raises(ValueError, match=re.escape(
                "mask must be 1-d with one flag per direction bin (32), "
                f"got shape {shape}")):
            replace(grid, mask=mask)

    @pytest.mark.parametrize("raw", [np.eye(32), np.eye(32).tolist()],
                             ids=["array", "list"])
    def test_raw_matrix_is_refused(self, raw):
        with pytest.raises(TypeError, match=(
                "^discrete_alpha needs a DirectionalGrid, got ")):
            discrete_alpha(raw)


def test_planck_spectral_nodes_reproduce_zeta_moments():
    kappa, w = planck_spectral_nodes()
    assert w.sum() == pytest.approx(1.0, rel=1e-10)
    sixth = float(np.sum(w * kappa**6))
    assert sixth == pytest.approx(
        math.factorial(8) * ZETA_9 / (2.0 * ZETA_3), rel=1e-8
    )
    zeta6 = math.pi**6 / 945.0
    third = float(np.sum(w * kappa**3))
    assert third == pytest.approx(math.factorial(5) * zeta6 / (2.0 * ZETA_3),
                                  rel=1e-8)


@pytest.mark.parametrize("n", [2.5, math.nan, True, 1], ids=repr)
def test_planck_spectral_nodes_name_a_bad_node_count(n):
    # 2.5 used to reach numpy's "deg must be an integer", and nan got past
    # the n < 2 check.
    with pytest.raises(ValueError) as info:
        planck_spectral_nodes(n)
    assert str(info.value) == (
        f"spectral node count n must be an integer >= 2, got {n!r}")


class TestBatteryTables:
    """The Planck rule and the multiset tables depend on neither the seed
    nor b, so a process builds each once and later batteries reuse it."""

    # The battery's five finite models as (D_B, fN): the spectrum check,
    # the zero-b model, the single photon, the series identity (enumerated
    # twice per battery before the cache) and the halving levels.
    MODELS = {(5, 3), (4, 3), (1, 1), (3, 2), (8, 6)}

    @staticmethod
    def _count(monkeypatch, name):
        """Patch discrete_oracle's name to record each call's arguments."""
        calls, real = [], getattr(discrete_oracle, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(discrete_oracle, name, counted)
        return calls

    def _count_both(self, monkeypatch):
        return (self._count(monkeypatch, "leggauss"),
                self._count(monkeypatch, "combinations_with_replacement"))

    def test_a_second_battery_builds_no_table(self, monkeypatch):
        first = oracle_battery(3)
        rules, multisets = self._count_both(monkeypatch)
        assert oracle_battery(4)["all_passed"]
        assert oracle_battery(3) == first
        assert (rules, multisets) == ([], [])

    def test_a_cold_battery_builds_each_table_once(self, monkeypatch):
        discrete_oracle._planck_rule.cache_clear()
        discrete_oracle._cached_multisets.cache_clear()
        rules, multisets = self._count_both(monkeypatch)
        oracle_battery(0)
        assert rules == [(32,)]
        models = [(len(indices), fN) for indices, fN in multisets]
        assert sorted(models) == sorted(self.MODELS)

    def test_cached_arrays_refuse_writes(self):
        oracle_battery(0)
        kappa, weights = discrete_oracle._planck_rule(32)
        runs, slots, mult = discrete_oracle._multisets(8, 6)
        assert isinstance(runs, tuple)
        for array in (kappa, weights, slots, mult):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_written_planck_nodes_leave_the_next_call_alone(self,
                                                            monkeypatch):
        kappa, weights = planck_spectral_nodes()
        before = kappa.copy(), weights.copy()
        kappa[:] = weights[:] = np.nan
        rules = self._count(monkeypatch, "leggauss")
        after = planck_spectral_nodes()
        assert rules == []
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_a_model_above_the_group_bound_is_not_kept(self, monkeypatch):
        # D_B = 100, fN = 2 has 5,050 groups, above the 4,096 kept.
        assert math.comb(101, 2) > discrete_oracle._CACHED_GROUPS
        oracle_battery(0)
        kept = discrete_oracle._cached_multisets.cache_info().currsize
        _, multisets = self._count_both(monkeypatch)
        b = np.full(100, -0.01)
        first = fragment_eigenvalues(b, 2)
        second = fragment_eigenvalues(b, 2)
        assert len(multisets) == 2
        assert discrete_oracle._cached_multisets.cache_info().currsize == kept
        assert all(np.array_equal(x, y) for x, y in zip(first, second))


class TestExactGeneralMi:
    def test_two_branch_reduction(self):
        gamma = math.exp(-8.0)
        gm = np.array([[1.0, gamma], [gamma, 1.0]])
        cat = CatSpec(probs=(0.5, 0.5), gamma=gm)
        for f in (0.1, 0.2, 0.5, 0.8):
            assert mi_exact_general(cat, f) == pytest.approx(
                mutual_information(gamma, 1.0, f), abs=1e-10
            )

    def test_uniform_three_branch_reduction(self):
        gamma = math.exp(-8.0)
        gm = np.full((3, 3), gamma)
        np.fill_diagonal(gm, 1.0)
        cat = CatSpec(probs=(1 / 3, 1 / 3, 1 / 3), gamma=gm)
        assert mi_exact_general(cat, 0.2) == pytest.approx(
            mi_mway(gamma, 0.2, 3), abs=1e-10
        )

    def test_lone_branch_has_no_story_to_tell(self):
        gm = np.array([[1.0, 0.1], [0.1, 1.0]])
        cat = CatSpec(probs=(1.0, 0.0), gamma=gm)
        assert mi_exact_general(cat, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_needs_a_factor_matrix(self):
        with pytest.raises(TypeError, match="gamma"):
            CatSpec(probs=(0.5, 0.5))

    def test_fragment_fraction_validated(self):
        gm = np.array([[1.0, 0.1], [0.1, 1.0]])
        cat = CatSpec(probs=(0.5, 0.5), gamma=gm)
        for bad in (1.5, -0.25, math.nan):
            with pytest.raises(ValueError) as info:
                mi_exact_general(cat, bad)
            assert str(info.value) == f"f must be in [0, 1], got {bad}"

    def test_inconsistent_overlaps_are_caught(self):
        # Overlap magnitudes with no realizable set of states: two strong
        # overlaps forbid the third one being tiny.
        tiny = math.exp(-8.0)
        gm = np.array([[1.0, 0.99, tiny],
                       [0.99, 1.0, 0.99],
                       [tiny, 0.99, 1.0]])
        cat = CatSpec(probs=(1 / 3, 1 / 3, 1 / 3), gamma=gm)
        with pytest.raises(ArithmeticError):
            mi_exact_general(cat, 0.3)


class TestOracleBattery:
    def test_everything_passes(self):
        report = oracle_battery(seed=0)
        assert report["all_passed"] is True
        assert report["seed"] == 0
        assert len(report["checks"]) == 18
        names = [c["name"] for c in report["checks"]]
        assert len(set(names)) == len(names)
        assert all(c["passed"] for c in report["checks"])

    def test_reseeding_does_not_break_it(self):
        report = oracle_battery(seed=1234)
        assert report["all_passed"] is True

    def test_report_is_json_serializable(self):
        json.dumps(oracle_battery(seed=0))
