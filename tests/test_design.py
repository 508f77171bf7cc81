"""Filter-pair design: all-pass phase, rational fit, half-band, factorization."""

import numpy as np
import pytest

from waverg import (DesignParams, Harmonic, NonFiniteFilter, NoSolution,
                    NotAdmissible, NotNonnegative, WavergError, design_pair, epsilon_of,
                    flow, halfband_solve, kgrid, rational_approx_fit,
                    rational_approx_massless, spectral_factorize,
                    stability_spectrum, thiran_allpass)
from waverg.design import allpass_phase_error
from waverg.filters import HAAR_SCALING, FirFilter

ROOT2 = np.sqrt(2.0)


def test_thiran_phase_property():
    # e^{-iLk} d(-k)/d(k) approximates the half-sample delay e^{-ik/2}
    errs = [allpass_phase_error(thiran_allpass(L), L, kmax=0.5 * np.pi)
            for L in (1, 2, 3, 4)]
    assert errs[0] < 0.2
    for a, b in zip(errs, errs[1:]):
        assert b < a  # maximal flatness improves with degree
    assert errs[3] < 1e-3


def test_thiran_l1_closed_form():
    # L = 1, D = 1/2: Thiran closed form gives d = [1, 1/3]
    d = thiran_allpass(1)
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_rational_approx_massless_properties(L):
    a, b = rational_approx_massless(L)
    assert a.is_symmetric(1e-9) and b.is_symmetric(1e-9)
    assert a.support == (-L, L) and b.support == (-L, L)
    k = np.linspace(-np.pi / 2, np.pi / 2, 201)
    ratio = np.real(a(k)) / np.real(b(k))
    # low-frequency accuracy improves with the all-pass degree
    assert np.max(np.abs(ratio - np.cos(k / 2.0))) < 0.15 / 5.0 ** (L - 1)


def test_rational_approx_fit_matches_target_near_zero():
    d = Harmonic(0.5)
    a, b = rational_approx_fit(d, 2)
    k = np.linspace(-0.5, 0.5, 101)
    target = np.asarray(d(k + np.pi)) / d.omega_pi
    ratio = np.real(a(k)) / np.real(b(k))
    assert np.max(np.abs(ratio - target)) < 1e-3


def test_halfband_solve_pipeline_product():
    # the product s = a b (2 + 2 cos k)^K the pipeline factorizes
    from waverg.design import _binom_factor
    a, b = rational_approx_massless(1)
    binom = _binom_factor(1)
    s = a.convolve(b).convolve(binom.convolve(binom.reflect()))
    s = s.scale(1.0 / np.max(np.abs(s.coeffs)))
    r = halfband_solve(s)
    p = s.convolve(r)
    lo, hi = p.support
    for m in range(lo, hi + 1):
        if m % 2 == 0:
            assert p[m] == pytest.approx(1.0 if m == 0 else 0.0, abs=1e-9)


def test_halfband_solve_requires_symmetry():
    with pytest.raises(ValueError):
        halfband_solve(FirFilter(0, np.array([1.0, 2.0])))


def test_spectral_factorize_recovers_modulus():
    f0 = FirFilter(0, np.array([1.0, 0.7, -0.2]))
    r = f0.correlate(f0)  # r(k) = |f0(k)|^2 >= 0
    f = spectral_factorize(r)
    k = kgrid(512)
    np.testing.assert_allclose(np.abs(f(k)), np.abs(f0(k)), atol=1e-8)


def test_spectral_factorize_rejects_negative():
    # r(k) = cos k dips below zero
    r = FirFilter(-1, np.array([0.5, 0.0, 0.5]))
    with pytest.raises(NotNonnegative) as exc:
        spectral_factorize(r)
    assert exc.value.min_value < -0.9
    assert "at_k" in exc.value.payload()


def test_stability_spectrum_haar():
    eigs = stability_spectrum(HAAR_SCALING)
    assert np.max(np.abs(eigs)) < 2.0
    assert np.min(np.abs(eigs - 1.0)) < 1e-8


def test_stability_requires_vanishing_moment():
    with pytest.raises(NotAdmissible):
        stability_spectrum(FirFilter.delta(0, ROOT2))


def test_design_k2l4_frozen_quality(designs):
    pair, report = designs[(2, 4)]
    assert report.epsilon == pytest.approx(0.00839747811726437, rel=1e-6)
    assert pair.support_length() == 2 * (2 + 2 * 4)
    assert report.pr_residual < 1e-10
    assert report.positivity_min > 0
    assert report.stable


def test_design_normalization_sqrt2(designs):
    for (K, L), (pair, report) in designs.items():
        assert report.g0 == pytest.approx(ROOT2, abs=1e-9)
        assert report.h0 == pytest.approx(ROOT2, abs=1e-9)
        assert report.g0 * report.h0 == pytest.approx(2.0, abs=1e-12)


def test_design_epsilon_independent_recomputation(designs, massless):
    # epsilon_of against a direct grid evaluation of the defining expression
    pair, report = designs[(2, 2)]
    k = kgrid(4096)
    direct = np.max(np.abs(pair.g_w(k)
                           - np.abs(np.sin(k / 2.0)) * pair.h_w(k)))
    assert epsilon_of(pair, massless) == pytest.approx(direct, rel=1e-12)
    assert report.epsilon == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("d", [Harmonic(0.0), Harmonic(0.5)])
@pytest.mark.parametrize("grid_size", [1024, 8192])
def test_design_epsilon_is_measured_on_one_grid(d, grid_size):
    # the report's epsilon is the one the CLI prints, whatever grid_size
    pair, report = design_pair(d, DesignParams(2, 2, grid_size=grid_size))
    assert report.epsilon == epsilon_of(pair, d)


def test_design_massive_level_failure_is_diagnosed():
    # deep renormalized massive levels are nearly flat; at this degree the
    # factorization target goes negative and must fail loudly
    level2 = flow(Harmonic(0.5), 4)[2]
    with pytest.raises((NotNonnegative, NoSolution)) as exc:
        design_pair(level2, DesignParams(2, 3))
    assert isinstance(exc.value, WavergError)
    assert exc.value.payload()["error"] in ("NotNonnegative", "NoSolution")


def test_design_params_validation():
    with pytest.raises(ValueError):
        DesignParams(0, 1)
    with pytest.raises(ValueError):
        DesignParams(1, 0)
    # the massless-shape check samples grid_size // 4 points
    with pytest.raises(ValueError, match="grid_size must be >= 4, got 3"):
        DesignParams(1, 1, grid_size=3)
    assert DesignParams(2, 4).M == 10


@pytest.mark.parametrize("m, K, L, stage", [
    (0.0, 515, 1, "moment factor (2 + 2 cos k)^515"),
    (0.0, 100000, 1, "moment factor (2 + 2 cos k)^100000"),
    (0.0, 514, 1, "half-band target s"),
    (0.0, 513, 200, "half-band target s"),
    (0.5, 514, 1, "half-band system of s"),
    (0.0, 1, 262, "rational approximation a/b of degree 262"),
    (0.0, 1, 261, "rational approximation a/b of degree 261"),  # a(0)
])
def test_design_past_the_double_range_names_its_stage(m, K, L, stage):
    # refused before the half-band lstsq, which printed LAPACK messages on
    # a non-finite system; tier-1 turns any numpy RuntimeWarning into an error
    with pytest.raises(NonFiniteFilter) as exc:
        design_pair(Harmonic(m), DesignParams(K, L))
    assert exc.value.stage == stage
    assert exc.value.payload()["stage"] == stage


def test_halfband_solve_refuses_non_finite_target():
    with pytest.raises(NonFiniteFilter, match="half-band target s"):
        halfband_solve(FirFilter(-1, [1.0, np.inf, 1.0]))
