"""Cascade, refinement identities, superoperator spectra, adaptive families."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverg import (DesignParams, FilterPair, FirFilter, Harmonic,
                    NormalizationFailure, NotDivisible, NoUnitEigenvalue, UnstableFilter,
                    adaptive_family, cascade,
                    descendant_spectrum, design_pair, discretize_smeared,
                    inner_product, massless_relation_error,
                    refinement_residual, scaling_function, superoperator_check,
                    superoperator_spectrum, wavelet_function)
from waverg.continuum import (_CASCADES, SampledFunction, _integer_samples,
                              _unit_eigenvector, dual_wavelet_pairing,
                              refine_with, translate_gram)
from waverg.design import _SPECTRA, stability_spectrum
from waverg.filters import HAAR_SCALING, transfer_block

ROOT2 = np.sqrt(2.0)


# -- SampledFunction basics ------------------------------------------------

def test_sampled_function_grid_and_lookup():
    f = SampledFunction(2, 0.0, np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
    assert f.spacing == 0.25
    assert f.support == (0.0, 1.0)
    assert f.at(0.5) == 2.0
    assert f.at(3.0) == 0.0  # outside support
    with pytest.raises(ValueError):
        f.at(0.3)  # off-grid point
    assert f(0.375) == pytest.approx(1.5)  # linear interpolation


def test_dilate_and_shift_algebra():
    f = SampledFunction(3, 0.5, np.arange(5, dtype=float))
    g = f.dilate(1)
    assert g.level == 2
    assert g.x0 == 1.0
    # 2^{-1/2} f(x/2) at x = 2 x0 equals 2^{-1/2} f(x0)
    assert g.at(1.0) == pytest.approx(f.at(0.5) / ROOT2)
    s = f.shift(3)
    assert s.at(3.5) == f.at(0.5)


def test_fourier_of_indicator():
    # Haar scaling function: phi = 1 on [0, 1); hat(k) = (1 - e^{-ik}) / (ik)
    phi = cascade(HAAR_SCALING, 10)
    k = np.array([0.5, 1.0, 2.0])
    want = (1.0 - np.exp(-1j * k)) / (1j * k)
    got = phi.fourier(k)
    np.testing.assert_allclose(got, want, atol=2e-3)  # Riemann-sum accuracy


def test_fourier_matches_explicit_riemann_sum(pair_k2l4):
    psi = wavelet_function(pair_k2l4, "h", 10)
    k = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 257)
    x = psi.grid()
    want = psi.spacing * np.array([np.sum(psi.values * np.exp(-1j * kk * x))
                                   for kk in k])
    assert np.max(np.abs(psi.fourier(k) - want)) < 1e-11
    assert isinstance(psi.fourier(k[100]), complex)
    assert abs(psi.fourier(k[100]) - want[100]) < 1e-11


def test_inner_product_resamples_levels():
    # hat function on [0, 1] at two different grid levels; int hat^2 = 1/3
    xf = np.arange(9) / 8.0
    xg = np.arange(5) / 4.0
    f = SampledFunction(3, 0.0, 1.0 - 2.0 * np.abs(xf - 0.5))
    g = SampledFunction(2, 0.0, 1.0 - 2.0 * np.abs(xg - 0.5))
    assert inner_product(f, g) == pytest.approx(1.0 / 3.0, abs=0.02)
    assert inner_product(f, g.shift(5)) == 0.0  # disjoint supports


# -- cascade ---------------------------------------------------------------

def test_haar_cascade_is_indicator():
    phi = cascade(HAAR_SCALING, 6)
    x = phi.grid()
    want = np.where(x < 1.0, 1.0, 0.0) * np.where(x >= 0.0, 1.0, 0.0)
    # endpoint convention aside, the interior matches the indicator exactly
    np.testing.assert_allclose(phi.values[:-1], want[:-1], atol=1e-12)
    assert refinement_residual(phi, HAAR_SCALING) < 1e-12


@pytest.mark.parametrize("taps", [HAAR_SCALING.coeffs * 1.1, [np.nan, 1.0]])
def test_cascade_requires_root2_normalization(taps):
    # a_s(0) = NaN is refused too, not read as "within 1e-9 of sqrt(2)"
    with pytest.raises(NormalizationFailure, match=r"a_s\(0\) = sqrt\(2\)"):
        cascade(FirFilter(0, np.asarray(taps)), 4)


def test_cascade_rejects_unstable_filter():
    # sqrt2 (1+z)/2 ((1+t) - t z) with t = 2: transfer radius 13
    t = 2.0
    taps = 0.5 * np.convolve([1.0, 1.0], [1.0 + t, -t]) * ROOT2
    with pytest.raises(UnstableFilter):
        cascade(FirFilter(0, taps), 4)


def test_cascade_no_unit_eigenvalue():
    # a(0) = sqrt2, a(pi) = 0, but taps at even positions only: the integer
    # refinement matrix is nilpotent-like with no unit eigenvalue
    taps = np.array([0.5, 0.0, 0.5]) * ROOT2
    f = FirFilter(0, taps)
    with pytest.raises((NoUnitEigenvalue, UnstableFilter)):
        cascade(f, 4)


def test_designed_cascade_refinement_residual(pair_k2l4):
    phi = scaling_function(pair_k2l4, "g", 8)
    assert refinement_residual(phi, pair_k2l4.g_s) < 1e-12


def _refinement_residual_loop(phi, a_s):
    """refinement_residual as a loop of exact grid lookups, one per tap."""
    x = phi.grid()
    acc = np.zeros_like(x)
    for n in a_s.indices():
        acc += a_s[int(n)] * phi.at(2.0 * x - n)
    return float(np.max(np.abs(phi.values - ROOT2 * acc)))


@pytest.mark.parametrize("J", [0, 1, 6, 8])
def test_refinement_residual_bit_identical_to_lookup_loop(J, designs, haar):
    # phi as cascaded, and the same samples shifted by 2^-J: for J >= 1 the
    # shifted x0 is an odd multiple of 2^-J, off the integers
    for pair in [p for p, _ in designs.values()] + [haar]:
        for a_s in (pair.g_s, pair.h_s):
            phi = cascade(a_s, J)
            shifted = SampledFunction(J, phi.x0 + 0.5 ** J, phi.values)
            for f in (phi, shifted):
                assert refinement_residual(f, a_s) \
                    == _refinement_residual_loop(f, a_s)


def test_partition_of_unity(pair_k2l4):
    # a(0) = sqrt2 implies sum_n phi(x - n) = 1
    phi = scaling_function(pair_k2l4, "h", 6)
    x = 0.25 + np.arange(1) * 0.0
    lo, hi = phi.support
    total = sum(phi.at(0.25 + n) for n in range(int(np.floor(lo)) - 1,
                                                int(np.ceil(hi)) + 2))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_refine_with_gains_one_level(pair_k2l4):
    phi = scaling_function(pair_k2l4, "g", 5)
    psi = refine_with(phi, pair_k2l4.g_w)
    assert psi.level == 6


def _refine_once(values, taps, tap_offset, x0, level):
    """The cascade sweep as it was before it became refine_with."""
    step = 1 << level
    shift0 = (x0 - tap_offset) * step
    npts = 2 * (values.size - 1) + 1
    out = np.zeros(npts)
    out[0::2] = values
    idx = np.arange(1, npts, 2)
    acc = np.zeros(idx.size)
    for t in range(taps.size):
        src = idx + shift0 - t * step
        ok = (src >= 0) & (src < values.size)
        acc[ok] += taps[t] * values[src[ok]]
    out[1::2] = np.sqrt(2.0) * acc
    return out


def _refine_with_at_loop(f, taps):
    """refine_with as a loop of exact grid lookups, one per tap."""
    n0, n1 = taps.support
    lo = (f.x0 + n0) / 2.0
    hi = (f.support[1] + n1) / 2.0
    level = f.level + 1
    npts = int(np.rint((hi - lo) * 2 ** level)) + 1
    x = lo + np.arange(npts) * 0.5 ** level
    acc = np.zeros(npts)
    for n in taps.indices():
        acc += taps[int(n)] * f.at(2.0 * x - n)
    return SampledFunction(level, lo, ROOT2 * acc)


@pytest.fixture(scope="module")
def pair_m08_k2l3():
    return design_pair(Harmonic(0.8), DesignParams(2, 3))[0]


@pytest.mark.parametrize("which", ["k2l4", "m08_k2l3", "haar", "k2l4_odd"])
@pytest.mark.parametrize("channel", ["g_s", "h_s"])
def test_cascade_bit_identical_to_refine_once(which, channel, pair_k2l4,
                                              pair_m08_k2l3, haar):
    pair = {"m08_k2l3": pair_m08_k2l3, "haar": haar}.get(which, pair_k2l4)
    a_s = getattr(pair, channel)
    if which == "k2l4_odd":
        a_s = a_s.shift(1)  # the other parity of the offset
    J = 12
    phi = cascade(a_s, J)
    x0, values = _integer_samples(a_s)
    for level in range(J):
        values = _refine_once(values, a_s.coeffs, a_s.offset, x0, level)
    assert (phi.level, phi.x0) == (J, float(x0))
    assert np.array_equal(phi.values, values)


@pytest.mark.parametrize("shift", [0, 3, -5])
def test_refine_with_bit_identical_to_lookup_loop(pair_k2l4, shift):
    phi = scaling_function(pair_k2l4, "h", 5).shift(shift)
    for taps in (pair_k2l4.h_w, pair_k2l4.g_s, HAAR_SCALING):
        got, want = refine_with(phi, taps), _refine_with_at_loop(phi, taps)
        assert (got.level, got.x0) == (want.level, want.x0)
        assert np.array_equal(got.values, want.values)


def test_cascade_forms_no_zero_stuffed_filter(monkeypatch, pair_k2l4):
    def refuse(self, factor):
        raise AssertionError("zero-stuffed filter in the cascade")

    monkeypatch.setattr(FirFilter, "upsample", refuse)
    for channel in "gh":
        assert cascade(pair_k2l4.channel(channel)[0], 8).level == 8
        assert wavelet_function(pair_k2l4, channel, 8).level == 8


# -- one cascade per filter ---------------------------------------------------

def _copy(pair):
    """The same taps in new filter objects, which nothing has cascaded."""
    return FilterPair(*(FirFilter(f.offset, f.coeffs) for f in (pair.g_s,
                                                                  pair.h_s)))


def _bitwise_equal(f, g):
    return ((f.level, f.x0) == (g.level, g.x0)
            and np.array_equal(f.values, g.values)
            and np.array_equal(np.signbit(f.values), np.signbit(g.values)))


@pytest.fixture(scope="module")
def cascading_pairs(designs, pair_m08_k2l3, haar):
    """The 12 massless designs, massive designs that cascade, and Haar."""
    massive = [design_pair(Harmonic(m), DesignParams(K, L))[0]
               for m, K, L in ((0.5, 2, 4), (0.9, 1, 3))]
    return [p for p, _ in designs.values()] + massive + [pair_m08_k2l3, haar]


READERS = {"cascade": lambda pair, ch, J: cascade(pair.channel(ch)[0], J),
           "scaling": scaling_function, "wavelet": wavelet_function}


@given(index=st.integers(0, 15), channel=st.sampled_from("gh"),
       depths=st.lists(st.integers(1, 10), min_size=1, max_size=4),
       wavelet_first=st.booleans())
@settings(max_examples=60, deadline=None)
def test_kept_cascade_reads_equal_cold_runs(cascading_pairs, index, channel,
                                            depths, wavelet_first):
    # each J lies at, below or above the level kept by the reads before it
    pair = _copy(cascading_pairs[index])
    order = ["wavelet", "scaling", "cascade"] if wavelet_first \
        else ["cascade", "scaling", "wavelet"]
    for J in depths:
        for name in order:
            kept = READERS[name](pair, channel, J)
            cold = READERS[name](_copy(pair), channel, J)
            assert _bitwise_equal(kept, cold), (name, J)


@pytest.mark.parametrize("pair_or_filter", ["massive", "unstable"])
def test_cascade_refusal_repeats_exactly(pair_or_filter):
    if pair_or_filter == "massive":  # g_s(0) misses sqrt(2) by 4e-6
        pair = design_pair(Harmonic(0.3), DesignParams(2, 2))[0]
    else:  # transfer radius 13, as in test_cascade_rejects_unstable_filter
        taps = 0.5 * np.convolve([1.0, 1.0], [3.0, -2.0]) * ROOT2
        pair = FilterPair(FirFilter(0, taps), HAAR_SCALING)
    seen = []
    for function in (wavelet_function, scaling_function, wavelet_function):
        with pytest.raises((NormalizationFailure, UnstableFilter)) as err:
            function(pair, "g", 8)
        seen.append((type(err.value), str(err.value)))
    assert seen[0] == seen[1] == seen[2]
    assert pair.g_s not in _CASCADES


def test_memos_hold_filters_weakly():
    gc.collect()
    before = len(_CASCADES), len(_SPECTRA)
    pair, report = design_pair(Harmonic(0.0), DesignParams(2, 2))
    for channel in "gh":
        scaling_function(pair, channel, 8)
        wavelet_function(pair, channel, 8)
    assert (len(_CASCADES), len(_SPECTRA)) == (before[0] + 2, before[1] + 2)
    del pair, report
    gc.collect()
    assert (len(_CASCADES), len(_SPECTRA)) == before


def test_kept_arrays_are_read_only(pair_k2l4):
    phi = cascade(pair_k2l4.g_s, 6)
    for f in (phi, scaling_function(pair_k2l4, "g", 4),
              wavelet_function(pair_k2l4, "g", 6)):
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        stability_spectrum(pair_k2l4.g_s)[0] = 0.0
    # the caller's own array stays writable
    own = np.zeros(3)
    SampledFunction(0, 0.0, own)
    own[0] = 1.0


def test_public_cascade_is_contiguous(pair_k2l4):
    a_s = _copy(pair_k2l4).g_s
    cascade(a_s, 9)
    assert cascade(a_s, 5).values.flags.c_contiguous


def test_cascade_refuses_a_negative_depth(pair_k2l4):
    with pytest.raises(ValueError, match="cascade depth J must be >= 0"):
        cascade(pair_k2l4.g_s, -1)
    with pytest.raises(ValueError, match="cascade depth J must be >= 0"):
        wavelet_function(pair_k2l4, "h", 0)


@pytest.mark.parametrize("function", [scaling_function, wavelet_function])
@pytest.mark.parametrize("channel", ["x", "G", ""])
def test_unknown_channel_is_refused(function, channel, pair_k2l4):
    with pytest.raises(ValueError, match="channel must be 'g' or 'h'"):
        function(pair_k2l4, channel, 6)


def test_scaling_functions_biorthogonal(pair_k2l4):
    J = 10
    g = scaling_function(pair_k2l4, "g", J)
    h = scaling_function(pair_k2l4, "h", J)
    for n in range(-3, 4):
        want = 1.0 if n == 0 else 0.0
        assert inner_product(g, h.shift(n)) == pytest.approx(want, abs=5e-7)


# -- superoperator ---------------------------------------------------------

def test_superoperator_residuals(pair_k2l4):
    res_phi, res_pi = superoperator_check(pair_k2l4, J=10)
    assert res_phi < 1e-10
    assert res_pi < 1e-10


def _superoperator_check_loop(pair, x_samples=(0.0, 0.25, 0.5), J=12):
    """superoperator_check as a loop over samples and translates, with one
    grid lookup per tap."""
    phi_h = cascade(pair.h_s, J)
    phi_g = cascade(pair.g_s, J)
    S = pair.support_length()
    res = [0.0, 0.0]
    for x in x_samples:
        for i, (phi, taps, weight, target_scale) in enumerate((
                (phi_h, pair.h_s, ROOT2, 1.0),
                (phi_g, pair.g_s, 1.0 / ROOT2, 0.5))):
            for m in range(-3 * S, 3 * S + 1):
                u = weight * np.dot(taps.coeffs,
                                    phi.at(x - 2 * m - taps.indices()))
                want = target_scale * phi.at(x / 2.0 - m)
                res[i] = max(res[i], abs(u - want))
    return tuple(res)


def test_superoperator_check_matches_lookup_loop(designs):
    for pair, _ in designs.values():
        got = superoperator_check(pair, J=8)
        want = _superoperator_check_loop(pair, J=8)
        assert np.max(np.abs(np.subtract(got, want))) <= 2.2e-16


def test_superoperator_check_refuses_off_grid_samples(pair_k2l4):
    with pytest.raises(ValueError, match="off the dyadic sampling grid"):
        superoperator_check(pair_k2l4, x_samples=(0.3,), J=6)
    assert superoperator_check(pair_k2l4, x_samples=(), J=6) == (0.0, 0.0)


def test_superoperator_spectrum_contains_dimensions(designs):
    for (K, L), (pair, _) in designs.items():
        ephi, epi = superoperator_spectrum(pair)
        assert np.min(np.abs(ephi - 1.0)) < 1e-8
        assert np.min(np.abs(epi - 0.5)) < 1e-8


def test_descendant_spectrum_k2(pair_k2l4):
    eigs = descendant_spectrum(pair_k2l4, 2)
    for want in (1.0, 0.5, 0.25):
        assert np.min(np.abs(eigs - want)) < 1e-8


@pytest.mark.parametrize("shift", [0, 7, 10, -9])
def test_spectra_refuse_a_support_outside_the_window(shift, pair_k2l4):
    # taps on [a, b] ascend eigenvectors on [-b, -a]; the K2/L4 pair sits on
    # [-9, 10], so half = 10 holds it only unshifted
    pair = FilterPair(pair_k2l4.g_s.shift(shift), pair_k2l4.h_s.shift(shift))
    a, b = pair.h_s.support
    if shift == 0:
        superoperator_spectrum(pair, half=10)
        descendant_spectrum(pair, 2, half=10)
        return
    window = r"does not fit the spectrum window \[-10, 10\]"
    with pytest.raises(ValueError, match=rf"\[{a}, {b}\] {window}"):
        superoperator_spectrum(pair, half=10)
    with pytest.raises(ValueError, match=window):
        descendant_spectrum(pair, 2, half=10)


def test_descendant_not_divisible(pair_k2l4, haar):
    with pytest.raises(NotDivisible):
        descendant_spectrum(pair_k2l4, 5)  # more moments than the filter has
    with pytest.raises(NotDivisible):
        descendant_spectrum(haar, 0)


def test_descendant_refuses_before_any_eigen_solve(monkeypatch, pair_k2l4):
    def refuse(T):
        raise AssertionError("eigen-solve before the divisibility check")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with pytest.raises(NotDivisible):
        descendant_spectrum(pair_k2l4, 5)


def test_descendant_divides_once_per_order(monkeypatch, pair_k2l4):
    calls = []
    polydiv = np.polydiv

    def count(u, v):
        calls.append(len(u))
        return polydiv(u, v)

    monkeypatch.setattr(np, "polydiv", count)
    descendant_spectrum(pair_k2l4, 2)
    assert len(calls) == 2


# -- every transfer operator is filters.transfer_block ----------------------

def index_ascent(taps, weight, half):
    """weight * taps[n - 2m] on [-half, half] by index arithmetic."""
    idx = np.arange(-half, half + 1)
    return weight * taps[idx - 2 * idx[:, None]]


def divided_from_scratch(a, l):
    """a(k) / (1 + e^{ik})^l by l divisions of the original taps."""
    coeffs = a.coeffs.copy()
    for _ in range(l):
        coeffs = np.polydiv(coeffs, np.array([1.0, 1.0]))[0]
    return FirFilter(a.offset + l, coeffs)


@pytest.fixture(scope="module")
def transfer_pairs(designs, pair_m08_k2l3, haar):
    """(pair, K) for the massless grid, a massive design, Haar and a
    K2/L4 pair shifted to the other offset parity."""
    pair_k2l4 = designs[(2, 4)][0]
    odd = FilterPair(pair_k2l4.g_s.shift(1), pair_k2l4.h_s.shift(1))
    return ([(pair, K) for (K, _), (pair, _) in designs.items()]
            + [(pair_m08_k2l3, 2), (haar, 1), (odd, 2)])


def test_transfer_block_is_the_index_rule():
    taps = FirFilter(-2, [0.5, -1.0, 3.0, 0.25])
    T = transfer_block(taps, 2.0, (-3, 4))
    for i, n in enumerate(range(-3, 5)):
        for j, m in enumerate(range(-3, 5)):
            assert T[i, j] == 2.0 * taps[2 * n - m]
    assert np.array_equal(transfer_block(taps.reflect(), 2.0, (-3, 4)),
                          index_ascent(taps, 2.0, 4)[1:, 1:])


def test_integer_samples_bit_identical_to_index_arithmetic(transfer_pairs):
    for pair, _ in transfer_pairs:
        for a_s in (pair.g_s, pair.h_s):
            n0, n1 = a_s.support
            pts = np.arange(n0, n1 + 1)
            want = _unit_eigenvector(ROOT2 * a_s[2 * pts[:, None] - pts],
                                     1e-8, "integer refinement matrix")
            x0, got = _integer_samples(a_s)
            assert x0 == n0
            assert np.array_equal(got, want)


def test_spectra_bit_identical_to_index_arithmetic(transfer_pairs):
    for pair, K in transfer_pairs:
        half = 2 * pair.support_length()
        ephi, epi = superoperator_spectrum(pair)
        assert np.array_equal(ephi, np.linalg.eigvals(
            index_ascent(pair.h_s, ROOT2, half)))
        assert np.array_equal(epi, np.linalg.eigvals(
            index_ascent(pair.g_s, 1.0 / ROOT2, half)))
        want = []
        for l in range(K + 1):
            eigs = np.linalg.eigvals(index_ascent(
                divided_from_scratch(pair.h_s, l), ROOT2 * 0.5 ** l, half))
            want.extend(float(e.real) for e in eigs if abs(e.imag) <= 1e-8)
        assert np.array_equal(descendant_spectrum(pair, K),
                              np.sort(np.array(want))[::-1])


def test_translate_gram_bit_identical_to_index_arithmetic(transfer_pairs):
    for pair, _ in transfer_pairs:
        corr = pair.g_s.correlate(pair.h_s)
        half = max(abs(corr.support[0]), abs(corr.support[1])) + 1
        want = FirFilter(-half, _unit_eigenvector(
            index_ascent(corr, 1.0, half), 1e-6, "translate cross-Gram"))
        got = translate_gram(pair)
        assert got.offset == want.offset
        assert np.array_equal(got.coeffs, want.coeffs)


# -- exact dual pairings ---------------------------------------------------

def test_translate_gram_is_near_delta(pair_k2l4):
    gram = translate_gram(pair_k2l4)
    total = 0.0
    worst = 0.0
    for d in range(gram.support[0], gram.support[1] + 1):
        total += gram[d]
        want = 1.0 if d == 0 else 0.0
        worst = max(worst, abs(gram[d] - want))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert worst < 1e-10


def test_dual_pairing_matches_quadrature(pair_k2l4):
    # the transfer-matrix pairing is exact; for the smooth K=2/L=4 wavelets
    # the sampled-function quadrature is itself accurate to ~1e-6, so the two
    # independent routes must agree there
    J = 10
    gram = translate_gram(pair_k2l4)
    g = wavelet_function(pair_k2l4, "g", J)
    h = wavelet_function(pair_k2l4, "h", J)
    for lp, m in ((0, 0), (0, 1), (1, 0), (1, -2)):
        exact = dual_wavelet_pairing(pair_k2l4, 0, 0, lp, m, gram)
        quad = inner_product(g, h.dilate(lp).shift(
            m * 2 ** lp) if lp else h.shift(m))
        assert exact == pytest.approx(quad, abs=5e-6)


def test_dual_pairing_biorthogonality_rough_filters(pair_k2l1):
    # K=2/L=1 wavelets are too rough for quadrature but the transfer-matrix
    # values still reproduce the biorthogonality relations exactly
    gram = translate_gram(pair_k2l1)
    for l in (0, 1, 2):
        for n in (-2, 0, 3):
            val = dual_wavelet_pairing(pair_k2l1, l, n, l, n, gram)
            assert val == pytest.approx(1.0, abs=1e-10)
    assert abs(dual_wavelet_pairing(pair_k2l1, 0, 0, 1, 0, gram)) < 1e-10
    assert abs(dual_wavelet_pairing(pair_k2l1, 2, 1, 0, 3, gram)) < 1e-10


# -- massless relation -----------------------------------------------------

def test_massless_relation_improves_with_degree(pair_k2l1, pair_k2l4):
    e1 = massless_relation_error(pair_k2l1, J=10)
    e4 = massless_relation_error(pair_k2l4, J=10)
    assert e4 < e1
    assert e4 < 0.02


def test_massless_relation_error_forms_no_phase_matrix(pair_k2l4):
    massless_relation_error(pair_k2l4, J=10)  # warm caches
    tracemalloc.start()
    try:
        massless_relation_error(pair_k2l4, J=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 257 x 19457 complex phase matrix per wavelet peaked at 153 MB
    assert peak < 8 * 2 ** 20


# -- adaptive family -------------------------------------------------------

def test_adaptive_family_massive(massive_stack):
    fam = adaptive_family(massive_stack, J_prod=3, J=10)
    assert fam.depth == massive_stack.depth
    assert max(fam.dual_residuals) < 1e-5
    phi = fam.phi(0, "g")
    psi = fam.psi(0, "h")
    assert phi.level == 10 and psi.level == 10


def test_adaptive_family_reduces_to_cascade(massless, pair_k2l4):
    # on the massless fixed point every level uses the same filters
    from waverg import DesignParams, build_stack
    stack = build_stack(massless, DesignParams(2, 2), 3)
    fam = adaptive_family(stack, J_prod=2, J=9)
    phi_direct = scaling_function(stack.pairs[0], "g", 9)
    phi_adapt = fam.phi(0, "g")
    x = phi_direct.grid()
    np.testing.assert_allclose(phi_adapt.at(x), phi_direct.values, atol=1e-9)


# -- field discretization --------------------------------------------------

def test_discretize_smeared_recovers_dual_coefficients(pair_k2l4):
    J = 9
    g = scaling_function(pair_k2l4, "g", J)
    h = scaling_function(pair_k2l4, "h", J)
    ns, coeffs = discretize_smeared(g, h, level=0)
    got = dict(zip(ns.tolist(), coeffs))
    for n, c in got.items():
        want = 1.0 if n == 0 else 0.0
        assert c == pytest.approx(want, abs=1e-5)
