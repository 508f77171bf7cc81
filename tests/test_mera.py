"""Layer stacks, exact/MERA covariances, regulated oracles, error bounds."""

import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waverg.mera
from waverg import (DesignParams, FilterPair, FirFilter, Flat,
                    GaplessUnregulated, Harmonic, LayerStack,
                    NonFiniteFilter, NormalizationFailure, NotNonnegative, OutOfHypothesis,
                    build_stack, epsilon_of, error_report, exact_covariance,
                    exact_p_profile, exact_q_profile, flow, haar_pair,
                    mass_flow, mera_covariance, multi_layer_map,
                    q_difference_norm, ring_covariance,
                    stack_amplitude_bound, stack_operator_bound,
                    Tabulated, theorem_bound, wavelet_channel_deviation)
from waverg.design import layer_epsilons
from waverg.errors import LatticeTooSmall
from waverg.filters import (HAAR_SCALING, decomposition_map, kgrid,
                            level_walk, placed_gram_rows)

import oracle_reference
from stack_references import pr_stacks, reference_chain


# -- stacks ----------------------------------------------------------------

def test_build_stack_massless_squeezes(designs, massless):
    stack = build_stack(massless, DesignParams(2, 4), 4)
    assert stack.depth == 4
    assert stack.squeezes[0] == pytest.approx(1.0, abs=1e-12)
    for s in stack.squeezes[1:]:
        assert s == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # massless shape is a flow fixed point: every layer gets the same
    # design, and holds the first layer's pair object
    assert all(pair is stack.pairs[0] for pair in stack.pairs)


@pytest.mark.parametrize("m", [0.0, 0.3])
def test_build_stack_with_pair_serves_every_layer(m, pair_k2l4):
    # simulate's stack: one pair, squeezes and epsilons of the flow levels
    d = Harmonic(m)
    stack = build_stack(d, pair_k2l4, 5)
    levels = flow(d, 4)
    assert all(p is pair_k2l4 for p in stack.pairs)
    assert stack.squeezes == tuple(float(np.sqrt(dl.omega_pi))
                                   for dl in levels)
    assert stack.epsilons == tuple(epsilon_of(pair_k2l4, dl)
                                   for dl in levels)
    assert stack.reports == ()


def test_stack_epsilons_evaluate_each_pair_once(monkeypatch, pair_k2l4,
                                               pair_k2l1):
    stack = LayerStack([pair_k2l4, pair_k2l1, pair_k2l4, pair_k2l4],
                       [1.0, 0.8, 0.7, 0.7], Harmonic(0.3))
    want = tuple(epsilon_of(p, dl) for p, dl in zip(stack.pairs, stack.levels))
    evaluated = []
    call = FirFilter.__call__

    def counting(self, k):
        evaluated.append(self)
        return call(self, k)

    monkeypatch.setattr(FirFilter, "__call__", counting)
    assert stack.epsilons == want
    # g_w and h_w of each of the two distinct pairs
    assert evaluated == [pair_k2l4.g_w, pair_k2l4.h_w,
                         pair_k2l1.g_w, pair_k2l1.h_w]


def test_designed_stack_epsilons_match_reports(massive_stack):
    # DesignParams' default grid is epsilon_of's grid
    assert massive_stack.epsilons == tuple(r.epsilon
                                           for r in massive_stack.reports)


def _refuse_epsilons(pairs, levels):
    raise AssertionError("layer epsilons measured again")


def test_designed_stack_seeds_epsilons_from_reports(monkeypatch):
    monkeypatch.setattr(waverg.mera, "layer_epsilons", _refuse_epsilons)
    stack = build_stack(Harmonic(0.5), DesignParams(2, 2), 3)
    assert stack.epsilons == tuple(r.epsilon for r in stack.reports)
    monkeypatch.undo()
    # the seeded values are the ones the stack would measure
    assert stack.epsilons == tuple(layer_epsilons(stack.pairs, stack.levels))


def test_pair_stack_measures_its_epsilons(monkeypatch, pair_k2l4):
    stack = build_stack(Harmonic(0.5), pair_k2l4, 3)
    monkeypatch.setattr(waverg.mera, "layer_epsilons", _refuse_epsilons)
    with pytest.raises(AssertionError, match="measured again"):
        stack.epsilons


@pytest.mark.parametrize("design", [(2, 2), None, "redesign"])
def test_build_stack_refuses_other_designs(design, massless):
    with pytest.raises(TypeError, match="DesignParams or FilterPair"):
        build_stack(massless, design, 3)


def test_build_stack_failure_records_layer():
    with pytest.raises(NotNonnegative) as exc:
        build_stack(Harmonic(0.5), DesignParams(2, 3), 5)
    assert exc.value.layer in (1, 2)
    assert exc.value.payload()["layer"] == exc.value.layer


def test_massive_stack_masses(massive_stack):
    fitted = massive_stack.fitted_masses()
    closed = mass_flow(0.5, 4)
    for f, c in zip(fitted, closed):
        assert f == pytest.approx(c, rel=1e-6)


# -- exact oracle ----------------------------------------------------------

def test_massless_p00_is_inv_pi(massless):
    vals, err = exact_p_profile(massless, np.array([0.0]))
    assert err < 1e-10  # Richardson certification
    assert vals[0] == pytest.approx(1.0 / np.pi, abs=1e-9)


def test_massless_p_profile_closed_form(massless):
    # (1/2pi) int |sin(k/2)| cos(k d) dk = -1 / (pi (4 d^2 - 1))
    d = np.arange(1025)
    vals, _ = exact_p_profile(massless, d)
    np.testing.assert_allclose(vals, -1.0 / (np.pi * (4.0 * d ** 2 - 1.0)),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("offsets", [[0.5], [1.0, 2.25], [np.nan], [np.inf]])
def test_profile_rejects_non_integer_offsets(massless, offsets):
    with pytest.raises(ValueError):
        exact_p_profile(massless, np.array(offsets))
    with pytest.raises(ValueError):
        exact_q_profile(massless, np.array(offsets))


def test_massive_q00_against_independent_quadrature():
    import mpmath as mp
    vals, err = exact_q_profile(Harmonic(1.0), np.array([0.0]),
                                regulated=False)
    oracle = mp.quad(lambda k: 1 / (2 * mp.sqrt(1 + mp.sin(k / 2) ** 2)),
                     [-mp.pi, 0, mp.pi]) / (2 * mp.pi)
    assert vals[0] == pytest.approx(float(oracle), abs=1e-12)
    assert err < 1e-10


def test_gapless_plain_q_raises(massless):
    with pytest.raises(GaplessUnregulated):
        exact_q_profile(massless, np.array([1.0]), regulated=False)
    with pytest.raises(GaplessUnregulated):
        exact_covariance(massless, 16, regulated=False)
    with pytest.raises(GaplessUnregulated):
        ring_covariance(massless, 16)


def test_regulated_q_massless_known_value(massless):
    # (1/2pi) int (cos k - 1)/(2 |sin(k/2)|) dk = -2/pi at offset 1
    vals, _ = exact_q_profile(massless, np.array([1.0]))
    assert vals[0] == pytest.approx(-2.0 / np.pi, abs=1e-6)


def test_regulated_q_certified_error_is_finite(massless):
    # the offset-0 term diverges, its differences converge: the quadrature's
    # certificate covers the differences, so it shrinks with its size
    offsets = np.array([1, 4, 16])
    _, err_small = waverg.mera._Quadrature(massless, 1 << 12).profile(
        waverg.mera._half_inverse, offsets, regulated=True)
    _, err = waverg.mera._Quadrature(massless, 1 << 16).profile(
        waverg.mera._half_inverse, offsets, regulated=True)
    assert err < 1e-7
    assert err < err_small


def test_q_difference_norm_massless_unit(massless):
    # (1 - cos k delta) / (2 sin^2(k/2)) is delta times the Fejer kernel, so
    # norm^2 = delta; the k = 0 sample of the integrand is its limit delta^2
    for delta in (1, 4, 16):
        assert q_difference_norm(massless, delta) == pytest.approx(
            np.sqrt(delta), abs=1e-12)
    with pytest.raises(ValueError):
        q_difference_norm(massless, 0)


@pytest.mark.parametrize("d", [Harmonic(0.0), Harmonic(0.3),
                               Tabulated(kgrid(4096),
                                         np.abs(np.sin(kgrid(4096) / 2)))])
def test_q_difference_norm_is_even_in_delta(d):
    # |n - m| is what matters: a gapless chain's g(0) delta / 2 term read a
    # negative delta as a norm of 0
    for delta in (1, 4, 16):
        assert q_difference_norm(d, -delta) == q_difference_norm(d, delta) > 0


@pytest.mark.parametrize("quad_points", [-4, 0, 1, 2, 32])
def test_profile_refuses_aliasing_grid(massless, quad_points):
    # the coarse grid must hold more than 2 max|offset| points
    with pytest.raises(ValueError, match="alias"):
        exact_p_profile(massless, np.array([0, 16]), quad_points)
    with pytest.raises(ValueError, match="alias"):
        exact_q_profile(massless, np.array([16]), quad_points)
    with pytest.raises(ValueError, match="alias"):
        q_difference_norm(massless, 16, quad_points)
    vals, _ = exact_p_profile(massless, np.array([0, 16]), 33)
    assert np.all(np.isfinite(vals))


_MASSLESS_LEVELS = [(Harmonic(0.0), 1.0), (flow(Harmonic(0.0), 1)[1], 0.5)]


@pytest.mark.parametrize("d, b", _MASSLESS_LEVELS)
def test_closed_forms_match_40_digit_quadrature(d, b):
    # Harmonic(0) and its first level, hypot(0, sin(k/2) / 2), read closed
    # forms; each value lies within its own certificate of mp.quad
    assert d.harmonic_form == (0.0, b)
    oracle = waverg.mera._oracle(d, 1 << 16)
    assert isinstance(oracle, waverg.mera._MasslessForms)
    series = oracle_reference.series(b, 64)
    for n in (0, 1, 2, 3, 16, 64):
        p, q, norm = oracle_reference.quadrature(b, n)
        got = [exact_p_profile(d, [n]), exact_q_profile(d, [n])]
        want = [p, q]
        if n:
            got.append(oracle.q_difference_norms([n]))
            want.append(norm)
        for (value, err), ref, closed in zip(got, want, series):
            with mp.workdps(50):
                # the reference's two routes confirm the closed forms
                assert abs(ref - closed[n]) < mp.mpf(10) ** -40
                assert abs(mp.mpf(float(value[0])) - ref) <= err <= 1e-12


@pytest.mark.parametrize("d, b", _MASSLESS_LEVELS)
def test_closed_forms_match_40_digit_series(d, b):
    # every offset up to 1024 alone, against its own certificate, and all
    # of them in one call, against the largest
    top = 1024
    oracle = waverg.mera._oracle(d, 1 << 16)
    reads = [
        lambda n: oracle.profile(waverg.mera._half, n),
        lambda n: oracle.profile(waverg.mera._half_inverse, n, True),
        lambda n: oracle.q_difference_norms(n)]
    for read, ref in zip(reads, oracle_reference.series(b, top)):
        first = 1 if ref[0] is None else 0
        offsets = np.arange(first, top + 1)
        values, largest = read(offsets)
        assert largest <= 1e-12
        with mp.workdps(50):
            for n, value in zip(offsets, values):
                (alone,), err = read([n])
                assert alone == value
                assert abs(mp.mpf(float(value)) - ref[n]) <= err <= largest


@pytest.mark.parametrize("d", [Harmonic(1e-12), Harmonic(0.3), Flat(1.0),
                               Tabulated(kgrid(64),
                                         np.abs(np.sin(kgrid(64) / 2)))])
def test_oracle_quadrature_serves_every_other_dispersion(d):
    # the closed forms take the exact massless shape only; a tabulated
    # |sin(k/2)| has no harmonic form
    assert isinstance(waverg.mera._oracle(d, 1 << 12),
                      waverg.mera._Quadrature)


def test_closed_forms_refuse_what_they_do_not_give(massless):
    oracle = waverg.mera._oracle(massless, 64)
    with pytest.raises(ValueError, match="alias"):
        oracle.profile(waverg.mera._half, [32])
    with pytest.raises(ValueError, match="integers"):
        oracle.q_difference_norms([1.5])
    with pytest.raises(ValueError, match="nonzero"):
        oracle.q_difference_norms([0, 1])
    for integrand, regulated in ((waverg.mera._half, True),
                                 (waverg.mera._half_inverse, False)):
        with pytest.raises(ValueError, match="closed forms"):
            oracle.profile(integrand, [1], regulated)


@pytest.mark.parametrize("m", [0.0, 0.3])
def test_empty_offsets_read_nothing(m):
    # both routes: no offset has no value and no error
    d = Harmonic(m)
    oracle = waverg.mera._oracle(d, 1 << 12)
    none = np.array([], dtype=int)
    for values, err in (exact_p_profile(d, none), exact_q_profile(d, none),
                        oracle.q_difference_norms([])):
        assert values.shape == (0,) and err == 0.0


class _TwoGridQuadrature:
    """The oracle as two Richardson grids, kgrid(q) and kgrid(2q), each
    sampled and transformed on its own, with the k = 0 sample of a
    regulated integrand zeroed: the reference for _Quadrature."""

    def __init__(self, d, quad_points):
        self.grids = [(k, np.asarray(d(k))) for k in
                      (kgrid(quad_points), kgrid(2 * quad_points))]

    @staticmethod
    def _read(spectrum, offsets, n):
        folded = offsets % n
        sign = np.where(offsets % 2 == 0, 1.0, -1.0)
        return sign * spectrum[np.minimum(folded, n - folded)]

    def profile(self, integrand, offsets, regulated=False):
        results = []
        for k, w in self.grids:
            f = integrand(w)
            if regulated:
                f[np.abs(k) < 1e-15] = 0.0
            spectrum = np.fft.rfft(f).real / len(k)
            values = self._read(spectrum, offsets, len(k))
            results.append(values - spectrum[0] if regulated else values)
        coarse, fine = results
        return (fine + (fine - coarse) / 3.0,
                float(np.max(np.abs(fine - coarse) / 3.0)))

    def q_difference_norms(self, deltas):
        results = []
        for k, w in self.grids:
            at0 = np.abs(k) < 1e-15
            w2 = w * w
            h = np.where(w2 > 0, 1.0 / (2.0 * np.maximum(w2, 1e-300)), 0.0)
            g0 = 0.0
            for i in np.flatnonzero(at0):
                if not w[i] > 0:
                    g0 = (4.0 * k[i - 1] ** 2 * h[i - 1]
                          - k[i - 2] ** 2 * h[i - 2]) / 3.0
            with np.errstate(divide="ignore", invalid="ignore"):
                rest = h - g0 / (4.0 * np.sin(k / 2.0) ** 2)
            rest[at0] = 0.0
            spectrum = np.fft.rfft(rest).real / len(k)
            results.append(g0 * deltas / 2.0 + spectrum[0]
                           - self._read(spectrum, deltas, len(k)))
        coarse, fine = results
        return np.sqrt(np.maximum(fine + (fine - coarse) / 3.0, 0.0))


@pytest.mark.parametrize("m", [0.0, 0.5])
@pytest.mark.parametrize("quad_points", [4096, 4097, 1 << 16, (1 << 16) + 1])
def test_oracle_matches_two_grid_reference(m, quad_points):
    # the coarse grid is the fine grid's even samples, so one transform of
    # the fine samples gives both grids; an odd q flips the aliased sign.
    # The norms take g(0) from the fine samples on both grids, so they match
    # the reference bit for bit only where its coarse g(0) agrees (2^16); an
    # odd coarse grid misses k = 0, and there the reference is off by up to
    # 1.8e-12 from the exact massless norm sqrt(delta)
    d = Harmonic(m)
    offsets = np.arange(0, 2000, 7)
    deltas = np.array([1, 4, 16, 1000])
    oracle = waverg.mera._Quadrature(d, quad_points)
    ref = _TwoGridQuadrature(d, quad_points)
    cases = [(waverg.mera._half, False), (waverg.mera._half_inverse, True)]
    if m > 0:
        cases.append((waverg.mera._half_inverse, False))
    for integrand, regulated in cases:
        values, err = oracle.profile(integrand, offsets, regulated)
        want, want_err = ref.profile(integrand, offsets, regulated)
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-15)
        # the reference's certificate carries the rounding of two transforms
        assert err == pytest.approx(want_err, rel=1e-6, abs=1e-16)
    norms, _ = oracle.q_difference_norms(deltas)
    want = ref.q_difference_norms(deltas)
    if quad_points == 1 << 16:
        assert np.array_equal(norms, want)
    elif m == 0:
        np.testing.assert_allclose(norms, np.sqrt(deltas), rtol=0, atol=3e-14)
    else:
        np.testing.assert_allclose(norms, want, rtol=1e-15, atol=0)


@settings(max_examples=30, deadline=None)
@given(m=st.floats(0.05, 1.0),
       quad_points=st.sampled_from([4096, 4097, 1 << 16, (1 << 16) + 1]),
       deltas=st.lists(st.integers(1, 2000), min_size=1, max_size=6))
def test_gapped_norms_match_two_grid_reference(m, quad_points, deltas):
    # omega(0) > 0: both take g(0) = 0, so only the transforms round apart
    d = Harmonic(m)
    norms, _ = waverg.mera._Quadrature(d, quad_points).q_difference_norms(
        deltas)
    want = _TwoGridQuadrature(d, quad_points).q_difference_norms(
        np.array(deltas))
    np.testing.assert_allclose(norms, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("which", ["gapless", "gapped"])
def test_error_report_transforms_each_integrand_once(which, monkeypatch,
                                                     massless_k2l4_8,
                                                     massive_stack):
    # the report_gapless and report_gapped stacks: p, q (plain and regulated
    # share a transform) and one q-difference remainder on the fine grid
    stack, N = ((massless_k2l4_8, 2048) if which == "gapless"
                else (massive_stack, 1024))
    quad = 1 << 16
    transforms, samples = [], []
    rfft, call = np.fft.rfft, Harmonic.__call__

    def counting_rfft(a, *args, **kwargs):
        if np.ndim(a) == 1 and len(a) >= quad:
            transforms.append(len(a))
        return rfft(a, *args, **kwargs)

    def counting_call(self, k):
        samples.append(np.size(k))
        return call(self, k)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(Harmonic, "__call__", counting_call)
    rep = error_report(stack, N, quad_points=quad)
    if which == "gapless":  # the closed forms sample nothing
        assert transforms == []
        assert [n for n in samples if n >= quad] == []
    else:
        assert transforms == [2 * quad] * 3
        assert [n for n in samples if n >= quad] == [2 * quad]
    transforms.clear()
    rep.exact_profiles(np.arange(1, 33))
    assert transforms == []


def test_ring_matches_infinite_chain_when_gapped():
    d = Harmonic(1.0)
    ring = ring_covariance(d, 64)
    toep = exact_covariance(d, 64, regulated=False)
    # agreement up to exponentially small finite-size corrections
    assert np.max(np.abs(ring.q_block[:8, :8] - toep.q_block[:8, :8])) < 1e-10
    assert np.max(np.abs(ring.p_block[:8, :8] - toep.p_block[:8, :8])) < 1e-10


def test_ring_covariance_matches_dense_cosine_sum():
    # the ring's momenta 2 pi j / N equal kgrid(N) as a set only for even N
    d = Harmonic(0.7)
    for N in (64, 15):
        k = 2.0 * np.pi * np.arange(N) / N
        w = np.asarray(d(k))
        cosmat = np.cos(np.outer(np.arange(N), k))
        dist = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
        dist = np.minimum(dist, N - dist)
        ring = ring_covariance(d, N)
        np.testing.assert_allclose(ring.q_block,
                                   (cosmat @ (0.5 / w) / N)[dist],
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(ring.p_block,
                                   (cosmat @ (0.5 * w) / N)[dist],
                                   rtol=0, atol=1e-14)


def test_exact_covariance_is_valid_state():
    cov = exact_covariance(Harmonic(0.8), 32, regulated=False)
    assert cov.uncertainty_min() >= 0.25 - 1e-9


# -- MERA covariance -------------------------------------------------------

def test_flat_haar_mera_is_product_state():
    stack = LayerStack((haar_pair(),) * 3, (1.0,) * 3, Flat(1.0))
    cov = mera_covariance(stack, 32)
    np.testing.assert_allclose(cov.q_block, np.eye(32) / 2, atol=1e-12)
    np.testing.assert_allclose(cov.p_block, np.eye(32) / 2, atol=1e-12)
    assert cov.uncertainty_min() == pytest.approx(0.25, abs=1e-12)


def test_mera_symplectic_product(designs, massless):
    # gamma_q gamma_p = I/4 for any squeezed biorthogonal stack
    stack = build_stack(massless, DesignParams(2, 2), 3)
    cov = mera_covariance(stack, 64)
    np.testing.assert_allclose(cov.q_block @ cov.p_block, np.eye(64) / 4,
                               atol=1e-9)


def test_mera_symplectic_product_folded_taps(massless):
    # the 20-tap K=2/L=4 pair is longer than the third layer's 16-site
    # lattice; its taps must fold onto the ring for the layer to stay exact
    stack = build_stack(massless, DesignParams(2, 4), 3)
    cov = mera_covariance(stack, 64)
    np.testing.assert_allclose(cov.q_block @ cov.p_block, np.eye(64) / 4,
                               atol=1e-9)


@pytest.fixture(scope="module")
def massless_k2l4_8():
    return build_stack(Harmonic(0.0), DesignParams(2, 4), 8)


@pytest.mark.parametrize("case", ["folded_k2l4", "massive", "massless_8",
                                  "one_symbol"])
def test_mera_covariance_matches_dense_gram(case, pair_k2l4, massive_stack,
                                           massless_k2l4_8):
    if case == "folded_k2l4":
        stack = LayerStack([pair_k2l4] * 3, [1.0, 0.5, 2.0], Harmonic(0.0))
        N = 64
    elif case == "massive":
        stack, N = massive_stack, 1024
    elif case == "massless_8":
        stack, N = massless_k2l4_8, 512
    else:  # N = 2^depth: the first block row is the whole Gram
        stack, N = massless_k2l4_8, 256
    cov = mera_covariance(stack, N)
    for block, channel, scales in (
            (cov.p_block, "g", list(stack.squeezes)),
            (cov.q_block, "h", [1.0 / s for s in stack.squeezes])):
        R = multi_layer_map(stack.pairs, channel, N, scales=scales).matrix
        np.testing.assert_allclose(block, 0.5 * (R.T @ R), rtol=0, atol=1e-14)
        assert np.array_equal(block, block.T)


def _entry(row, n, m):
    """Entry (n, m) on Z_N of the matrix that commutes with shifts by P and
    has first block row ``row``: row[n mod P, (m - n + n mod P) mod N]."""
    P, N = row.shape
    r = n % P
    return row[r, (m - n + r) % N]


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_roll_out_matches_entry_formula_on_random_stacks(case):
    stack, N = case
    ring = np.arange(N)
    for row in waverg.mera._covariance_rows(stack, N):
        assert np.array_equal(waverg.mera._roll_out(row),
                              _entry(row, ring[:, None], ring))


@settings(max_examples=40, deadline=None)
@given(case=pr_stacks(), data=st.data())
def test_window_deviation_matches_dense_window_on_random_stacks(case, data):
    stack, N = case
    half = data.draw(st.integers(0, N // 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    profile = rng.standard_normal(2 * half + 1)
    for row in waverg.mera._covariance_rows(stack, N):
        dense = waverg.mera._roll_out(row)
        for centre in data.draw(st.lists(st.integers(-2 * N, 2 * N),
                                         min_size=1, max_size=3)):
            window = np.arange(centre - half, centre + half + 1)
            assert waverg.mera._window_deviation(profile, row, window) == \
                _dense_window_deviation(profile, dense, window)


@pytest.mark.parametrize("layers, N", [(1, 16), (2, 16), (3, 16), (4, 16),
                                       (5, 32), (9, 512)])
def test_window_deviation_reads_partial_blocks(layers, N):
    # every half-width up to 8 (and N / 4), at centres 1 .. N / 32 apart: on
    # the small rings the window's ends fall on every row r mod P, so the
    # runs of rows that share a column range (cut at lo mod P and at
    # hi mod P + 1) take every size and order; at 9 layers a block holds
    # more rows than the window
    stack = build_stack(Harmonic(0.0), DesignParams(1, 1), layers)
    rng = np.random.default_rng(layers)
    rows = [*waverg.mera._covariance_rows(stack, N),
            rng.standard_normal((1 << layers, N))]
    for row in rows:
        dense = waverg.mera._roll_out(row)
        for half in sorted({*range(min(N // 4, 8) + 1), N // 4}):
            profile = rng.standard_normal(2 * half + 1)
            for centre in range(-N, N, max(1, N // 32)):
                window = np.arange(centre - half, centre + half + 1)
                assert waverg.mera._window_deviation(profile, row, window) \
                    == _dense_window_deviation(profile, dense, window)


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_mera_covariance_is_the_symmetrized_roll_out_on_random_stacks(case):
    # the rows as built, rolled out and symmetrized where the matrix forms
    stack, N = case
    cov = mera_covariance(stack, N)
    for block, row in zip((cov.q_block, cov.p_block),
                          waverg.mera._covariance_rows(stack, N)):
        C = waverg.mera._roll_out(row)
        assert np.array_equal(block, 0.5 * (C + C.T))
        assert np.array_equal(block, block.T)


def test_regulated_uncertainty_raises():
    from waverg import CovariancePair
    cov = CovariancePair(4, np.zeros((4, 4)), np.eye(4), regulated=True)
    with pytest.raises(GaplessUnregulated):
        cov.uncertainty_min()


# -- theorem bound ---------------------------------------------------------

def test_theorem_bound_regression():
    bound_p, bound_q = theorem_bound(B=2.0, D=1.5, M=10, Omega=1.0,
                                     eps=1e-3, L_layers=8)
    # independent recomputation of the closed form
    C = 4.0 * 4.0 * 10 ** 1.5
    want = 1.5 ** 2 * (C * 2.0 ** -4 + 3e-3 * 1.5 * np.log2(C / 1e-3))
    assert bound_p == pytest.approx(want, rel=1e-12)
    assert bound_p == pytest.approx(71.34310270261183, rel=1e-10)
    assert bound_q == pytest.approx(2 * bound_p, rel=1e-12)


def _dense_operator_bound(stack, N):
    worst = 0.0
    for l0 in range(stack.depth):
        for l1 in range(l0 + 1, stack.depth + 1):
            sg = list(stack.squeezes[l0:l1])
            for channel, scales in (("g", sg), ("h", [1.0 / s for s in sg])):
                m = multi_layer_map(stack.pairs[l0:l1], channel, N,
                                    scales=scales)
                worst = max(worst, m.norm())
    return worst


@pytest.mark.parametrize("which, N", [("massless", 256), ("massive", 128)])
def test_operator_bound_matches_dense_svd(which, N, massless_k2l4_8,
                                          massive_stack):
    stack = massless_k2l4_8 if which == "massless" else massive_stack
    want = _dense_operator_bound(stack, N)
    assert stack_operator_bound(stack, N) == pytest.approx(want, rel=1e-12)


def _rfft_symbols(block_row):
    """(real, complex) symbol batches of the block-circulant G with first
    block row ``block_row``: the rfft over the block index at every N/P."""
    P, N = block_row.shape
    n = N // P
    symbols = np.fft.rfft(block_row.reshape(P, n, P).swapaxes(0, 1), axis=0)
    real = [0, n // 2] if n % 2 == 0 else [0]
    return symbols.real[real], symbols[1:(n + 1) // 2]


def _shift_invariant_norm(block_row):
    """Spectral norm of a map R that commutes with input shifts by P, from
    the first block row of G = R^T R: eigvalsh on every symbol."""
    real, inner = _rfft_symbols(block_row)
    top = np.linalg.eigvalsh(real).max()
    if len(inner):
        top = max(top, np.linalg.eigvalsh(inner).max())
    return float(np.sqrt(max(top, 0.0)))


def _all_walks_operator_bound(stack, N):
    """The operator bound with one Gram walk per first layer, no reuse."""
    worst = 0.0
    for l0 in range(stack.depth):
        sg = stack.squeezes[l0:]
        for channel, scales in (("g", sg), ("h", [1.0 / s for s in sg])):
            for rows, scaling in waverg.mera._gram_block_rows(
                    stack.pairs[l0:], channel, N, scales):
                rows = rows + placed_gram_rows(scaling, N, len(rows))
                worst = max(worst, _shift_invariant_norm(rows))
    return worst


def _eigvalsh_norms(stack, N):
    """(c, channel, norm) per sub-stack read by stack_operator_bound, with
    the same walk reuse and eigvalsh on every symbol of every walk run."""
    pairs, s = stack.pairs, stack.squeezes
    L = stack.depth
    walks, out = {}, []
    for l0 in range(L):
        depth = L - l0
        j = next((j for j in walks if pairs[l0:] == pairs[j:j + depth]
                  and s[l0 + 1:] == s[j + 1:j + depth]), None)
        if j is None:
            j = l0
            walks[j] = [
                [_shift_invariant_norm(
                    rows + placed_gram_rows(scaling, N, len(rows)))
                 for rows, scaling in waverg.mera._gram_block_rows(
                     stack.pairs[l0:], channel, N, scales)]
                for channel, scales in (("g", s[l0:]),
                                        ("h", [1.0 / x for x in s[l0:]]))]
        c = s[l0] / s[j]
        g, h = walks[j]
        out += [(c, "g", c * x) for x in g[:depth]]
        out += [(c, "h", x / c) for x in h[:depth]]
    return out


def _eigvalsh_operator_bound(stack, N):
    """The exhaustive maximum that the certified bound must reproduce bit
    for bit (a NaN norm is passed over, as max(0.0, nan) passes it)."""
    return max(0.0, *(norm for _, _, norm in _eigvalsh_norms(stack, N)))


def _copy(pair):
    """A second FilterPair object with the same taps."""
    return FilterPair(*(FirFilter(f.offset, f.coeffs)
                        for f in (pair.g_s, pair.h_s)))


@pytest.mark.parametrize("case, N, walks", [
    ("massless_8", 512, 1), ("k1l1_10", 1024, 1), ("massive", 512, 5),
    ("last_squeeze", 256, 5), ("first_squeeze", 256, 1),
    ("byte_copies", 256, 2)])
def test_operator_bound_reuses_walks_exactly(case, N, walks, monkeypatch,
                                             massless_k2l4_8, massive_stack,
                                             pair_k2l4):
    r = 0.5 ** 0.5
    if case == "massless_8":
        stack = massless_k2l4_8
    elif case == "k1l1_10":
        stack = build_stack(Harmonic(0.0), DesignParams(1, 1), 10)
    elif case == "massive":
        stack = massive_stack
    elif case == "last_squeeze":
        # layers alike but the last squeeze: walks 1..4 see it at a depth
        # where walk 0 does not, so only the depth-1 walk 5 is reused
        stack = LayerStack((pair_k2l4,) * 6, (1.0,) + (r,) * 4 + (3.0,),
                           Harmonic(0.0))
    elif case == "first_squeeze":  # every walk reuses walk 0
        stack = LayerStack((pair_k2l4,) * 6, (1.3,) + (r,) * 5, Harmonic(0.0))
    else:  # equal taps in two pair objects: walks are shared by object only
        stack = LayerStack((pair_k2l4, _copy(pair_k2l4)), (1.0, r),
                           Harmonic(0.0))
    want = _all_walks_operator_bound(stack, N)
    calls = []
    walk = waverg.mera._gram_block_rows

    def counting(pairs, *args):
        calls.append(len(pairs))
        return walk(pairs, *args)

    monkeypatch.setattr(waverg.mera, "_gram_block_rows", counting)
    got = stack_operator_bound(stack, N)
    assert len(calls) == 2 * walks
    if walks == stack.depth:  # no walk reused
        assert got == want
    else:  # reused norms are scaled by a ratio of squeezes
        assert got == pytest.approx(want, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_certified_operator_bound_is_the_eigvalsh_maximum(case):
    stack, N = case
    got = stack_operator_bound(stack, N)
    assert got == _eigvalsh_operator_bound(stack, N)
    assert got == pytest.approx(_dense_operator_bound(stack, N), rel=1e-12)


@pytest.mark.parametrize("copies, cascades", [(False, 2), (True, 4)])
def test_amplitude_bound_cascades_each_filter_object_once(
        copies, cascades, monkeypatch, pair_k2l4):
    second = _copy(pair_k2l4) if copies else pair_k2l4
    stack = LayerStack((pair_k2l4, second, pair_k2l4), (1.0, 0.7, 0.7),
                       Harmonic(0.0))
    calls, run = [], waverg.mera.cascade

    def counting(a_s, J):
        calls.append(a_s)
        return run(a_s, J)
    monkeypatch.setattr(waverg.mera, "cascade", counting)
    got = stack_amplitude_bound(stack)
    assert len(calls) == cascades
    assert got == stack_amplitude_bound(
        LayerStack((pair_k2l4,), (1.0,), Harmonic(0.0)))


@pytest.mark.parametrize("taps, a0", [([1.0, -1.0], "0.000e+00"),
                                      ([1e-310, 1e-310], "2.000e-310")])
def test_amplitude_bound_refuses_unnormalizable_filter(taps, a0, monkeypatch,
                                                       pair_k2l4):
    # a_s(0) = 0 divided sqrt(2) by zero; a subnormal a_s(0) rescales the
    # taps past the double range.  Both are refused before any cascade, on
    # the first layer holding the filter
    def refuse(a_s, J):
        raise AssertionError("cascade ran")

    bad = FilterPair(FirFilter(0, np.array(taps)), HAAR_SCALING)
    stack = LayerStack((pair_k2l4, bad, bad), (1.0, 0.7, 0.7), Harmonic(0.0))
    monkeypatch.setattr(waverg.mera, "cascade", refuse)
    with pytest.raises(NormalizationFailure) as exc:
        stack_amplitude_bound(stack)
    assert f"a_s(0) = {a0}" in str(exc.value)
    assert exc.value.payload()["layer"] == 1


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_mera_covariance_matches_reference_chain_on_random_stacks(case):
    stack, N = case
    cov = mera_covariance(stack, N)
    for block, channel, scales in (
            (cov.p_block, "g", list(stack.squeezes)),
            (cov.q_block, "h", [1.0 / s for s in stack.squeezes])):
        R = reference_chain(stack.pairs, channel, N, scales)
        want = 0.5 * (R.T @ R)
        # a Gram's largest entry is on its diagonal, a sum of squares
        np.testing.assert_allclose(block, want, rtol=0,
                                   atol=1e-14 * np.max(np.abs(want)))
        assert np.array_equal(block, block.T)


def _outcome(bound, stack, N):
    try:
        return repr(bound(stack, N))
    except np.linalg.LinAlgError as err:
        return f"LinAlgError: {err}"


@pytest.mark.parametrize("case", ["massless_tie", "haar_tie", "reused_max",
                                  "nan_squeeze", "nan_entry"])
def test_certified_operator_bound_fixed_cases(case, monkeypatch, haar,
                                              massless_k2l4_8, pair_k2l4):
    N = 256
    if case == "massless_tie":  # g norms 1.0 to rounding from depth 2 on
        stack, N = massless_k2l4_8, 512
        g = [norm for c, channel, norm in _eigvalsh_norms(stack, N)
             if c == 1.0 and channel == "g"]
        np.testing.assert_allclose(g[1:], 1.0, rtol=0, atol=1e-15)
    elif case == "haar_tie":  # orthogonal layers: the maximum is a tie
        stack, N = LayerStack((haar,) * 5, (1.0,) * 5, Harmonic(0.0)), 64
        norms = [norm for _, _, norm in _eigvalsh_norms(stack, N)]
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-15)
    elif case == "reused_max":
        stack = LayerStack((pair_k2l4,) * 6, (1.3,) + (0.5 ** 0.5,) * 5,
                           Harmonic(0.0))
        c, _, _ = max(_eigvalsh_norms(stack, N), key=lambda e: e[2])
        assert c != 1.0
    elif case == "nan_squeeze":
        stack = LayerStack((pair_k2l4,) * 3, (1.0, 0.7, float("nan")),
                           Harmonic(0.0))
    else:  # a NaN in one lower-triangle entry of the depth-2 Gram rows
        stack = LayerStack((pair_k2l4,) * 3, (1.0, 0.7, 1.2), Harmonic(0.0))
        place = waverg.mera.placed_gram_rows

        def with_nan(filt, N, stride, count=None):
            rows = place(filt, N, stride, count)
            if stride == 4:
                rows = rows.copy()
                rows[-1, 0] = np.nan
            return rows
        monkeypatch.setattr(waverg.mera, "placed_gram_rows", with_nan)
    want = _outcome(_eigvalsh_operator_bound, stack, N)
    if case.startswith("nan"):
        # the NaN Gram rows are refused before any symbol is formed, where
        # the reference's eigvalsh refuses the NaN symbol
        assert want.startswith("LinAlgError")
        with pytest.raises(NonFiniteFilter,
                           match="operator-bound [gh]-channel Gram walk"):
            stack_operator_bound(stack, N)
    else:
        assert _outcome(stack_operator_bound, stack, N) == want


def test_overflowing_gram_walk_is_refused_by_each_finisher():
    # taps 1e200 normalize, but their Gram rows overflow, and so does the
    # level filter that composes two layers: the walk itself warns of
    # nothing, and each finisher refuses the rows with its stage
    r = 0.5 ** 0.5
    big = FilterPair(FirFilter(0, np.array([1e200, 1e200])),
                     FirFilter(0, np.array([r, r])))
    stack = LayerStack((big, big), (1.0, r), Harmonic(0.0))
    N = 64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for channel in "gh":
            finite = [np.isfinite(rows).all() for rows, _ in
                      waverg.mera._gram_block_rows(
                          stack.pairs, channel, N,
                          waverg.mera._channel_scales(stack.squeezes,
                                                      channel))]
            assert not all(finite)
        for channel in "gh":
            with pytest.raises(NonFiniteFilter) as err:
                waverg.mera._channel_rows(stack, channel, N)
            assert err.value.stage == f"{channel}-channel Gram walk"
        with pytest.raises(NonFiniteFilter) as err:
            stack_operator_bound(stack, N)
        assert err.value.stage == "operator-bound g-channel Gram walk"


def test_operator_bound_eigvalsh_calls(monkeypatch, massless_k2l4_8):
    # one walk per channel holds 30 symbol batches; the one that attains the
    # maximum gets eigvalsh, and Cholesky factorizations rule out the rest
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    want = stack_operator_bound(massless_k2l4_8, 512)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert stack_operator_bound(massless_k2l4_8, 512) == want
    assert 1 <= len(calls) <= 2


def test_operator_bound_cholesky_calls(monkeypatch, massless_k2l4_8):
    # of the 30 symbol batches one gets eigvalsh and the row-sum screen
    # rules out all but at most two of the other 29 with no factorization
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    want = stack_operator_bound(massless_k2l4_8, 512)
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    assert stack_operator_bound(massless_k2l4_8, 512) == want
    assert len(calls) <= 2


def _vstack_walk(pairs, channel, N, scales):
    """_gram_block_rows with fresh arrays per stride: the rows so far
    stacked on their roll, plus the placed wavelet Gram."""
    acc = np.zeros((1, N))
    for depth, (scaling, wavelet) in enumerate(
            level_walk(pairs, channel, scales), 1):
        s = 1 << depth
        acc = (np.vstack([acc, np.roll(acc, s // 2, axis=1)])
               + placed_gram_rows(wavelet, N, s))
        yield acc, scaling


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_gram_walk_doubles_rows_in_place_bit_for_bit(case):
    stack, N = case
    for channel, scales in (("g", list(stack.squeezes)),
                            ("h", [1.0 / s for s in stack.squeezes])):
        steps = 0
        for (rows, scaling), (want, want_scaling) in zip(
                waverg.mera._gram_block_rows(stack.pairs, channel, N, scales),
                _vstack_walk(stack.pairs, channel, N, scales)):
            assert np.array_equal(rows, want)
            assert np.array_equal(scaling.coeffs, want_scaling.coeffs)
            steps += 1
        assert steps == stack.depth


@pytest.mark.parametrize("n", [1, 2])
def test_gram_symbols_from_block_sums_bit_for_bit(n, massless_k2l4_8):
    rng = np.random.default_rng(n)
    rows = [rng.standard_normal((P, n * P)) for P in (1, 2, 8, 64)]
    # the depth-8 K2/L4 Gram rows on rings 256 and 512
    *_, (walk, scaling) = waverg.mera._gram_block_rows(
        massless_k2l4_8.pairs, "g", 256 * n, massless_k2l4_8.squeezes)
    rows.append(walk + placed_gram_rows(scaling, 256 * n, 256))
    for row in rows:
        got, want = waverg.mera._gram_symbols(row), _rfft_symbols(row)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


@st.composite
def hermitian_batches(draw):
    """A batch of random real or complex Hermitian matrices and a level t
    placed around their largest eigenvalue and their row-sum bound."""
    k, P = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((k, P, P))
    if draw(st.booleans()):
        A = A + 1j * rng.standard_normal((k, P, P))
    A *= 10.0 ** draw(st.integers(-3, 3))
    S = (A + A.conj().swapaxes(1, 2)) / 2
    top = np.linalg.eigvalsh(S).max()
    rowsum = np.abs(S).sum(axis=2).max()
    t = draw(st.sampled_from([top, rowsum])) * draw(st.floats(0.5, 2.0))
    return S, top, t


@settings(max_examples=200, deadline=None)
@given(hermitian_batches())
def test_below_screen_never_rules_out_an_eigenvalue_at_t(case):
    # with every factorization failing, only the screen can say True
    S, top, t = case

    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("screen only")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", fail)
        below = waverg.mera._below(S, t)
    if below:
        assert top < t


def test_below_screen_reads_the_lower_triangle(monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("screen only")
    monkeypatch.setattr(np.linalg, "cholesky", fail)
    S = np.eye(4)[None] * (1.0 + 0.5j)  # eigvalsh reads 1 on the diagonal
    upper = S.copy()
    upper[0][np.triu_indices(4, 1)] = [1e300, np.nan, 1e300, np.inf, 7, 7]
    assert np.linalg.eigvalsh(upper).max() == 1.0
    assert waverg.mera._below(upper, 1.01)
    lower = S.copy()
    lower[0][np.tril_indices(4, -1)] = [0.5, -0.5, 0.5, -0.5, 0.5, -0.5]
    assert np.linalg.eigvalsh(lower).max() < 2.3  # row sums are 2.5
    assert not waverg.mera._below(lower, 2.5)
    assert waverg.mera._below(lower, 2.51)
    lower[0, 3, 0] = np.nan  # a NaN sum is not below: no screen
    assert not waverg.mera._below(lower, 1e300)
    assert not waverg.mera._below(np.zeros((1, 2, 2)), 0.0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_below_screen_sums_match_tril_bit_for_bit(dtype, monkeypatch):
    # with a zero margin and every factorization failing, _below(S, t) is
    # True just when the largest screen row sum is below t: the maximum of
    # each symbol's sums is the np.tril reference's bit for bit, with inf
    # and NaN above the diagonal (a 0/1 mask would make them NaN)
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("screen only")
    monkeypatch.setattr(np.linalg, "cholesky", fail)
    monkeypatch.setattr(waverg.mera, "_CERTIFY_MARGIN", 0.0)
    rng = np.random.default_rng(3)
    S = rng.standard_normal((4, 37, 37)).astype(dtype)
    if dtype is complex:
        S += 1j * rng.standard_normal(S.shape)
    upper = np.triu_indices(37, 1)
    S[1][upper] = np.inf
    S[2][upper] = np.nan
    S[3][upper] = -np.inf
    lower = np.tril(np.abs(S), -1)
    sums = (np.abs(S.diagonal(axis1=1, axis2=2).real)
            + lower.sum(axis=2) + lower.sum(axis=1))
    for symbol, top in zip(S, sums.max(axis=1)):
        assert np.isfinite(top)
        assert not waverg.mera._below(symbol[None], top)
        assert waverg.mera._below(symbol[None], np.nextafter(top, np.inf))


def test_covariance_rows_peak_memory(massless_k2l4_8):
    # per channel one P x N walk buffer and one placed Gram at a time, and
    # the q rows are held while the g channel walks: about 3 P x N arrays in
    # all, where fresh arrays per stride peaked at 6
    N, P = 2048, 256
    waverg.mera._covariance_rows(massless_k2l4_8, N)  # warm caches
    tracemalloc.start()
    try:
        rows = waverg.mera._covariance_rows(massless_k2l4_8, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.shape for r in rows] == [(P, N)] * 2
    assert peak < 2 * 2 * P * N * 8


def test_first_rows_walk_is_the_full_walk_bit_for_bit(designs):
    # from two rows on, BLAS sums each kept row as in the full product; the
    # 12 massless designs, depths 1..8, rings from twice the support up
    r = 0.5 ** 0.5
    for pair, _ in designs.values():
        least = 2 * pair.support_length()
        rings = {-(-least // (1 << d)) << d for d in range(1, 9)} | {2048}
        for N in sorted(rings):
            depth = min(8, (N & -N).bit_length() - 1)
            scales = [1.0] + [r] * (depth - 1)
            for channel, sc in (("g", scales), ("h", [1 / x for x in scales])):
                walk = waverg.mera._gram_block_rows((pair,) * depth, channel,
                                                    N, sc)
                full = [(rows.copy(), scaling) for rows, scaling in walk]
                for count in (2, 3):
                    walk = waverg.mera._gram_block_rows(
                        (pair,) * depth, channel, N, sc, count)
                    for (rows, scaling), (want, _) in zip(walk, full):
                        assert np.array_equal(rows, want[:count])
                        P = len(want)
                        assert np.array_equal(
                            placed_gram_rows(scaling, N, P, len(rows)),
                            placed_gram_rows(scaling, N, P)[:count])


@pytest.mark.parametrize("which", ["massless", "massive"])
def test_report_covariance_rows_are_full_blocks(which, monkeypatch,
                                                massive_stack):
    # a gapless report walks the q rows its pairs read (n mod P < 2 here)
    # and the full q block on the first read of covariance_rows, once
    N = 256
    if which == "massless":
        stack = build_stack(Harmonic(0.0), DesignParams(2, 2), 5)
    else:
        stack = massive_stack
    P = 1 << stack.depth
    want = waverg.mera._covariance_rows(stack, N)
    ref = mera_covariance(stack, N)
    calls = []
    channel_rows = waverg.mera._channel_rows

    def counting(stack, channel, N, count=None):
        calls.append((channel, count))
        return channel_rows(stack, channel, N, count)

    monkeypatch.setattr(waverg.mera, "_channel_rows", counting)
    rep = error_report(stack, N, quad_points=1 << 12)
    q_count = 2 if which == "massless" else None
    assert calls == [("h", q_count), ("g", None)]
    assert rep.measured_rows[0].shape == (q_count or P, N)
    for _ in range(2):
        rows = rep.covariance_rows
        assert [r.shape for r in rows] == [(P, N)] * 2
        assert all(np.array_equal(a, b) for a, b in zip(rows, want))
    assert np.array_equal(rep.covariance.q_block, ref.q_block)
    assert np.array_equal(rep.covariance.p_block, ref.p_block)
    assert calls[2:] == ([("h", None)] if which == "massless" else [])


def test_gapless_report_covariance_stage_peak_memory(monkeypatch,
                                                     massless_k2l4_8):
    # the q walk keeps 2 rows, so the stage holds one P x N g walk buffer
    # and one placed Gram at a time; the full q block held besides makes 3
    N, P = 2048, 256
    peaks = []
    covariance_rows = waverg.mera._covariance_rows

    def traced(*args):
        tracemalloc.start()
        try:
            rows = covariance_rows(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [r.shape for r in rows] == [(2, N), (P, N)]
        return rows

    error_report(massless_k2l4_8, N)  # warm caches
    monkeypatch.setattr(waverg.mera, "_covariance_rows", traced)
    error_report(massless_k2l4_8, N)
    [peak] = peaks
    assert peak < 2.5 * P * N * 8


def test_covariance_rows_place_one_top_scaling_gram(monkeypatch,
                                                    massive_stack):
    calls = []
    place = waverg.mera.placed_gram_rows

    def counting(filt, N, stride, count=None):
        calls.append(stride)
        return place(filt, N, stride, count)

    monkeypatch.setattr(waverg.mera, "placed_gram_rows", counting)
    waverg.mera._covariance_rows(massive_stack, 256)
    L = massive_stack.depth
    # per channel: one wavelet Gram per level, one scaling Gram at the top
    per_channel = [1 << l for l in range(1, L + 1)] + [1 << L]
    assert calls == 2 * per_channel


def test_theorem_bound_eps_zero_limit():
    b0, _ = theorem_bound(1.0, 1.0, 4, 1.0, 0.0, 6)
    assert b0 == pytest.approx(4.0 * 4 ** 1.5 * 2.0 ** -3, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(B=2.0, D=1.5, M=10, Omega=1.0, eps=-1e-3, L_layers=8),
    dict(B=2.0, D=1.5, M=10, Omega=1.0, eps=1.5, L_layers=8),
    dict(B=2.0, D=0.5, M=10, Omega=1.0, eps=1e-3, L_layers=8),
    dict(B=2.0, D=1.5, M=10, Omega=0.5, eps=1e-3, L_layers=8),
    dict(B=1e-3, D=1.5, M=1, Omega=1.0, eps=0.9, L_layers=8),  # C/eps < 2
])
def test_theorem_bound_hypotheses(kwargs):
    with pytest.raises(OutOfHypothesis):
        theorem_bound(**kwargs)


# -- error report ----------------------------------------------------------

def test_error_report_small_case(massless):
    stack = build_stack(massless, DesignParams(2, 2), 3)
    rep = error_report(stack, 256, quad_points=1 << 13)
    assert rep.delta_p > 0
    assert rep.delta_q is None  # gapless: plain q comparison undefined
    assert set(rep.delta_q_regulated) == {(0, 1), (0, 4), (0, 16)}
    assert rep.dominated()
    d = rep.to_json()
    assert d["dominated"] is True
    assert d["constants"]["L_layers"] == 3
    assert d["constants"]["M"] == stack.max_support
    assert d["constants"]["C"] == pytest.approx(
        4 * d["constants"]["B"] ** 2 * d["constants"]["M"] ** 1.5
        * d["constants"]["Omega"], rel=1e-12)


def test_error_report_builds_no_dense_map(monkeypatch, massive_stack):
    import waverg.filters

    def refuse(*args, **kwargs):
        raise AssertionError("dense multi_layer_map on the report path")

    N = 512
    monkeypatch.setattr(waverg.filters, "multi_layer_map", refuse)
    monkeypatch.setattr(waverg.mera, "multi_layer_map", refuse, raising=False)
    error_report(massive_stack, N, quad_points=1 << 12)  # warm caches
    tracemalloc.start()
    try:
        rep = error_report(massive_stack, N, quad_points=1 << 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8  # less than one N x N float64 array
    assert rep.delta_q is not None
    monkeypatch.undo()
    want = mera_covariance(massive_stack, N)
    assert np.array_equal(rep.covariance.q_block, want.q_block)
    assert np.array_equal(rep.covariance.p_block, want.p_block)
    assert np.array_equal(rep.covariance.p_block, rep.covariance.p_block.T)


def test_error_report_forms_no_zero_stuffed_filter(monkeypatch,
                                                   massless_k2l4_8):
    def refuse(self, factor):
        raise AssertionError("zero-stuffed filter on the report path")

    monkeypatch.setattr(FirFilter, "upsample", refuse)
    assert error_report(massless_k2l4_8, 512, quad_points=1 << 12).dominated()


def _dense_window_deviation(profile, block, window):
    """max over n, m in window of |profile[|n - m|] - block[n mod N, m mod N]|,
    gathered from the N x N block."""
    N = block.shape[0]
    cols = window % N
    return float(np.max(np.abs(profile[np.abs(window[:, None] - window)]
                               - block[np.ix_(cols, cols)])))


@pytest.mark.parametrize("which", ["massless", "massive", "partial"])
def test_error_report_deviations_match_rolled_out_covariance(
        which, massive_stack):
    N, quad = 256, 1 << 13
    if which == "massless":
        stack = build_stack(Harmonic(0.0), DesignParams(2, 2), 3)
    elif which == "massive":
        stack = massive_stack
    else:  # P = 16 rows per block, more than the 9 window rows
        stack, N = build_stack(Harmonic(0.0), DesignParams(1, 1), 4), 16
    pairs = ((0, 1), (0, 4), (0, 16), (3, -5), (-7, 2), (40, 41))
    rep = error_report(stack, N, quad_points=quad, pairs_to_check=pairs)
    d = stack.base_dispersion
    # the report reads the rows as built, not their symmetrized roll-out
    q, p = map(waverg.mera._roll_out, rep.covariance_rows)
    window = np.arange(-(N // 4), N // 4 + 1)
    offsets = np.arange(N // 2 + 1)
    p_prof, _ = exact_p_profile(d, offsets, quad)
    assert rep.delta_p == _dense_window_deviation(p_prof, p, window)
    if d.gapless:
        assert rep.delta_q is None
    else:
        q_prof, _ = exact_q_profile(d, offsets, quad, regulated=False)
        assert rep.delta_q == _dense_window_deviation(q_prof, q, window)
    deltas = sorted({abs(n - m) for n, m in pairs})
    reg, _ = exact_q_profile(d, np.array(deltas), quad, regulated=True)
    reg = dict(zip(deltas, reg))
    assert rep.delta_q_regulated == {
        (n, m): float(abs(reg[abs(n - m)] - (q[n % N, m % N] - q[n % N, n % N])))
        for n, m in pairs}


def test_error_report_gapped_includes_plain_q():
    stack = build_stack(Harmonic(0.5), DesignParams(2, 2), 2)
    rep = error_report(stack, 128, quad_points=1 << 13)
    assert rep.delta_q is not None
    assert rep.delta_q >= 0


# -- wavelet-channel deviation (massive flattening) ------------------------

def _dense_channel_deviation(stack, N):
    """wavelet_channel_deviation from the dense maps W_a C W_a^T on Z_N."""
    out = []
    for pair, dl in zip(stack.pairs, stack.levels):
        exact = ring_covariance(dl, N)
        w_g = decomposition_map(pair, "g", N).matrix
        w_h = decomposition_map(pair, "h", N).matrix
        s2 = dl.omega_pi
        half = N // 2
        q_b = s2 * (w_g @ exact.q_block @ w_g.T)[half:, half:]
        p_b = (w_h @ exact.p_block @ w_h.T)[half:, half:] / s2
        eye = 0.5 * np.eye(half)
        out.append(max(float(np.max(np.abs(q_b - eye))),
                       float(np.max(np.abs(p_b - eye)))))
    return out


@pytest.mark.parametrize("N", [256, 1024])
def test_wavelet_channel_deviation_matches_dense_maps(N, massive_stack):
    got = wavelet_channel_deviation(massive_stack, N)
    want = _dense_channel_deviation(massive_stack, N)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(pr_stacks(), st.floats(0.05, 1.0))
def test_wavelet_channel_deviation_matches_dense_maps_on_random_stacks(
        case, m):
    drawn, N = case
    stack = LayerStack(drawn.pairs, drawn.squeezes, Harmonic(m))
    got = wavelet_channel_deviation(stack, N)
    want = _dense_channel_deviation(stack, N)
    # the deviations are differences of block entries from 1/2, so their
    # rounding scales with the largest entry
    largest = 0.5 + max(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14 * largest


@pytest.mark.parametrize("which, N, error", [
    ("massless", 256, GaplessUnregulated),
    ("massless", 7, GaplessUnregulated),
    ("massive", 255, LatticeTooSmall),
    ("massive", 8, LatticeTooSmall),
])
def test_wavelet_channel_deviation_refusals(which, N, error, pair_k2l1,
                                            massive_stack):
    stack = (build_stack(Harmonic(0.0), pair_k2l1, 2) if which == "massless"
             else massive_stack)
    for deviation in (wavelet_channel_deviation, _dense_channel_deviation):
        with pytest.raises(error):
            deviation(stack, N)


def test_wavelet_channel_deviation_forms_no_dense_map(massive_stack):
    N = 1024
    wavelet_channel_deviation(massive_stack, N)  # warm caches
    tracemalloc.start()
    try:
        wavelet_channel_deviation(massive_stack, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8  # less than one N x N float64 array


def test_wavelet_channel_deviation_decreases(massive_stack):
    devs = wavelet_channel_deviation(massive_stack, 256)
    assert len(devs) == 5
    assert devs[0] < 1e-5  # already small at the first layer
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-12  # monotone down to the arithmetic floor
