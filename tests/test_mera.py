"""Layer stacks, exact/MERA covariances, regulated oracles, error bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waverg.mera
from waverg import (DesignParams, FirFilter, Flat, GaplessUnregulated,
                    Harmonic, LayerStack, NotNonnegative, OutOfHypothesis,
                    build_stack, epsilon_of, error_report, exact_covariance,
                    exact_p_profile, exact_q_profile, flow, haar_pair,
                    mass_flow, mera_covariance, multi_layer_map,
                    q_difference_norm, ring_covariance, stack_operator_bound,
                    theorem_bound, wavelet_channel_deviation)
from waverg.errors import LatticeTooSmall
from waverg.filters import decomposition_map, kgrid, placed_gram_rows

from stack_references import pr_stacks, reference_chain


# -- stacks ----------------------------------------------------------------

def test_build_stack_massless_squeezes(designs, massless):
    stack = build_stack(massless, DesignParams(2, 4), 4)
    assert stack.depth == 4
    assert stack.squeezes[0] == pytest.approx(1.0, abs=1e-12)
    for s in stack.squeezes[1:]:
        assert s == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # massless shape is a flow fixed point: every layer gets the same design
    for pair in stack.pairs[1:]:
        np.testing.assert_allclose(pair.g_s.coeffs, stack.pairs[0].g_s.coeffs,
                                   atol=1e-12)


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
    # the offset-0 term diverges, its differences converge: the certificate
    # covers the differences, so it shrinks with the quadrature size
    _, err_small = exact_q_profile(massless, np.array([1, 4, 16]),
                                   quad_points=1 << 12)
    _, err = exact_q_profile(massless, np.array([1, 4, 16]))
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
@given(case=pr_stacks(), data=st.data())
def test_row_reader_matches_entry_formula_on_random_stacks(case, data):
    stack, N = case
    sites = st.integers(-3 * N, 3 * N)
    for row in waverg.mera._covariance_rows(stack, N):
        n = np.array(data.draw(st.lists(sites, min_size=1, max_size=8)))
        m = np.array(data.draw(st.lists(sites, min_size=len(n),
                                        max_size=len(n))))
        read = waverg.mera._row_reader(row)
        assert np.array_equal(read(n, m)[:, 0], _entry(row, n, m))
        for i, j in zip(n.tolist(), m.tolist()):
            assert read(i, j)[0] == _entry(row, i, j)
        width = data.draw(st.integers(1, N))
        got = waverg.mera._row_reader(row, width)(n, m)
        assert np.array_equal(
            got, _entry(row, n[:, None], m[:, None] + np.arange(width)))
        ring = np.arange(N)
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


def test_single_entry_read_copies_no_rows():
    row = np.random.default_rng(7).standard_normal((4, 1 << 14))
    tracemalloc.start()
    try:
        value = waverg.mera._row_reader(row)(-5, 3 << 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value[0] == _entry(row, -5, 3 << 14)
    assert peak < row.nbytes // 64


@pytest.mark.parametrize("P, N", [(1, 8), (4, 32), (8, 8), (16, 256)])
def test_symmetrized_bit_identical_to_fancy_indexed_transpose(P, N):
    row = np.random.default_rng(P * N).standard_normal((P, N))
    blocks = row.reshape(P, N // P, P)
    mirrored = blocks[:, -np.arange(N // P) % (N // P), :].transpose(2, 1, 0)
    want = (0.5 * (blocks + mirrored)).reshape(P, N)
    assert np.array_equal(waverg.mera._symmetrized(row), want)


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


def _shift_invariant_norm(block_row):
    """Spectral norm of a map R that commutes with input shifts by P, from
    the first block row of G = R^T R: eigvalsh on every symbol."""
    P, N = block_row.shape
    n = N // P
    blocks = block_row.reshape(P, n, P).swapaxes(0, 1)
    symbols = np.fft.rfft(blocks, axis=0)
    real = [0, n // 2] if n % 2 == 0 else [0]
    top = np.linalg.eigvalsh(symbols[real].real).max()
    inner = symbols[1:(n + 1) // 2]
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
    keys = list(map(waverg.mera._layer_key, stack.pairs))
    s = stack.squeezes
    L = stack.depth
    walks, out = {}, []
    for l0 in range(L):
        depth = L - l0
        j = next((j for j in walks if keys[l0:] == keys[j:j + depth]
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


@pytest.mark.parametrize("case, N, walks", [
    ("massless_8", 512, 1), ("k1l1_10", 1024, 1), ("massive", 512, 5),
    ("last_squeeze", 256, 5), ("first_squeeze", 256, 1)])
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
    else:  # the first squeeze differs from the rest: every walk reuses walk 0
        stack = LayerStack((pair_k2l4,) * 6, (1.3,) + (r,) * 5, Harmonic(0.0))
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

        def with_nan(filt, N, stride):
            rows = place(filt, N, stride)
            if stride == 4:
                rows = rows.copy()
                rows[-1, 0] = np.nan
            return rows
        monkeypatch.setattr(waverg.mera, "placed_gram_rows", with_nan)
    got = _outcome(stack_operator_bound, stack, N)
    assert got == _outcome(_eigvalsh_operator_bound, stack, N)
    if case.startswith("nan"):  # eigvalsh refuses the NaN symbol, as before
        assert got.startswith("LinAlgError")


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


def test_covariance_rows_place_one_top_scaling_gram(monkeypatch,
                                                    massive_stack):
    calls = []
    place = waverg.mera.placed_gram_rows

    def counting(filt, N, stride):
        calls.append(stride)
        return place(filt, N, stride)

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


@pytest.mark.parametrize("which", ["massless", "massive"])
def test_error_report_deviations_match_rolled_out_covariance(
        which, massive_stack):
    if which == "massless":
        stack = build_stack(Harmonic(0.0), DesignParams(2, 2), 3)
    else:
        stack = massive_stack
    N, quad = 256, 1 << 13
    pairs = ((0, 1), (0, 4), (0, 16), (3, -5), (-7, 2), (40, 41))
    rep = error_report(stack, N, quad_points=quad, pairs_to_check=pairs)
    d = stack.base_dispersion
    cov = mera_covariance(stack, N)
    window = np.arange(-(N // 4), N // 4 + 1)
    offsets = np.arange(N // 2 + 1)
    p_prof, _ = exact_p_profile(d, offsets, quad)
    assert rep.delta_p == _dense_window_deviation(p_prof, cov.p_block, window)
    if d.gapless:
        assert rep.delta_q is None
    else:
        q_prof, _ = exact_q_profile(d, offsets, quad, regulated=False)
        assert rep.delta_q == _dense_window_deviation(q_prof, cov.q_block,
                                                      window)
    deltas = sorted({abs(n - m) for n, m in pairs})
    reg, _ = exact_q_profile(d, np.array(deltas), quad, regulated=True)
    reg = dict(zip(deltas, reg))
    q = cov.q_block
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
