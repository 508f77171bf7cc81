"""Layer stacks, exact/MERA covariances, regulated oracles, error bounds."""

import tracemalloc

import numpy as np
import pytest

import waverg.mera
from waverg import (DesignParams, Flat, GaplessUnregulated, Harmonic,
                    LayerStack, NotNonnegative, OutOfHypothesis, build_stack,
                    epsilon_of, error_report, exact_covariance,
                    exact_p_profile, exact_q_profile, flow, haar_pair,
                    mass_flow, mera_covariance, multi_layer_map,
                    q_difference_norm, ring_covariance, stack_operator_bound,
                    theorem_bound, wavelet_channel_deviation)
from waverg.errors import LatticeTooSmall
from waverg.filters import decomposition_map, placed_gram_rows


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


def test_ring_matches_infinite_chain_when_gapped():
    d = Harmonic(1.0)
    ring = ring_covariance(d, 64)
    toep = exact_covariance(d, 64, regulated=False)
    # agreement up to exponentially small finite-size corrections
    assert np.max(np.abs(ring.q_block[:8, :8] - toep.q_block[:8, :8])) < 1e-10
    assert np.max(np.abs(ring.p_block[:8, :8] - toep.p_block[:8, :8])) < 1e-10


def test_ring_covariance_matches_dense_cosine_sum():
    d, N = Harmonic(0.7), 64
    k = 2.0 * np.pi * np.arange(N) / N
    w = np.asarray(d(k))
    cosmat = np.cos(np.outer(np.arange(N), k))
    dist = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    dist = np.minimum(dist, N - dist)
    ring = ring_covariance(d, N)
    np.testing.assert_allclose(ring.q_block, (cosmat @ (0.5 / w) / N)[dist],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(ring.p_block, (cosmat @ (0.5 * w) / N)[dist],
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


def _all_walks_operator_bound(stack, N):
    """The operator bound with one Gram walk per first layer, no reuse."""
    worst = 0.0
    for l0 in range(stack.depth):
        sg = stack.squeezes[l0:]
        for channel, scales in (("g", sg), ("h", [1.0 / s for s in sg])):
            for rows, scaling in waverg.mera._gram_block_rows(
                    stack.pairs[l0:], channel, N, scales):
                rows = rows + placed_gram_rows(scaling, N, len(rows))
                worst = max(worst, waverg.mera._shift_invariant_norm(rows))
    return worst


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
