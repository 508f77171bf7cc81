"""Filter algebra, wavelet rule, perfect reconstruction, lattice maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverg import (BinaryCircuit, FilterPair, FirFilter, HAAR_SCALING,
                    LatticeTooSmall, compose, decomposition_map, haar_pair,
                    kgrid, multi_layer_map, pr_residual, wavelet_from_scaling)
from waverg.filters import level_filters

from stack_references import (placed, pr_stacks, random_gate,
                              reference_chain, zero_stuffed_level_filters)

ROOT2 = np.sqrt(2.0)

taps = st.lists(st.floats(-4, 4, allow_nan=False, width=32),
                min_size=1, max_size=8)
offsets = st.integers(-6, 6)


def random_filter(offset, coeffs):
    if not any(coeffs):
        coeffs = list(coeffs) + [1.0]
    return FirFilter(offset, np.array(coeffs))


# -- Fourier convention ----------------------------------------------------

@given(offsets, st.floats(-np.pi, np.pi, allow_nan=False))
def test_delta_fourier_is_pure_phase(n, k):
    f = FirFilter.delta(n)
    assert f(k) == pytest.approx(np.exp(-1j * k * n), abs=1e-12)


@given(st.integers(-40, -1),
       st.lists(st.floats(-4, 4, allow_nan=False, width=32),
                min_size=1, max_size=30),
       st.floats(-20.0, 20.0, allow_nan=False))
@settings(max_examples=50)
def test_fourier_transform_matches_explicit_sum(offset, coeffs, k):
    a = random_filter(offset, coeffs)

    def explicit(kk):
        return sum(c * np.exp(-1j * kk * n)
                   for n, c in zip(a.indices(), a.coeffs))

    tol = 1e-12 * (1.0 + np.sum(np.abs(a.coeffs)))
    val = a(k)
    assert isinstance(val, complex)
    assert abs(val - explicit(k)) <= tol
    ks = np.array([k, -k, k + 2 * np.pi, 3 * np.pi, -7.5, 0.0, np.pi])
    vals = a(ks)
    assert vals.shape == ks.shape
    np.testing.assert_allclose(vals, explicit(ks), rtol=0, atol=tol)
    # periodic in k: points outside [-pi, pi] agree with their image inside
    np.testing.assert_allclose(a(ks + 4 * np.pi), vals, rtol=0, atol=tol)


@given(offsets, taps, offsets, taps)
@settings(max_examples=50)
def test_convolve_matches_fourier_product(o1, c1, o2, c2):
    a, b = random_filter(o1, c1), random_filter(o2, c2)
    k = np.linspace(-np.pi, np.pi, 17)
    lhs = a.convolve(b)(k)
    np.testing.assert_allclose(lhs, a(k) * b(k), atol=1e-9)


@given(offsets, taps)
@settings(max_examples=50)
def test_reflect_and_correlate_fourier_rules(o, c):
    a = random_filter(o, c)
    k = np.linspace(-np.pi, np.pi, 17)
    np.testing.assert_allclose(a.reflect()(k), a(-k), atol=1e-9)
    np.testing.assert_allclose(a.correlate(a)(k), a(k) * a(-k), atol=1e-8)
    np.testing.assert_allclose(a.upsample(3)(k), a(3 * k), atol=1e-9)


@given(offsets, taps)
@settings(max_examples=50)
def test_array_index_matches_scalar(o, c):
    a = random_filter(o, c)
    n = np.arange(a.support[0] - 3, a.support[1] + 4)  # off the support too
    assert isinstance(a[int(n[0])], float)
    assert a[n].tolist() == [a[int(m)] for m in n]
    grid = n[:, None] - 2 * n
    assert a[grid].tolist() == [[a[int(m)] for m in row] for row in grid]


def test_canonical_trim_and_support():
    f = FirFilter(-3, np.array([0.0, 0.0, 2.0, 1.0, 0.0]))
    assert f.support == (-1, 0)
    assert f[-1] == 2.0 and f[0] == 1.0 and f[5] == 0.0
    assert len(f) == 2


# -- wavelet rule ----------------------------------------------------------

@given(offsets, taps)
@settings(max_examples=50)
def test_wavelet_rule_time_domain(o, c):
    b = random_filter(o, c)
    w = wavelet_from_scaling(b)
    lo, hi = w.support
    for n in range(lo - 2, hi + 3):
        assert w[n] == pytest.approx((-1.0) ** ((1 - n) % 2) * b[1 - n])


@given(offsets, taps)
@settings(max_examples=50)
def test_wavelet_rule_frequency_domain(o, c):
    # g_w(k) = exp(-ik) conj(b_s(k + pi)) for real filters
    b = random_filter(o, c)
    w = wavelet_from_scaling(b)
    k = np.linspace(-np.pi, np.pi, 17)
    np.testing.assert_allclose(w(k), np.exp(-1j * k) * np.conj(b(k + np.pi)),
                               atol=1e-9)


def test_haar_pair_is_perfect_reconstruction():
    pair = haar_pair()
    assert pair.pr_residual < 1e-14
    assert pair.g_s[0] == pytest.approx(1 / ROOT2)
    assert pair.support_length() == 2
    # Haar wavelet: g_w[0] = -1/sqrt2, g_w[1] = 1/sqrt2
    assert pair.g_w[0] == pytest.approx(-1 / ROOT2)
    assert pair.g_w[1] == pytest.approx(1 / ROOT2)


def test_pr_residual_detects_broken_pair(haar):
    bad = FilterPair(haar.g_s, haar.h_s.scale(1.1))
    assert bad.pr_residual > 0.05


def test_pair_json_roundtrip(tmp_path, haar):
    p = tmp_path / "pair.json"
    haar.save(p, name="haar")
    back = type(haar).load(p)
    assert back.g_s.offset == haar.g_s.offset
    np.testing.assert_allclose(back.g_s.coeffs, haar.g_s.coeffs)
    np.testing.assert_allclose(back.h_w.coeffs, haar.h_w.coeffs)


# -- lattice maps ----------------------------------------------------------

def test_haar_decomposition_is_orthogonal(haar):
    W = decomposition_map(haar, "g", 16).matrix
    np.testing.assert_allclose(W @ W.T, np.eye(16), atol=1e-12)


def test_decomposition_biorthogonality(pair_k2l4):
    # W_g (W_h)^T = I: lattice form of perfect reconstruction
    N = 64
    Wg = decomposition_map(pair_k2l4, "g", N).matrix
    Wh = decomposition_map(pair_k2l4, "h", N).matrix
    np.testing.assert_allclose(Wg @ Wh.T, np.eye(N), atol=1e-10)


@pytest.mark.parametrize("N", [8, 16, 64])
def test_coarse_layer_folds_aliased_taps(pair_k2l4, N):
    from waverg.filters import _place_rows
    for stride in (2, 4):
        for filt in (pair_k2l4.g_s, pair_k2l4.g_w):
            np.testing.assert_array_equal(_place_rows(filt, N, stride),
                                          placed(filt, N, stride))


@pytest.mark.parametrize("taps", [1, 2, 20, 40, 62, 63, 64, 65, 127, 300])
def test_placed_gram_rows_match_dense_gram(taps):
    # N / 2 = 64: below it the lags fit a smaller ring at some strides; from
    # it on they alias on Z_128, and 300 taps fold onto it
    from waverg.filters import _place_rows, placed_gram_rows
    N = 128
    rng = np.random.default_rng(taps)
    c = rng.standard_normal(taps)
    filt = FirFilter(int(rng.integers(-40, 40)), c / np.linalg.norm(c))
    for stride in (2, 4, 8, 16, 32, 64):
        B = _place_rows(filt, N, stride)
        np.testing.assert_allclose(placed_gram_rows(filt, N, stride),
                                   (B.T @ B)[:stride], rtol=0, atol=1e-15)


def _scattered_gram_rows(filt, N, stride):
    """placed_gram_rows with a fancy-index scatter: the small-ring rows are
    moved into the N columns one index at a time."""
    from waverg.filters import _place_rows
    taps = len(filt)
    n = min(N, -(-(2 * taps - 1) // stride) * stride)
    B = _place_rows(filt, n, stride)
    rows = B[:, :stride].T @ B
    if n == N:
        return rows
    x = np.arange(stride)[:, None]
    cols = x + np.arange(1 - taps, taps)
    out = np.zeros((stride, N))
    out[x, cols % N] = rows[x, cols % n]
    return out


def _check_copied_gram_rows(taps, stride, N, offset, seed):
    from waverg.filters import placed_gram_rows
    c = np.random.default_rng(seed).standard_normal(taps)
    filt = FirFilter(offset, c)
    got = placed_gram_rows(filt, N, stride)
    assert got.shape == (stride, N)
    assert np.array_equal(got, _scattered_gram_rows(filt, N, stride))


@pytest.mark.parametrize("taps, stride, N, offset", [
    (3, 8, 64, 0),        # n == stride
    (10, 1, 20, 5),       # n = 2 taps - 1: taps > n / 2, every lag wraps
    (10, 2, 50, -3),      # N = 50 is not a multiple of n = 20
    (5, 16, 64, -37),     # stride + taps - 1 > n: runs wrap on the right
    (1, 4, 16, -2),       # one tap: no column to fold
    (1, 1, 3, 7),
    (300, 256, 2048, -400),
    (20, 2, 2048, 0),     # the depth-1 K2/L4 wavelet at N = 2048
])
def test_placed_gram_rows_copy_the_scattered_lags(taps, stride, N, offset):
    _check_copied_gram_rows(taps, stride, N, offset, taps + stride)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(0, 8), st.integers(1, 24),
       st.integers(-400, 400), st.integers(0, 2 ** 32 - 1))
def test_placed_gram_rows_copy_the_scattered_lags_random(taps, log_stride,
                                                         rings, offset, seed):
    stride = 1 << log_stride
    # from the smallest ring that keeps the lags apart to well past it
    N = (-(-(2 * taps - 1) // stride) + rings - 1) * stride
    _check_copied_gram_rows(taps, stride, N, offset, seed)


@pytest.mark.parametrize("case", ["folded_k2l4", "massive"])
def test_multi_layer_map_matches_per_layer_product(case, pair_k2l4, massive_stack):
    if case == "folded_k2l4":
        # depth 3 on N = 64: the 20-tap filter wraps the 16-site coarse lattice
        pairs, N, scales = [pair_k2l4] * 3, 64, [1.0, 0.5, 2.0]
    else:
        pairs, N = massive_stack.pairs, 1024
        scales = list(massive_stack.squeezes)
    for channel, sc in (("g", scales), ("h", [1.0 / s for s in scales])):
        got = multi_layer_map(pairs, channel, N, scales=sc).matrix
        np.testing.assert_allclose(got, reference_chain(pairs, channel, N, sc),
                                   rtol=0, atol=1e-14)


def _assert_walks_agree(got, want):
    """Composed filters with the same supports and taps within 1e-14 of the
    largest tap (the summation order differs, so not bit for bit)."""
    for f, g in zip([got[0], *got[1]], [want[0], *want[1]]):
        assert (f.offset, len(f)) == (g.offset, len(g))
        np.testing.assert_allclose(f.coeffs, g.coeffs, rtol=0,
                                   atol=1e-14 * np.max(np.abs(g.coeffs)))


def _channel_scales(squeezes):
    return (("g", list(squeezes)), ("h", [1.0 / s for s in squeezes]))


@settings(max_examples=40, deadline=None)
@given(pr_stacks())
def test_composed_filters_match_references_on_random_stacks(case):
    stack, N = case
    for channel, scales in _channel_scales(stack.squeezes):
        _assert_walks_agree(
            level_filters(stack.pairs, channel, scales),
            zero_stuffed_level_filters(stack.pairs, channel, scales))
        want = reference_chain(stack.pairs, channel, N, scales)
        np.testing.assert_allclose(
            multi_layer_map(stack.pairs, channel, N, scales).matrix, want,
            rtol=0, atol=1e-14 * np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(pr_stacks(), st.integers(0, 3))
def test_placed_gram_rows_match_dense_gram_on_random_stacks(case, widen):
    # the drawn ring is the smallest that fits; the deeper level filters
    # alias on it (2 len - 1 > N), and a ring 2^widen times wider keeps the
    # shallow ones apart
    from waverg.filters import level_walk, placed_gram_rows
    stack, N = case
    N <<= widen
    for channel, scales in _channel_scales(stack.squeezes):
        for l, filters in enumerate(level_walk(stack.pairs, channel, scales)):
            stride = 2 << l
            for f in filters:
                B = placed(f, N, stride)
                want = (B.T @ B)[:stride]
                np.testing.assert_allclose(
                    placed_gram_rows(f, N, stride), want, rtol=0,
                    atol=1e-14 * np.max(np.abs(want)))


def test_level_filters_match_zero_stuffed_walk_on_designs(designs):
    for pair, _ in designs.values():
        for channel, scales in _channel_scales([1.0] + [0.5 ** 0.5] * 9):
            _assert_walks_agree(
                level_filters([pair] * 10, channel, scales),
                zero_stuffed_level_filters([pair] * 10, channel, scales))


def test_decomposition_size_guard(pair_k2l4):
    with pytest.raises(LatticeTooSmall):
        decomposition_map(pair_k2l4, "g", 16)
    with pytest.raises(LatticeTooSmall):
        decomposition_map(pair_k2l4, "g", 65)  # odd


def test_multi_layer_biorthogonality(pair_k2l4):
    N, L = 128, 3
    Rg = multi_layer_map([pair_k2l4] * L, "g", N).matrix
    Rh = multi_layer_map([pair_k2l4] * L, "h", N).matrix
    np.testing.assert_allclose(Rg @ Rh.T, np.eye(N), atol=1e-9)


def test_multi_layer_block_ordering(haar):
    # constant input: all wavelet rows vanish, top scaling rows carry 2^{L/2}
    N, L = 16, 2
    R = multi_layer_map([haar] * L, "g", N).matrix
    out = R @ np.ones(N)
    top = N // 2 ** L
    np.testing.assert_allclose(out[:top], 2.0, atol=1e-12)
    np.testing.assert_allclose(out[top:], 0.0, atol=1e-12)


def test_multi_layer_scales(haar):
    R1 = multi_layer_map([haar] * 2, "g", 16, scales=[2.0, 3.0]).matrix
    R0 = multi_layer_map([haar] * 2, "g", 16).matrix
    # wavelet rows of layer 1 scale by 2, deeper block by 2 * 3
    np.testing.assert_allclose(R1[8:], 2.0 * R0[8:], atol=1e-12)
    np.testing.assert_allclose(R1[:8], 6.0 * R0[:8], atol=1e-12)


def test_numpy_scalar_scales_match_float_scales(pair_k2l4):
    # the protocol first: a filter is not a sequence (its __getitem__ never
    # raises IndexError), so a regression fails here instead of iterating
    # forever in numpy's coercion
    assert FirFilter.__array_ufunc__ is None
    with pytest.raises(TypeError, match="not iterable"):
        iter(pair_k2l4.g_s)
    with pytest.raises(TypeError):
        np.array(pair_k2l4.g_s)
    scaled = np.float64(2.0) * pair_k2l4.g_s
    assert isinstance(scaled, FirFilter)
    assert np.array_equal(scaled.coeffs, 2.0 * pair_k2l4.g_s.coeffs)
    scales = [1.0, 0.5 ** 0.5, 1.3]
    for channel in "gh":
        want = level_filters([pair_k2l4] * 3, channel, scales)
        got = level_filters([pair_k2l4] * 3, channel, np.array(scales))
        for f, g in zip([want[0], *want[1]], [got[0], *got[1]]):
            assert (f.offset, f.coeffs.tobytes()) == (g.offset,
                                                      g.coeffs.tobytes())
        assert np.array_equal(
            multi_layer_map([pair_k2l4] * 3, channel, 64,
                            np.float64(0.9) * np.ones(3)).matrix,
            multi_layer_map([pair_k2l4] * 3, channel, 64, [0.9] * 3).matrix)


@st.composite
def perturbed_pr_pairs(draw):
    """A PR pair composed of 1 to 6 random gates, every tap then moved by
    size to 2 size, size in [1e-6, 1e-2]."""
    gates = [random_gate(draw, ("even", "odd")[i % 2])
             for i in range(draw(st.integers(1, 6)))]
    pair = compose(BinaryCircuit(gates))
    size = draw(st.floats(1e-6, 1e-2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def nudge(f):
        step = rng.uniform(size, 2 * size, len(f)) * rng.choice([-1, 1],
                                                                len(f))
        return FirFilter(f.offset, f.coeffs + step)
    return FilterPair(nudge(pair.g_s), nudge(pair.h_s))


@given(perturbed_pr_pairs())
@settings(max_examples=60, deadline=None)
def test_pr_residual_brackets_the_fourier_form(pair):
    # F(k) = 2 sum_n (c[2n] - delta_0[n]) exp(-2ikn): its sup lies between
    # twice the largest and twice the summed coefficient defects
    g, h = pair.g_s, pair.h_s
    k = kgrid(max(4096, 4 * pair.support_length()))
    fourier = np.max(np.abs(g(k) * np.conj(h(k))
                            + g(k + np.pi) * np.conj(h(k + np.pi)) - 2.0))
    c = g.correlate(h)
    n = np.arange(c.support[0] - 2, c.support[1] + 3)
    n = n[n % 2 == 0]
    summed = float(np.sum(np.abs(c[n] - (n == 0))))
    # F carries an absolute rounding error of a few eps per tap product
    rounding = 1e-14 * pair.support_length() * np.sum(np.abs(g.coeffs)) \
        * np.sum(np.abs(h.coeffs))
    assert 2.0 * pr_residual(pair) <= fourier * (1 + 1e-9) + rounding
    assert fourier <= 2.0 * summed * (1 + 1e-9) + rounding


def test_pr_residual_evaluates_no_symbol(monkeypatch, pair_k2l4, haar):
    def refuse(self, k):
        raise AssertionError("a filter symbol evaluated for the PR defect")

    pairs = [pair_k2l4, FilterPair(haar.g_s, haar.h_s.scale(1.1))]
    want = [pr_residual(p) for p in pairs]
    monkeypatch.setattr(FirFilter, "__call__", refuse)
    assert [pr_residual(p) for p in pairs] == want
    assert FilterPair(pair_k2l4.g_s, pair_k2l4.h_s).pr_residual == want[0]
