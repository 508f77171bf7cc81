"""Binary-circuit factorization: round trip, gate identities, symplectic maps."""

import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waverg import (BinaryCircuit, DegenerateFactorization, DesignParams,
                    FilterPair, FirFilter, Gate2, Harmonic, LatticeTooSmall,
                    compose, composed_wavelets, decompose, design_pair,
                    WavergError, to_lattice_symplectic)
from waverg import circuit
from waverg.circuit import canonicalize_support

import circuit_reference
from stack_references import random_gate


def max_coeff_diff(a, b):
    lo = min(a.support[0], b.support[0])
    hi = max(a.support[1], b.support[1])
    return max(abs(a[n] - b[n]) for n in range(lo, hi + 1))


def test_haar_roundtrip(haar):
    circ = decompose(haar)
    assert circ.depth == 1
    rec = compose(circ)
    assert max_coeff_diff(rec.g_s.shift(-circ.shift), haar.g_s) < 1e-12
    assert max_coeff_diff(rec.h_s.shift(-circ.shift), haar.h_s) < 1e-12


def test_designed_roundtrip_and_depth(designs):
    for (K, L), (pair, _) in designs.items():
        circ = decompose(pair)
        assert circ.depth == K + 2 * L
        for g in circ.gates:
            assert g.det == pytest.approx(1.0, abs=1e-12)
        rec = compose(circ)
        assert max_coeff_diff(rec.g_s.shift(-circ.shift), pair.g_s) < 1e-10
        assert max_coeff_diff(rec.h_s.shift(-circ.shift), pair.h_s) < 1e-10


def test_composed_wavelets_match_modulation_rule(pair_k2l4):
    circ = decompose(pair_k2l4)
    g_w, h_w = composed_wavelets(circ)
    assert max_coeff_diff(g_w.shift(-circ.shift), pair_k2l4.g_w) < 1e-10
    assert max_coeff_diff(h_w.shift(-circ.shift), pair_k2l4.h_w) < 1e-10


def _dict_walk(site, gates, use_partner):
    """Reference: gates applied to a sparse impulse on Z, pair by pair."""
    x = {site: 1.0}
    for gate in gates:
        m = gate.inverse_transpose() if use_partner else gate.entries
        start = 0 if gate.parity == "even" else 1
        lo, hi = min(x) - 2, max(x) + 2
        new = dict(x)
        for u in range(lo - ((lo - start) % 2), hi + 1, 2):
            a, b = x.get(u, 0.0), x.get(u + 1, 0.0)
            if a == 0.0 and b == 0.0:
                continue
            new[u] = m[0, 0] * a + m[0, 1] * b
            new[u + 1] = m[1, 0] * a + m[1, 1] * b
        x = new
    c = np.zeros(max(x) - min(x) + 1)
    for n, v in x.items():
        c[n - min(x)] = v
    return FirFilter(min(x), c)


@pytest.fixture(scope="module")
def massive_pairs():
    return [design_pair(Harmonic(m), DesignParams(2, L))[0]
            for m, L in ((0.3, 2), (0.8, 3))]


def test_compose_bit_identical_to_dict_walk(designs, massive_pairs):
    pairs = [pair for pair, _ in designs.values()] + massive_pairs
    for pair in pairs:
        circ = decompose(pair)
        got = compose(circ)
        got_w = composed_wavelets(circ)
        for filt, site, partner in ((got.g_s, 0, False), (got.h_s, 0, True),
                                    (got_w[0], 1, False), (got_w[1], 1, True)):
            want = _dict_walk(site, circ.gates, partner)
            assert filt.offset == want.offset
            assert np.array_equal(filt.coeffs, want.coeffs)


def _dense_gate(gate, N, use_partner):
    """Reference: one gate layer as an N x N matrix."""
    m = gate.inverse_transpose() if use_partner else gate.entries
    out = np.zeros((N, N))
    for u in range(0 if gate.parity == "even" else 1, N, 2):
        i, j = u, (u + 1) % N
        out[i, i], out[i, j], out[j, i], out[j, j] = m.ravel()
    return out


@pytest.mark.parametrize("N", [32, 64])
def test_lattice_symplectic_matches_dense_gate_product(N, pair_k2l4,
                                                       massive_pairs):
    for pair in (pair_k2l4, *massive_pairs):
        circ = BinaryCircuit(decompose(pair).gates, squeeze=1.3)
        A, B = to_lattice_symplectic(circ, N)
        want_A, want_B = 1.3 * np.eye(N), np.eye(N) / 1.3
        for gate in circ.gates:
            want_A = _dense_gate(gate, N, False) @ want_A
            want_B = _dense_gate(gate, N, True) @ want_B
        np.testing.assert_allclose(A.matrix, want_A, rtol=0, atol=1e-15)
        np.testing.assert_allclose(B.matrix, want_B, rtol=0, atol=1e-15)


def test_lattice_symplectic_identity(pair_k2l4):
    circ = decompose(pair_k2l4)
    A, B = to_lattice_symplectic(circ, 256)
    assert np.max(np.abs(A.matrix @ B.matrix.T - np.eye(256))) < 1e-12


def test_lattice_symplectic_squeeze(haar):
    circ = decompose(haar)
    circ2 = BinaryCircuit(circ.gates, squeeze=2.0)
    A, B = to_lattice_symplectic(circ2, 16)
    A1, _ = to_lattice_symplectic(circ, 16)
    np.testing.assert_allclose(A.matrix, 2.0 * A1.matrix, atol=1e-12)
    assert np.max(np.abs(A.matrix @ B.matrix.T - np.eye(16))) < 1e-12


def test_lattice_too_small(haar):
    with pytest.raises(LatticeTooSmall):
        to_lattice_symplectic(decompose(haar), 1)


#: x[n] -> (-1)^(1-n) x[1-n] on a gate's two sites
ALPHA_2X2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def gate_alpha_identity_check(g: Gate2) -> float:
    """max-abs defect of a^{-1} = alpha a^T alpha^{-1}, zero for det = 1."""
    m = g.entries
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / g.det
    conj = ALPHA_2X2 @ m.T @ np.linalg.inv(ALPHA_2X2)
    return float(np.max(np.abs(inv - conj)))


@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
@settings(max_examples=50)
def test_gate_alpha_identity(a, b, c):
    # any det-1 gate satisfies a^{-1} = alpha a^T alpha^{-1}
    d = (1.0 + b * c) / a if abs(a) > 0.1 else None
    if d is None or abs(d) > 1e6:
        return
    g = Gate2(np.array([[a, b], [c, d]]), "even")
    assert g.det == pytest.approx(1.0, abs=1e-9)
    assert gate_alpha_identity_check(g) < 1e-8


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate2(np.eye(2), "sideways")
    with pytest.raises(ValueError):
        BinaryCircuit((Gate2(np.eye(2), "even"),), squeeze=-1.0)


def test_compose_rejects_non_unit_det(haar):
    g = Gate2(2.0 * np.eye(2), "even")
    with pytest.raises(ValueError):
        compose(BinaryCircuit((g,)))


def test_circuit_json_roundtrip(tmp_path, pair_k2l4):
    circ = decompose(pair_k2l4)
    path = tmp_path / "circ.json"
    circ.save(path)
    back = BinaryCircuit.load(path)
    assert back.depth == circ.depth
    assert back.shift == circ.shift
    d = circ.to_json()
    assert d["convention"] == {"scaling_impulse": 0, "wavelet_impulse": 1}
    for g1, g2 in zip(circ.gates, back.gates):
        assert g1.parity == g2.parity
        np.testing.assert_allclose(g1.entries, g2.entries)


def test_canonicalize_support(pair_k2l4):
    shifted = FilterPair(pair_k2l4.g_s.shift(4), pair_k2l4.h_s.shift(4))
    canon, t = canonicalize_support(shifted)
    assert t % 2 == 0
    M = (canon.support_length() + 1) // 2  # the narrowest window [-M+1, M]
    lo = min(canon.g_s.support[0], canon.h_s.support[0])
    hi = max(canon.g_s.support[1], canon.h_s.support[1])
    assert lo >= -M + 1 and hi <= M


def test_decompose_rejects_broken_pr(haar):
    # scale is the product of each filter's largest tap, 2^-1/2 * 1.3 2^-1/2
    bad = FilterPair(haar.g_s, haar.h_s.scale(1.3))
    with pytest.raises(DegenerateFactorization,
                       match=r"^PR defect 3\.000e-01 exceeds tol_pr \* scale "
                             r"= 6\.500e-09: the pair is not perfect "
                             r"reconstruction$"):
        decompose(bad)


GAUGES = [1e-160, 1e-20, 1e-4, 1e4, 1e20, 1e160, 1e300]


@pytest.mark.parametrize("KL", [(1, 1), (2, 4)])
@pytest.mark.parametrize("a", GAUGES)
def test_decompose_factors_every_gauge(KL, a, designs):
    # g -> a g, h -> h / a keeps PR: the gauged pair factors either way,
    # also where the corner threshold 1e-14 scale_g^2 is past the float range
    pair = designs[KL][0]
    for b in (a, 1 / a):
        gauged = FilterPair(pair.g_s.scale(b), pair.h_s.scale(1 / b))
        circ = decompose(gauged)
        rec = compose(circ)
        for want, got in ((gauged.g_s, rec.g_s), (gauged.h_s, rec.h_s)):
            assert max_coeff_diff(got.shift(-circ.shift), want) \
                <= 1e-12 * np.max(np.abs(want.coeffs))


@pytest.mark.parametrize("j", [-531, -13, 13, 531])
def test_decompose_power_of_two_gauge_scales_only_the_last_gate(j, designs):
    # an exact gauge 2^j: every gate but a_1 is bit-identical, and a_1's
    # columns scale by 2^j and 2^-j
    pair = designs[2, 4][0]
    gauged = FilterPair(FirFilter(pair.g_s.offset,
                                  np.ldexp(pair.g_s.coeffs, j)),
                        FirFilter(pair.h_s.offset,
                                  np.ldexp(pair.h_s.coeffs, -j)))
    want, got = decompose(pair), decompose(gauged)
    assert np.array_equal(got.gates[0].entries,
                          np.ldexp(want.gates[0].entries, [j, -j]))
    for x, y in zip(got.gates[1:], want.gates[1:], strict=True):
        assert np.array_equal(x.entries, y.entries)


@pytest.mark.parametrize("a", [1.0] + GAUGES)
def test_decompose_refuses_non_pr_pair_under_every_gauge(a, haar):
    # PR defect 0.1 whatever the gauge: the tolerance follows the pair
    bad = FilterPair(haar.g_s.scale(a), haar.h_s.scale(1.1 / a))
    with pytest.raises(DegenerateFactorization,
                       match=r"^PR defect 1\.000e-01 exceeds tol_pr \* scale "
                             r"= 5\.500e-09"):
        decompose(bad)


@pytest.mark.parametrize("which", ["haar", "k2l2"])
def test_decompose_odd_shift_is_not_called_a_pr_defect(which, haar, designs):
    # an odd shift widens the canonical window past half the support; the
    # peel must see every tap of the PR pair, then factor it or name a
    # degenerate corner
    pair = haar if which == "haar" else designs[(2, 2)][0]
    shifted = FilterPair(pair.g_s.shift(1), pair.h_s.shift(1))
    assert shifted.pr_residual < 1e-12
    try:
        circ = decompose(shifted)
    except DegenerateFactorization as err:
        assert "PR defect" not in str(err)
        assert "degenerate corner determinant" in str(err)
        return
    rec = compose(circ)
    assert max_coeff_diff(rec.g_s.shift(-circ.shift), shifted.g_s) <= 1e-12
    assert max_coeff_diff(rec.h_s.shift(-circ.shift), shifted.h_s) <= 1e-12


def test_decompose_rejects_nonfinite_tap(haar):
    bad = FilterPair(FirFilter(0, [np.nan, haar.g_s.coeffs[1]]), haar.h_s)
    with pytest.raises(DegenerateFactorization, match="nan"):
        decompose(bad)


def test_to_float_past_the_float_range_is_infinite():
    # an int past the float range is signed infinity, not an OverflowError
    # from converting it
    for sign in (1, -1):
        assert circuit._to_float(sign * (1 << 2000), 10) == sign * np.inf
    assert circuit._to_float(-3 << 10, 10) == -3.0


def _mp_pr_residual(g, h, M):
    """Reference: the PR defect [n = 0] - sum_j g[2n + j] h[j], term by term."""
    r = mp.matrix(2 * M - 1, 1)
    for i, n in enumerate(range(-(M - 1), M)):
        acc = mp.mpf(0)
        for j in range(2 * M):
            if 0 <= 2 * n + j < 2 * M:
                acc += g[2 * n + j] * h[j]
        r[i] = (mp.mpf(1) if n == 0 else mp.mpf(0)) - acc
    return r


def _lu_newton_project(gd, hd, M, tol, max_steps=None):
    """Reference: the former projection, 8 Newton steps that re-form the
    Jacobian J in the working precision and LU-solve J J^T every step."""
    g = [mp.mpf(float(v)) for v in gd]
    h = [mp.mpf(float(v)) for v in hd]
    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    first = None
    for _ in range(8):
        r = _mp_pr_residual(g, h, M)
        worst = max(abs(v) for v in r)
        if first is None:
            first = worst
        if worst < target:
            break
        J = mp.matrix(2 * M - 1, 4 * M)
        for i, n in enumerate(range(-(M - 1), M)):
            for j in range(2 * M):
                idx = 2 * n + j
                if 0 <= idx < 2 * M:
                    J[i, idx] += h[j]
                    J[i, 2 * M + j] += g[idx]
        delta = J.T * mp.lu_solve(J * J.T, r)
        for j in range(2 * M):
            g[j] += delta[j]
            h[j] += delta[2 * M + j]
    if float(first) > tol:
        raise DegenerateFactorization(M, float(first))
    return g, h


def test_decompose_gates_equal_lu_newton_reference(designs, massive_pairs,
                                                   monkeypatch):
    # the extended-precision peel, projected by full Newton steps, emits the
    # same float gates as the fixed-point peel
    pairs = [designs[K, L][0] for K, L in ((1, 1), (2, 1), (1, 2))]
    pairs += massive_pairs
    got = [decompose(pair) for pair in pairs]
    monkeypatch.setattr(circuit_reference, "_pr_project_mp",
                        _lu_newton_project)
    for pair, circ in zip(pairs, got):
        want = circuit_reference.decompose(pair)
        assert circ.depth == want.depth
        for a, b in zip(circ.gates, want.gates):
            assert a.parity == b.parity
            assert np.array_equal(a.entries, b.entries)


def _window(pair):
    """The canonical window of a pair and decompose's working precision."""
    pair_c, _ = canonicalize_support(pair)
    # the window decompose takes from the canonical pair
    lo = min(pair_c.g_s.support[0], pair_c.h_s.support[0])
    M = max(1 - lo, pair_c.g_s.support[1], pair_c.h_s.support[1])
    gd, hd = circuit._window_arrays(pair_c, M)
    return M, gd, hd, max(60, 30 + 8 * M)


def test_projection_reaches_target_with_defect_sized_correction(designs):
    for (K, L), (pair, _) in designs.items():
        M, gd, hd, dps = _window(pair)
        g, h = circuit._pr_project(gd, hd, M, 1e-8, dps)
        bits = circuit._fraction_bits(dps, gd, hd)
        # the fixed-point taps and their products are exact at this precision
        with mp.workprec(4 * bits + 64):
            gm = [mp.ldexp(mp.mpf(v), -bits) for v in g]
            hm = [mp.ldexp(mp.mpf(v), -bits) for v in h]
            reached = max(abs(v) for v in _mp_pr_residual(gm, hm, M))
            assert reached < mp.mpf(10) ** (-(dps - 10)), (K, L)
            correction = max(abs(float(a - b)) for a, b in
                             zip(gm + hm, np.concatenate([gd, hd])))
        assert 0 < correction <= 10 * pair.pr_residual, (K, L)


def test_projection_step_cap_raises_typed_error(pair_k2l4):
    M, gd, hd, dps = _window(pair_k2l4)
    with pytest.raises(DegenerateFactorization,
                       match="within its step cap 1") as err:
        circuit._pr_project(gd, hd, M, 1e-8, dps, max_steps=1)
    # one step leaves about eps * cond(J) of the defect: far above target
    assert 0 < err.value.det < 1e-3 * pair_k2l4.pr_residual


def _outcome(peel, pair):
    """A peel's gates, or the type and text of its refusal."""
    try:
        circ = peel(pair)
    except DegenerateFactorization as err:
        return type(err), str(err)
    return circ.shift, [(g.parity, g.entries) for g in circ.gates]


def _assert_same_peel(pair, bit_for_bit=True):
    """The fixed-point peel emits the mpmath peel's gates, or its refusal.

    Without ``bit_for_bit`` a refusal's numbers may differ, and a gate
    entry below 1e-20 of the gate's largest entry need only agree to 1e-40
    of that entry.  The mpmath peel holds each value to 203 bits relative to
    itself, so where the taps span far more than a float's range of digits
    (sizes 1 and 1e-48, say) it moves the small ones in the last float bits
    when it corrects the large ones; the fixed-point peel holds every tap to
    at least as many bits.
    """
    got = _outcome(decompose, pair)
    want = _outcome(circuit_reference.decompose, pair)
    if isinstance(want[0], type) or isinstance(got[0], type):
        if bit_for_bit:
            assert got == want
        else:
            number = re.compile(r"-?\d\.\d{3}e[-+]\d+")
            assert got[0] == want[0]
            assert number.sub("#", got[1]) == number.sub("#", want[1])
        return
    assert got[0] == want[0]
    assert [p for p, _ in got[1]] == [p for p, _ in want[1]]
    for (_, a), (_, b) in zip(got[1], want[1]):
        if bit_for_bit:
            assert np.array_equal(a, b)
            continue
        large = np.abs(b) >= 1e-20 * np.max(np.abs(b))
        assert np.array_equal(a[large], b[large])
        assert np.max(np.abs(a - b)) <= 1e-40 * np.max(np.abs(b))


def test_decompose_bit_identical_to_mpmath_peel_on_designs(designs):
    for pair, _ in designs.values():
        _assert_same_peel(pair)


@given(st.floats(0.05, 1.0), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=12, deadline=None)
def test_decompose_bit_identical_to_mpmath_peel_on_massive_designs(m, K, L):
    try:
        pair, _ = design_pair(Harmonic(m), DesignParams(K, L))
    except WavergError:
        assume(False)
    _assert_same_peel(pair)


@st.composite
def random_pr_pairs(draw):
    gates = [random_gate(draw, ("even", "odd")[i % 2])
             for i in range(draw(st.integers(1, 6)))]
    return compose(BinaryCircuit(gates))


@given(random_pr_pairs())
@settings(max_examples=40, deadline=None)
def test_decompose_matches_mpmath_peel_on_random_pairs(pair):
    # bit for bit where every tap lies within 1e40 of the largest one
    taps = np.abs(np.concatenate([pair.g_s.coeffs, pair.h_s.coeffs]))
    _assert_same_peel(pair, bit_for_bit=bool(
        np.max(taps) <= 1e40 * np.min(taps[taps > 0])))


@pytest.mark.parametrize("tap", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["g", "h"])
def test_decompose_refuses_every_nonfinite_tap(tap, where, pair_k2l1):
    g, h = pair_k2l1.g_s.coeffs.copy(), pair_k2l1.h_s.coeffs.copy()
    (g if where == "g" else h)[1] = tap
    bad = FilterPair(FirFilter(pair_k2l1.g_s.offset, g),
                     FirFilter(pair_k2l1.h_s.offset, h))
    with pytest.raises(DegenerateFactorization,
                       match=r"^PR defect nan exceeds tol_pr \* scale = "):
        decompose(bad)
