"""Filter-pair design: all-pass phase, rational fit, half-band, factorization."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import waverg.design
from waverg import (DesignParams, Dispersion, Harmonic, NonFiniteFilter,
                    NoSolution, NotAdmissible, NotNonnegative, Tabulated,
                    WavergError, build_stack, design_pair, epsilon_of, flow,
                    haar_pair, halfband_solve, kgrid, rational_approx_fit,
                    rational_approx_massless, spectral_factorize,
                    stability_spectrum, thiran_allpass)
from waverg.design import _binom_factor, layer_epsilons
from waverg.filters import HAAR_SCALING, FirFilter

ROOT2 = np.sqrt(2.0)


def allpass_phase_error(d: FirFilter, L: int, kmax: float) -> float:
    """max |A(k) - e^{-ik/2}| on |k| <= kmax of the all-pass
    A(k) = e^{-iLk} d(-k)/d(k), unit modulus for real d."""
    k = np.linspace(-kmax, kmax, 2048)
    dk = d(k)
    return float(np.max(np.abs(np.exp(-1j * L * k) * np.conj(dk) / dk
                               - np.exp(-0.5j * k))))


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


@pytest.mark.parametrize("K, L", [(1, 1), (2, 2), (3, 4)])
def test_halfband_system_is_the_folded_transfer_block(monkeypatch, K, L):
    # every system the solve builds equals s[2n - j] + s[2n + j] (j > 0) on
    # rows n = 0 .. (S + R - 1) // 2 and unknowns r[0..R], bit for bit
    a, b = rational_approx_massless(L)
    binom = _binom_factor(K)
    s = a.convolve(b).convolve(binom.convolve(binom.reflect()))
    systems = []
    lstsq = np.linalg.lstsq

    def spy(A, rhs, rcond=None):
        systems.append(A)
        return lstsq(A, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    halfband_solve(s)
    S = s.support[1]
    assert systems
    for R, A in zip(range(max(S - 1, 1), S + 16, 2), systems):
        n, j = np.ogrid[:(S + R - 1) // 2 + 1, :R + 1]
        want = s[2 * n - j] + np.where(j > 0, s[2 * n + j], 0.0)
        assert np.array_equal(A, want)


def test_halfband_solve_requires_symmetry():
    with pytest.raises(ValueError):
        halfband_solve(FirFilter(0, np.array([1.0, 2.0])))


def test_halfband_shared_root_is_refused_after_one_solve(monkeypatch):
    # s(z) = z + 1/z and s(-z) = -s(z) share their roots, where
    # s(z) r(z) + s(-z) r(-z) = 2 fails on every window: one lstsq, then
    # NoSolution with the residual and the window it was solved on
    calls = []
    lstsq = np.linalg.lstsq

    def spy(A, rhs, rcond=None):
        calls.append(A.shape)
        return lstsq(A, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    with pytest.raises(NoSolution) as exc:
        halfband_solve(FirFilter(-1, np.array([1.0, 0.0, 1.0])))
    assert len(calls) == 1
    payload = exc.value.payload()
    assert payload["error"] == "NoSolution" and payload["support"] == 1
    assert payload["residual"] == exc.value.residual > 0.1
    assert "on support [-1, 1]" in payload["message"]


@pytest.mark.parametrize("grid", [64, 4096])
def test_spectral_factorize_recovers_modulus(grid):
    f0 = FirFilter(0, np.array([1.0, 0.7, -0.2]))
    r = f0.correlate(f0)  # r(k) = |f0(k)|^2 >= 0
    f = spectral_factorize(r, grid=grid)
    k = kgrid(512)
    np.testing.assert_allclose(np.abs(f(k)), np.abs(f0(k)), atol=1e-8)


@pytest.mark.parametrize("taps", [
    [1.0, 0.0, -1.0],                   # (1 + z)(1 - z): double roots at +-1
    [1.0, 1.0],                         # 1 + z: a double root at -1
    [1.0, -2.0 * np.cos(1.0), 1.0]])    # roots e^{+-i}
def test_spectral_factorize_double_roots_on_the_circle(taps):
    # np.roots may put a double root at z = -1 at angles +-(pi - delta),
    # one cluster across the cut at +-pi
    f0 = FirFilter(0, np.array(taps))
    r = f0.correlate(f0)
    f = spectral_factorize(r)
    k = kgrid(4096)
    rk = np.real(r(k))
    assert np.max(np.abs(np.abs(f(k)) ** 2 - rk)) <= 1e-12 * np.max(rk)


def test_spectral_factorize_rejects_negative():
    # r(k) = cos k dips below zero
    r = FirFilter(-1, np.array([0.5, 0.0, 0.5]))
    with pytest.raises(NotNonnegative) as exc:
        spectral_factorize(r)
    assert exc.value.min_value < -0.9
    assert "at_k" in exc.value.payload()


def test_positivity_tolerance_governs_only_the_sampled_check():
    # r(k) = cos k: a dip within the tolerance passes the sampled check, but
    # its simple roots on the unit circle, at k = +-pi/2, still refuse it
    r = FirFilter(-1, np.array([0.5, 0.0, 0.5]))
    with pytest.raises(NotNonnegative) as exc:
        spectral_factorize(r, tol_positivity=2.0)
    assert abs(exc.value.at_k) == pytest.approx(np.pi / 2)


def test_stability_spectrum_haar():
    eigs = stability_spectrum(HAAR_SCALING)
    assert np.max(np.abs(eigs)) < 2.0
    assert np.min(np.abs(eigs - 1.0)) < 1e-8


def test_stability_requires_vanishing_moment():
    with pytest.raises(NotAdmissible):
        stability_spectrum(FirFilter.delta(0, ROOT2))


def lstsq_stability_spectrum(a_s):
    """Reference: the same restriction as a least-squares solve against the
    difference basis V, columns delta_n - delta_{n+1}."""
    M = max(1, (a_s.support[1] - a_s.support[0] + 2) // 2)
    c = a_s.correlate(a_s)
    dim = 4 * M + 1
    idx = np.arange(-2 * M, 2 * M + 1)
    T = 2.0 * c[2 * idx[:, None] - idx]
    # zero-mean basis: columns delta_n - delta_{n+1}
    V = np.eye(dim, dim - 1) - np.eye(dim, dim - 1, k=-1)
    TV = T @ V
    Tr, *_ = np.linalg.lstsq(V, TV, rcond=None)
    return np.linalg.eigvals(Tr)


def assert_spectra_agree(got, want):
    """Radius within 1e-10 relative, the same stable verdict, and the same
    clusters.  Eigenvalues of either spectrum within 1e-6 of the radius of
    one another, directly or through a chain, form a cluster.  A cluster
    holding an eigenvalue of modulus >= 1e-3 of the radius holds as many of
    each spectrum, and their means agree within 1e-8 of the radius: the mean
    of a cluster is well-conditioned where its members are not (a multiple
    eigenvalue splits by the square or cube root of a rounding error).  An
    isolated eigenvalue is its own mean."""
    radius = np.max(np.abs(want))
    assert abs(np.max(np.abs(got)) - radius) <= 1e-10 * radius
    both = np.concatenate([got, want])
    ours = np.arange(len(both)) < len(got)
    near = np.abs(both[:, None] - both) <= 1e-6 * radius
    label = np.arange(len(both))  # each cluster ends labelled by its least
    while True:
        least = np.min(np.where(near, label, len(both)), axis=1)
        if np.array_equal(least, label):
            break
        label = least
    for c in np.unique(label):
        members = label == c
        if np.max(np.abs(both[members])) >= 1e-3 * radius:
            a, b = both[members & ours], both[members & ~ours]
            assert len(a) == len(b)
            assert abs(a.mean() - b.mean()) <= 1e-8 * radius
    assert (np.max(np.abs(got)) < 2.0) == (radius < 2.0)


@given(st.lists(st.floats(-4, 4, allow_nan=False, width=32), min_size=1,
                max_size=10),
       st.integers(-6, 6))
@example([float(np.float32(1e-6)), 0.0, 0.0, float(np.float32(1e-6)),
          float(np.float32(1e-6))], 0)  # a triple eigenvalue 1/9
# the least-squares reference misses this radius by 1.9e-8 of it
@example([float(np.float32(1e-6)), 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0 ** -8],
         0)
@settings(max_examples=60, deadline=None)
def test_stability_spectrum_matches_least_squares_restriction(q, offset):
    # admissible filters sqrt(2)-normalized (1 + z) q
    q = np.asarray(q)
    assume(abs(q.sum()) >= 0.1 * np.max(np.abs(q)) > 0)
    a_s = FirFilter(offset, np.convolve([1.0, 1.0], q))
    a_s = a_s.scale(ROOT2 / a_s(0.0).real)
    got = stability_spectrum(a_s)
    try:
        assert_spectra_agree(got, lstsq_stability_spectrum(a_s))
    except AssertionError:
        # the reference rounds too; where it disagrees, the restriction in
        # 30-digit arithmetic decides, at the same tolerances
        assert_spectra_agree(got, exact_stability_spectrum(a_s))


def test_stability_spectrum_matches_least_squares_on_designs(designs):
    # both scaling filters of the (K, L) grid at m = 0, 0.2 and 0.5
    pairs = [pair for pair, _ in designs.values()] + [
        design_pair(Harmonic(m), DesignParams(K, L))[0]
        for m in (0.2, 0.5) for K, L in designs]
    for a_s in [f for pair in pairs for f in (pair.g_s, pair.h_s)]:
        assert_spectra_agree(stability_spectrum(a_s),
                             lstsq_stability_spectrum(a_s))


def exact_stability_spectrum(a_s, dps=30):
    """The restricted operator of the float taps in dps-digit arithmetic:
    exact autocorrelation, partial sums of the column differences."""
    with mp.workdps(dps):
        taps = [mp.mpf(float(x)) for x in a_s.coeffs]
        c = {}
        for i, x in enumerate(taps):
            for j, y in enumerate(taps):
                c[i - j] = c.get(i - j, 0) + x * y
        M = max(1, (a_s.support[1] - a_s.support[0] + 2) // 2)
        n = range(-2 * M, 2 * M + 1)
        Tr = mp.matrix(4 * M, 4 * M)
        for col, m in enumerate(n[:-1]):
            acc = mp.mpf(0)
            for row, k in enumerate(n[:-1]):
                acc += 2 * (c.get(2 * k - m, 0) - c.get(2 * k - m - 1, 0))
                Tr[row, col] = acc
        return np.array([complex(e) for e in mp.eig(Tr, left=False,
                                                    right=False)])


def test_stability_spectrum_is_exact_to_rounding(designs):
    # the K3/L4 g filter carries the most ill-conditioned eigenvalue of the
    # massless grid (0.0041); the spectrum agrees with the high-precision one
    # to rounding, where sums from one end of the window miss it by 1.3e-8
    a_s = designs[(3, 4)][0].g_s
    exact = exact_stability_spectrum(a_s)
    got = stability_spectrum(a_s)
    radius = np.max(np.abs(exact))
    for z in exact[np.abs(exact) >= 1e-3 * radius]:
        assert np.min(np.abs(got - z)) <= 1e-12 * radius


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
    # the rational fit samples grid_size // 2 points
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


class _Constant(Dispersion):
    """omega(k) = value everywhere (no Tabulated can hold NaN or inf)."""

    def __init__(self, value):
        self.value = value

    def __call__(self, k):
        out = np.full(np.shape(k), self.value)
        return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("m", [0.0, 1e-11, 4e-11, 0.3])
def test_stack_takes_one_route_at_every_level(m, monkeypatch):
    # the massless route is read from the harmonic form: a near-massless
    # stack takes the fit at every level, also where a level samples within
    # 1e-10 of |sin(k/2)| (m = 1e-11: levels 1 to 3; m = 4e-11: level 1)
    routes = []
    for name, route in (("rational_approx_massless", "all-pass"),
                        ("rational_approx_fit", "fit")):
        def spy(*args, _f=getattr(waverg.design, name), _r=route, **kw):
            routes.append(_r)
            return _f(*args, **kw)
        monkeypatch.setattr(waverg.design, name, spy)
    build_stack(Harmonic(m), DesignParams(2, 2), 6)
    assert routes == ["all-pass" if m == 0 else "fit"] * 6


def test_tabulated_massless_shape_takes_the_fit(monkeypatch):
    # a table of |sin(k/2)| matches the massless shape to rounding, but
    # only the harmonic family carries the form the all-pass route reads
    def refuse(L):
        raise AssertionError("the all-pass route ran")

    monkeypatch.setattr(waverg.design, "rational_approx_massless", refuse)
    k = kgrid(1024)
    _, report = design_pair(Tabulated(k, np.abs(np.sin(k / 2.0))),
                            DesignParams(2, 2))
    assert report.epsilon < 1e-3


@pytest.mark.parametrize("d, shown", [
    (Tabulated(kgrid(16), np.zeros(16)), "omega(pi) = 0"),
    (_Constant(np.nan), "omega(pi) = nan"),
    (_Constant(np.inf), "omega(pi) = inf")])
def test_design_refuses_omega_pi_before_the_fit(d, shown, monkeypatch):
    # the shape test and the fit divide by omega(pi): at 0 the fit's lstsq
    # printed LAPACK messages and failed to converge
    def refuse(*args):
        raise AssertionError("design ran past the omega(pi) check")

    monkeypatch.setattr(waverg.design, "_is_massless_shape", refuse)
    monkeypatch.setattr(waverg.design, "rational_approx_fit", refuse)
    with pytest.raises(ValueError, match="positive, finite omega") as exc:
        design_pair(d, DesignParams(1, 1))
    assert shown in str(exc.value)
    with pytest.raises(ValueError, match="positive, finite omega"):
        layer_epsilons([haar_pair()], [d])
