"""Filter design: match a biorthogonal pair to a dispersion relation.

Pipeline: rational approximation a(k)/b(k) of the shifted dispersion
omega(k+pi)/omega(pi) (all-pass construction for the massless chain, weighted
cosine-polynomial fit otherwise), a half-band linear solve for the product
filter r, spectral factorization r = f(k) f(-k), and assembly

    g_s(k) = b(k) (1 + e^{ik})^K f(k),
    h_s(k) = a(k) (1 + e^{ik})^K f(k),

which satisfies perfect reconstruction by the half-band condition and
approximately satisfies the disentangling relation g_w = (omega/omega(pi)) h_w.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lgamma

import numpy as np

from .dispersion import Dispersion, Harmonic
from .errors import (NonFiniteFilter, NoSolution, NormalizationFailure,
                     NotAdmissible, NotNonnegative)
from .filters import ROOT2, FilterPair, FirFilter, halfband_defect, kgrid


@dataclass(frozen=True)
class DesignParams:
    """K vanishing moments, all-pass / rational degree L; support is 2(K+2L).
    ``grid_size`` sets the fit and positivity grids, not epsilon's."""

    K: int
    L: int
    tol_positivity: float = 1e-10
    grid_size: int = 4096

    def __post_init__(self):
        if self.K < 1 or self.L < 1:
            raise ValueError("K and L must be >= 1")
        if self.grid_size < 4:  # the massless check samples grid_size // 4
            raise ValueError(f"grid_size must be >= 4, got {self.grid_size}")

    @property
    def M(self) -> int:
        return self.K + 2 * self.L


@dataclass
class DesignReport:
    """Quality record of one designed pair: filter-relation defect, PR
    residual, positivity margin and transfer spectra of both channels."""

    K: int
    L: int
    epsilon: float
    pr_residual: float
    positivity_min: float
    stability_eigs_g: np.ndarray
    stability_eigs_h: np.ndarray
    g0: float = ROOT2
    h0: float = ROOT2

    @property
    def stability_max_abs(self) -> float:
        return float(max(np.max(np.abs(self.stability_eigs_g)),
                         np.max(np.abs(self.stability_eigs_h))))

    @property
    def stable(self) -> bool:
        return self.stability_max_abs < 2.0

    def to_json(self) -> dict:
        return {
            "K": self.K, "L": self.L,
            "epsilon": self.epsilon,
            "pr_residual": self.pr_residual,
            "positivity_min": self.positivity_min,
            "stability_max_abs_eig": self.stability_max_abs,
            "stable": self.stable,
            "g0": self.g0, "h0": self.h0,
            "stability_eigs_g": [[z.real, z.imag] for z in self.stability_eigs_g],
            "stability_eigs_h": [[z.real, z.imag] for z in self.stability_eigs_h],
        }


# ---------------------------------------------------------------------------
# all-pass construction (massless chain)
# ---------------------------------------------------------------------------

def thiran_allpass(L: int) -> FirFilter:
    """Degree-L denominator d of the half-sample-delay all-pass filter.

    Maximal flatness of the phase of A(k) = e^{-iLk} d(-k)/d(k) around
    e^{-ik/2} at k = 0 is the linear condition
    sum_n d[n] ((2L-1)/4 - n)^j = 0 for odd j = 1, 3, ..., 2L-1, whose
    solution is Thiran's closed form for fractional delay 1/2:
    d[n] = (-1)^n C(L, n) prod_m (1/2 - L + m) / (1/2 - L + n + m).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    D = 0.5
    d = np.empty(L + 1)
    m = np.arange(L + 1, dtype=np.float64)
    num = D - L + m
    for n in range(L + 1):
        d[n] = (-1.0) ** n * comb(L, n) * np.prod(num / (D - L + n + m))
    return FirFilter(0, d)


def allpass_response(d: FirFilter, L: int, k: np.ndarray) -> np.ndarray:
    """A(k) = e^{-iLk} d(-k)/d(k); unit modulus for real d."""
    dk = d(k)
    return np.exp(-1j * L * k) * np.conj(dk) / dk


def allpass_phase_error(d: FirFilter, L: int,
                        kmax: float = 0.9 * np.pi) -> float:
    k = np.linspace(-kmax, kmax, 2048)
    return float(np.max(np.abs(allpass_response(d, L, k) - np.exp(-0.5j * k))))


def rational_approx_massless(L: int) -> tuple[FirFilter, FirFilter]:
    """Symmetric (a, b) on [-L, L] with a/b = Re A(k) ~ cos(k/2).

    cos(k/2) equals the shifted massless dispersion |sin((k+pi)/2)| on
    (-pi, pi), which is what the filter ansatz needs near k = 0.
    """
    d = thiran_allpass(L)
    dd = d.convolve(d).shift(-L)            # e^{iLk} d(k)^2 under our convention
    a = 0.5 * (dd + dd.reflect())
    b = d.correlate(d)                      # d(k) d(-k), symmetric on [-L, L]
    return a, b


# ---------------------------------------------------------------------------
# rational fit (general dispersion)
# ---------------------------------------------------------------------------

def _cosine_poly(coeffs: np.ndarray) -> FirFilter:
    """sum_j c_j cos(jk) as a symmetric filter."""
    L = len(coeffs) - 1
    taps = np.zeros(2 * L + 1)
    taps[L] = coeffs[0]
    for jj in range(1, L + 1):
        taps[L + jj] += coeffs[jj] / 2.0
        taps[L - jj] += coeffs[jj] / 2.0
    return FirFilter(-L, taps)


def rational_approx_fit(d: Dispersion, L: int,
                        grid: int = 2048) -> tuple[FirFilter, FirFilter]:
    """Weighted least-squares cosine-polynomial fit a/b ~ omega(k+pi)/omega(pi).

    Weight is concentrated near k = 0 (only the low-frequency behaviour
    matters for the ansatz); b is pinned to b(0) = 1 and must stay positive
    on the grid, else the fit is retried with a tighter weight.
    """
    k = np.linspace(-np.pi, np.pi, grid)
    target = np.asarray(d(k + np.pi)) / d.omega_pi
    cos_jk = np.cos(np.outer(k, np.arange(L + 1)))     # grid x (L+1)
    for width in (np.pi / 2, np.pi / 3, np.pi / 4, np.pi / 6):
        w = np.exp(-(k / width) ** 2)
        # unknowns: alpha_0..alpha_L, beta_1..beta_L with
        # b(k) = 1 + sum beta_j (cos jk - 1)
        A_alpha = cos_jk * w[:, None]
        A_beta = -(cos_jk[:, 1:] - 1.0) * (target * w)[:, None]
        design = np.hstack([A_alpha, A_beta])
        rhs = target * w
        sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        alpha = sol[:L + 1]
        a = _cosine_poly(alpha)
        b_coeffs = np.concatenate(([1.0 - np.sum(sol[L + 1:])], sol[L + 1:]))
        b = _cosine_poly(b_coeffs)
        bk = np.real(b(k))
        if np.min(bk) > 1e-8 and np.real(a(0.0)) > 0:
            return a, b
    raise NormalizationFailure(
        f"could not fit a positive rational approximation at degree {L}")


# ---------------------------------------------------------------------------
# half-band solve and spectral factorization
# ---------------------------------------------------------------------------

def _finite(stage: str, *values):
    """NonFiniteFilter naming ``stage`` unless every value is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise NonFiniteFilter(stage)


def halfband_solve(s: FirFilter) -> FirFilter:
    """Symmetric r with sum_l s[2n - l] r[l] = delta_0[n] (s * r half-band).

    Starts from the minimal symmetric window [-(S-1), S-1] for s on [-S, S]
    and grows by 2, at most 8 times, until the substituted residual is
    below 1e-9.  Symmetry is checked relative to the largest tap (at least
    1), since the taps of s grow like the binomials C(2K, K); an s or a
    system past the double range is a NonFiniteFilter.
    """
    _finite("half-band target s", s.coeffs)
    if not s.is_symmetric(1e-9 * max(1.0, float(np.max(np.abs(s.coeffs))))):
        raise ValueError("s must be symmetric")
    S = s.support[1]
    if S == 0:
        return FirFilter.delta(0, 1.0 / s[0])
    best = None
    for R in range(max(S - 1, 1), S + 16, 2):
        # unknowns r[0..R]; rows are the even-index entries of s * r
        nmax = (S + R - 1) // 2
        n, jj = np.ogrid[:nmax + 1, :R + 1]
        with np.errstate(over="ignore"):
            A = s[2 * n - jj] + np.where(jj > 0, s[2 * n + jj], 0.0)
        _finite("half-band system of s", A)
        rhs = np.zeros(nmax + 1)
        rhs[0] = 1.0
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        taps = np.concatenate([sol[:0:-1], sol])
        r = FirFilter(-R, taps)
        res = halfband_defect(s.convolve(r))
        if best is None or res < best[0]:
            best = (res, r)
        if res < 1e-9:
            return r
    raise NoSolution(best[0], S + 15)


def spectral_factorize(r: FirFilter, tol_positivity: float = 1e-10,
                       grid: int = 4096) -> FirFilter:
    """Real f with f(k) f(-k) = r(k), roots taken inside the closed unit disk.

    Roots within 1e-7 of the unit circle must occur with even multiplicity
    and are split evenly; conjugate pairs stay together so f is real.  Requires r(k) >= 0 on the
    grid (up to tol), which is not guaranteed by the construction upstream.
    """
    if not r.is_symmetric(1e-9):
        raise ValueError("r must be symmetric")
    k = kgrid(grid)
    rk = np.real(r(k))
    imin = int(np.argmin(rk))
    if rk[imin] < -tol_positivity:
        raise NotNonnegative(float(rk[imin]), float(k[imin]))
    R = r.support[1]
    if R == 0:
        return FirFilter.delta(0, float(np.sqrt(max(r[0], 0.0))))
    # p(z) = z^R r(k) with z = e^{ik}; roots pair as (z, 1/z)
    poly = r.coeffs[::-1]  # highest power of z first
    roots = np.roots(poly)
    inside = roots[np.abs(roots) < 1.0 - 1e-7]
    on_circle = roots[np.abs(np.abs(roots) - 1.0) <= 1e-7]
    selected = list(inside)
    # cluster circle roots by angle; take half of each cluster
    if on_circle.size:
        angles = np.sort(np.angle(on_circle))
        clusters: list[list[float]] = []
        for ang in angles:
            if clusters and abs(ang - clusters[-1][-1]) < 1e-4:
                clusters[-1].append(ang)
            else:
                clusters.append([ang])
        for cl in clusters:
            if len(cl) % 2 != 0:
                raise NotNonnegative(float(rk[imin]), float(-np.mean(cl)))
            mean = np.mean(cl)
            selected.extend([np.exp(1j * mean)] * (len(cl) // 2))
    if len(selected) != R:
        raise NotNonnegative(float(rk[imin]), float(k[imin]))
    f0 = np.real(np.poly(np.array(selected)))
    f = FirFilter(0, f0)
    # fix the overall scale at the maximum of r (well-conditioned there)
    istar = int(np.argmax(rk))
    ff = np.real(f(k[istar]) * f(-k[istar]))
    c2 = rk[istar] / ff
    if c2 <= 0:
        raise NotNonnegative(float(rk[imin]), float(k[imin]))
    f = f.scale(np.sqrt(c2))
    if np.real(f(0.0)) < 0:
        f = f.scale(-1.0)
    return f


# ---------------------------------------------------------------------------
# transfer-operator stability
# ---------------------------------------------------------------------------

def stability_spectrum(a_s: FirFilter) -> np.ndarray:
    """Eigenvalues of the downsampled autocorrelation operator on zero-mean polys.

    T[n, m] = 2 c[2n - m] with c the autocorrelation of a_s, restricted to the
    span of {delta_n - delta_{n+1}}; all moduli below 2 certify square-integrable
    scaling functions and uniformly bounded decomposition maps.
    """
    if abs(a_s(np.pi)) > 1e-6:
        raise NotAdmissible(
            f"filter has a_s(pi) = {abs(a_s(np.pi)):.3e}, needs a vanishing moment")
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


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _binom_factor(K: int) -> FirFilter:
    """(1 + e^{ik})^K: tap C(K, j) at position -j."""
    return FirFilter(-K, np.array([comb(K, K - i) for i in range(K + 1)],
                                  dtype=np.float64))


def epsilon_of(pair: FilterPair, d: Dispersion) -> float:
    """max_k |g_w(k) - (omega(k)/omega(pi)) h_w(k)| on the uniform grid
    ``kgrid()`` of 4096 points."""
    return layer_epsilons([pair], [d])[0]


def layer_epsilons(pairs, levels) -> list[float]:
    """epsilon_of of each (pair, level) of a stack.  The wavelet symbols
    g_w(k), h_w(k) are evaluated once per distinct pair object, and each
    level's ratio omega(k)/omega(pi) is applied to the shared arrays."""
    k = kgrid()
    symbols = {}  # id(pair) -> (g_w(k), h_w(k)); the pairs outlive the loop
    out = []
    for pair, d in zip(pairs, levels):
        wpi = d.omega_pi
        if wpi <= 0:
            raise ValueError("dispersion must have omega(pi) > 0")
        if id(pair) not in symbols:
            symbols[id(pair)] = pair.g_w(k), pair.h_w(k)
        g_w, h_w = symbols[id(pair)]
        ratio = np.asarray(d(k)) / wpi
        out.append(float(np.max(np.abs(g_w - ratio * h_w))))
    return out


def _is_massless_shape(d: Dispersion, grid: int) -> bool:
    """True if omega(k)/omega(pi) equals |sin(k/2)| (the gapless fixed point).

    Renormalized gapless dispersions keep this shape with a different overall
    scale, and should reuse the all-pass construction rather than the fit.
    """
    if isinstance(d, Harmonic):
        return d.m == 0.0
    k = kgrid(grid)
    return bool(np.max(np.abs(np.asarray(d.normalized(k)) -
                              np.abs(np.sin(k / 2.0)))) < 1e-10)


def design_pair(d: Dispersion, params: DesignParams) -> tuple[FilterPair, DesignReport]:
    """Run the full design pipeline against omega/omega(pi).

    A stage that leaves the double range (large K or L) is refused as
    NonFiniteFilter before the half-band solve, with no numpy warning.
    """
    K, L = params.K, params.L
    # log C(2K, K), the largest tap of the moment factor (2 + 2 cos k)^K
    if lgamma(2 * K + 1) - 2 * lgamma(K + 1) > np.log(np.finfo(float).max):
        raise NonFiniteFilter(f"moment factor (2 + 2 cos k)^{K}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if _is_massless_shape(d, params.grid_size // 4):
            a, b = rational_approx_massless(L)
        else:
            a, b = rational_approx_fit(d, L, grid=params.grid_size // 2)
        a0, b0 = float(np.real(a(0.0))), float(np.real(b(0.0)))
    _finite(f"rational approximation a/b of degree {L}", a.coeffs, b.coeffs,
            a0, b0)
    if a0 <= 0 or b0 <= 0:
        raise NormalizationFailure(f"a(0) = {a0:.3e}, b(0) = {b0:.3e}")
    # joint rescale (preserves a/b) keeps coefficients O(1) for the linear
    # algebra below; the final normalization fixes the scale anyway
    scale_ab = 1.0 / max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)))
    a, b = a.scale(scale_ab), b.scale(scale_ab)

    binom = _binom_factor(K)
    cosfac = binom.convolve(binom.reflect())        # (2 + 2 cos k)^... per K
    s = a.convolve(b).convolve(cosfac)
    r = halfband_solve(s)
    f = spectral_factorize(r, tol_positivity=params.tol_positivity,
                           grid=params.grid_size)
    k = kgrid(params.grid_size)
    positivity_min = float(np.min(np.real(r(k))))

    g_s = b.convolve(binom).convolve(f)
    h_s = a.convolve(binom).convolve(f)
    # common shift into the canonical window [-M+1, M]
    lo = min(g_s.support[0], h_s.support[0])
    hi = max(g_s.support[1], h_s.support[1])
    M = (hi - lo + 2) // 2
    t = (-M + 1) - lo
    g_s, h_s = g_s.shift(t), h_s.shift(t)
    # common rescale: PR pins the product g(0) h(0) = 2
    prod = float(np.real(g_s(0.0)) * np.real(h_s(0.0)))
    if prod <= 0:
        raise NormalizationFailure(f"g(0) h(0) = {prod:.3e}")
    c = np.sqrt(2.0 / prod)
    g_s, h_s = g_s.scale(c), h_s.scale(c)

    pair = FilterPair(g_s, h_s)
    report = DesignReport(
        K=K, L=L,
        epsilon=epsilon_of(pair, d),
        pr_residual=pair.pr_residual,
        positivity_min=positivity_min,
        stability_eigs_g=stability_spectrum(g_s),
        stability_eigs_h=stability_spectrum(h_s),
        g0=float(np.real(g_s(0.0))),
        h0=float(np.real(h_s(0.0))),
    )
    return pair, report
