"""Continuum-limit analysis of designed filter pairs.

Cascade computation of scaling and wavelet functions on dyadic grids,
dual-basis and refinement checks, the coarse-graining superoperator acting on
smeared field operators (whose spectrum encodes scaling dimensions), the
descendant transfer spectra obtained by dividing out moment factors, the
level-dependent scaling functions of an inhomogeneous layer stack, and the
discretization of smeared continuum fields onto the lattice.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .design import stability_spectrum
from .errors import (NormalizationFailure, NoUnitEigenvalue, NotAdmissible,
                     NotDivisible, UnstableFilter)
from .filters import (ROOT2, FirFilter, FilterPair, dilated_convolve,
                      level_filters, transfer_block)

#: default dyadic quadrature depth for inner products
DEFAULT_J = 12


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Compactly supported function sampled on the dyadic grid x0 + i / 2^level.

    ``x0`` is a dyadic rational stored as an exact binary float; the function
    is zero outside [x0, x0 + (len(values) - 1) / 2^level].  ``values`` is a
    read-only view, so a function shared by several readers cannot change.
    """

    level: int
    x0: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).view()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return 0.5 ** self.level

    @property
    def support(self) -> tuple[float, float]:
        return self.x0, self.x0 + (self.values.size - 1) * self.spacing

    def grid(self) -> np.ndarray:
        return self.x0 + np.arange(self.values.size) * self.spacing

    def at(self, x) -> np.ndarray:
        """Exact grid lookup (0 outside support); x must lie on the grid."""
        x = np.asarray(x, dtype=np.float64)
        pos = (x - self.x0) * 2.0 ** self.level
        idx = np.rint(pos).astype(np.int64)
        if np.max(np.abs(pos - idx), initial=0.0) > 1e-9:
            raise ValueError("point off the dyadic sampling grid")
        ok = (idx >= 0) & (idx < self.values.size)
        out = np.where(ok, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        return out if out.ndim else float(out)

    def __call__(self, x) -> np.ndarray:
        """Linear interpolation, 0 outside the support."""
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(x, self.grid(), self.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def shift(self, n: int) -> "SampledFunction":
        """x -> x - n for integer n."""
        return SampledFunction(self.level, self.x0 + n, self.values)

    def dilate(self, l: int) -> "SampledFunction":
        """2^{-l/2} f(2^{-l} x): exact resampling onto the level - l grid."""
        return SampledFunction(self.level - l, self.x0 * 2.0 ** l,
                               2.0 ** (-l / 2.0) * self.values)

    def fourier(self, k) -> np.ndarray:
        """f_hat(k) = integral f(x) e^{-ikx} dx by the grid Riemann sum.

        The sum h e^{-ik x0} sum_i f_i e^{-i (kh) i}, h the spacing, is the
        Fourier transform of the samples as filter taps at k h, evaluated by
        Horner (FirFilter.__call__): no (len(k) x grid) phase matrix.
        """
        k = np.asarray(k, dtype=np.float64)
        val = self.spacing * np.exp(-1j * k * self.x0) \
            * FirFilter(0, self.values)(k * self.spacing)
        return val if val.ndim else complex(val)


def inner_product(f: SampledFunction, g: SampledFunction) -> float:
    """Dyadic-quadrature integral of f * g; the grids must be commensurate."""
    if f.level != g.level:
        # resample the coarser onto the finer grid by interpolation
        if f.level < g.level:
            f, g = g, f
        g = SampledFunction(f.level, g.x0, g(g.x0 + np.arange(
            (g.values.size - 1) * 2 ** (f.level - g.level) + 1) * f.spacing))
    off = (g.x0 - f.x0) * 2.0 ** f.level
    n = int(np.rint(off))
    if abs(off - n) > 1e-9:
        raise ValueError("sampling grids are not aligned")
    lo = max(0, n)
    hi = min(f.values.size, n + g.values.size)
    if hi <= lo:
        return 0.0
    return float(np.dot(f.values[lo:hi], g.values[lo - n:hi - n]) * f.spacing)


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def _unit_eigenvector(T: np.ndarray, tol: float, name: str) -> np.ndarray:
    """Real eigenvector of T for the eigenvalue nearest 1, normalized to sum
    1; NoUnitEigenvalue, with ``name`` for T, if no eigenvalue lies within
    ``tol`` of 1 or the vector sums to 0."""
    w, v = np.linalg.eig(T)
    cand = np.where(np.abs(w - 1.0) < tol)[0]
    if cand.size == 0:
        raise NoUnitEigenvalue(f"{name} eigenvalues "
                               f"{np.sort(np.abs(w))[::-1][:4]} contain no 1")
    vec = np.real(v[:, cand[np.argmin(np.abs(w[cand] - 1.0))]])
    s = vec.sum()
    if abs(s) < 1e-12:
        raise NoUnitEigenvalue(f"{name} unit eigenvector has zero sum")
    return vec / s


def _integer_samples(a_s: FirFilter) -> tuple[int, np.ndarray]:
    """Samples of the scaling function on its integer support: the fixed
    point phi(n) = sqrt(2) sum_m a_s[m] phi(2n - m) with sum_n phi(n) = 1."""
    T = transfer_block(a_s, ROOT2, a_s.support)
    return a_s.offset, _unit_eigenvector(T, 1e-8, "integer refinement matrix")


#: FirFilter -> the deepest cascade of it computed so far, held while the
#: filter lives
_CASCADES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cascade(a_s: FirFilter, J: int) -> SampledFunction:
    """Scaling function of a_s on the dyadic grid of spacing 2^-J.

    Requires a_s(0) = sqrt(2), else NormalizationFailure, and a stable
    transfer spectrum (square integrability).  Initial values on the integer
    grid come from the unit eigenvector of the refinement matrix; J sweeps of
    the refinement identity phi(x) = sqrt(2) sum a_s[n] phi(2x - n) then fill
    in the dyadic midpoints exactly.

    Each sweep keeps the coarser samples as they are (recomputing them adds
    rounding) and computes only the new odd ones, the odd samples of
    refine_with(phi, a_s) (x0 = a_s.offset is its fixed point).  From level
    1 on the stride 2^level is even, so an odd sample reads only odd samples
    of the coarser grid: they are convolved at half the stride, added in the
    same order.

    A filter's cascade is computed once and read from then on.  The deepest
    one so far is kept as long as the filter object lives: a shallower J
    reads every 2^(Jc - J)-th of its samples, which is the level-J cascade
    bit for bit, since sweeps keep the coarser samples, and a deeper J
    continues its sweeps.  The checks and the integer samples run only when
    nothing is kept; a refusal is not kept.  The returned samples are
    contiguous and read-only.
    """
    kept = _CASCADES.get(a_s)
    if kept is None:
        with np.errstate(all="ignore"):  # taps whose sum overflows: refused
            a0 = a_s(0.0)
        if not abs(a0 - ROOT2) <= 1e-9:  # NaN is refused too
            raise NormalizationFailure("scaling filter must satisfy a_s(0) = "
                                       f"sqrt(2); got {a0:.12g}")
        try:
            eigs = stability_spectrum(a_s)
        except NotAdmissible as err:
            raise UnstableFilter(str(err)) from err
        if np.max(np.abs(eigs)) >= 2.0:
            raise UnstableFilter(
                f"transfer spectral radius {np.max(np.abs(eigs)):.6g} >= 2")
        x0, values = _integer_samples(a_s)
        kept = SampledFunction(0, float(x0), values)
    if J < 0:
        raise ValueError(f"cascade depth J must be >= 0, got {J}")
    if J > kept.level:
        values = kept.values
        for level in range(kept.level, J):
            if level == 0:
                odd = dilated_convolve(values, a_s.coeffs, 1)[1::2]
            else:
                odd = dilated_convolve(values[1::2], a_s.coeffs,
                                       1 << (level - 1))
            finer = np.empty(2 * values.size - 1)
            finer[::2] = values
            finer[1::2] = ROOT2 * odd
            values = finer
        kept = SampledFunction(J, kept.x0, values)
    _CASCADES[a_s] = kept
    return SampledFunction(J, kept.x0, np.ascontiguousarray(
        kept.values[::1 << (kept.level - J)]))


def refinement_residual(phi: SampledFunction, a_s: FirFilter) -> float:
    """max |phi(x) - sqrt(2) sum_n a_s[n] phi(2x - n)| over the full grid.

    The right side is the cascade's own refine step, refine_with(phi, a_s),
    read back on phi's grid, which lies on the finer grid it returns.
    """
    return float(np.max(np.abs(
        phi.values - refine_with(phi, a_s).at(phi.grid()))))


def wavelet_function(pair: FilterPair, channel: str, J: int = DEFAULT_J
                     ) -> SampledFunction:
    """psi^a(x) = sqrt(2) sum_n a_w[n] phi^a(2x - n) on the level-J grid.

    phi^a is read from the cascade of a_s (see cascade), so after
    scaling_function(pair, channel, J) this costs one refine step.
    """
    a_s, a_w = pair.channel(channel)
    # refine_with gains one dyadic level, so phi is needed at level J - 1 only
    phi = cascade(a_s, J - 1)
    return refine_with(phi, a_w)


def refine_with(f: SampledFunction, taps: FirFilter) -> SampledFunction:
    """g(x) = sqrt(2) sum_n taps[n] f(2x - n), sampled one level finer than f.

    On the new grid x_i = (f.x0 + n0) / 2 + i / 2^(level+1) the point 2x_i - n
    is f's own sample i - t 2^level (t = n - n0), so g's samples are f's
    convolved with the taps at stride 2^level (filters.dilated_convolve, the
    two-scale step that also composes level filters); no interpolation is
    involved.
    """
    acc = dilated_convolve(f.values, taps.coeffs, 1 << f.level)
    return SampledFunction(f.level + 1, (f.x0 + taps.offset) / 2.0, ROOT2 * acc)


def scaling_function(pair: FilterPair, channel: str, J: int = DEFAULT_J
                     ) -> SampledFunction:
    """phi^a of channel a = 'g' or 'h': the cascade of a_s on the level-J
    grid."""
    return cascade(pair.channel(channel)[0], J)


# ---------------------------------------------------------------------------
# massless continuum relation
# ---------------------------------------------------------------------------

def massless_relation_error(pair: FilterPair, J: int = DEFAULT_J) -> float:
    """max over 257 k in [-2 pi, 2 pi] of |psi_hat^g - (|k|/4) psi_hat^h|.

    For pairs designed against the gapless dispersion the two wavelet
    functions represent the same continuum field up to the dispersion factor,
    so this deviation shrinks as the design order grows.
    """
    psi_g = wavelet_function(pair, "g", J)
    psi_h = wavelet_function(pair, "h", J)
    k = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 257)
    return float(np.max(np.abs(psi_g.fourier(k)
                               - (np.abs(k) / 4.0) * psi_h.fourier(k))))


# ---------------------------------------------------------------------------
# superoperator scaling dimensions
# ---------------------------------------------------------------------------

def _ascend_block(taps: FirFilter, weight: float, half: int) -> np.ndarray:
    """Ascent T[m, n] = weight * taps[n - 2m] on [-half, half], the transfer
    block of the reflected taps.  For taps on [a, b] its eigenvectors live on
    [-b, -a], so taps that leave the window are refused (ValueError): the
    block would cut the eigenvectors and report wrong eigenvalues.
    """
    a, b = taps.support
    if not -half <= a <= b <= half:
        raise ValueError(f"filter support [{a}, {b}] does not fit the "
                         f"spectrum window [{-half}, {half}]")
    return transfer_block(taps.reflect(), weight, (-half, half))


def superoperator_check(pair: FilterPair, x_samples=(0.0, 0.25, 0.5),
                        J: int = DEFAULT_J) -> tuple[float, float]:
    """Residuals of the one-layer ascent of smeared field operators.

    A position operator smeared with phi^h(x - .) ascends, with sqrt(2) h_s
    decimation weights, to the operator smeared with phi^h(x/2 - .); the
    momentum counterpart uses (1/sqrt 2) g_s weights and picks up a factor
    1/2.  Both identities are exact up to cascade residual; the returned pair
    is (max phi-sector deviation, max pi-sector deviation) over x_samples.
    The ascended field at y = x/2 - m, weight sum_n taps[n] phi(2y - n), is
    weight / sqrt(2) times refine_with(phi, taps) at y, for every translate
    m within three supports of the origin.
    """
    S = pair.support_length()
    ms = np.arange(-3 * S, 3 * S + 1)
    y = (np.asarray(x_samples, dtype=np.float64)[:, None] / 2.0 - ms).ravel()
    res = []
    for taps, weight, target_scale in ((pair.h_s, ROOT2, 1.0),
                                       (pair.g_s, 1.0 / ROOT2, 0.5)):
        phi = cascade(taps, J)
        up = refine_with(phi, taps)
        res.append(float(np.max(np.abs(weight / ROOT2 * up.at(y)
                                       - target_scale * phi.at(y)),
                                initial=0.0)))
    return res[0], res[1]


def superoperator_spectrum(pair: FilterPair, half: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(phi-sector, pi-sector) eigenvalues of the one-layer ascent blocks.

    The phi block sqrt(2) h_s[n - 2m] has eigenvalue 1 and the pi block
    (1/sqrt 2) g_s[n - 2m] eigenvalue 1/2: scaling dimensions 0 and 1.
    """
    if half is None:
        half = 2 * pair.support_length()
    ephi = np.linalg.eigvals(_ascend_block(pair.h_s, ROOT2, half))
    epi = np.linalg.eigvals(_ascend_block(pair.g_s, 1.0 / ROOT2, half))
    return ephi, epi


# ---------------------------------------------------------------------------
# descendant spectrum
# ---------------------------------------------------------------------------

def _divide_moment(a: FirFilter, K: int) -> list[FirFilter]:
    """Laurent quotients a(k) / (1 + e^{ik})^l, l = 0..K, in one pass of
    divisions; NotDivisible on a residue above 1e-9 of a's largest tap."""
    coeffs, out = a.coeffs, [a]
    for _ in range(K):
        # (1 + e^{ik}) has taps {(-1): 1, 0: 1}; dividing shifts the offset up
        coeffs, r = np.polydiv(coeffs, np.array([1.0, 1.0]))
        if np.max(np.abs(r)) > 1e-9 * np.max(np.abs(a.coeffs)):
            raise NotDivisible(
                f"moment-factor division residue {np.max(np.abs(r)):.3e}")
        out.append(FirFilter(out[-1].offset + 1, coeffs))
    return out


def descendant_spectrum(pair: FilterPair, K: int,
                        half: int | None = None) -> np.ndarray:
    """Real spectrum of the ascent blocks built from moment-divided filters.

    For l = 0..K the filter h_s(k) / (1 + e^{ik})^l generates a descendant
    whose integer-grid samples are the unit eigenvector of its own transfer
    block; weighting that block by 2^-l exposes the descendant scaling
    eigenvalue, so the combined spectrum contains 2^-l for each l.  Division
    is per Laurent polynomials; the filter must carry the full moment factor.
    """
    if K < 1:
        raise NotDivisible("at least one vanishing-moment factor is required")
    if half is None:
        half = 2 * pair.support_length()
    out = []
    for l, hl in enumerate(_divide_moment(pair.h_s, K)):
        eigs = np.linalg.eigvals(_ascend_block(hl, ROOT2 * 0.5 ** l, half))
        out.extend(float(e.real) for e in eigs if abs(e.imag) <= 1e-8)
    return np.sort(np.array(out))[::-1]


# ---------------------------------------------------------------------------
# exact dual-basis pairings via the transfer-matrix method
# ---------------------------------------------------------------------------

def translate_gram(pair: FilterPair) -> FirFilter:
    """c[d] = <phi^g(. - d), phi^h> for all integer translates d, exactly.

    The cross-Gram of the two scaling-function translate systems is a fixed
    point of the two-scale relation, c[m] = sum_n corr[n - 2m] c[n] with
    corr the g_s / h_s cross-correlation, so it is the unit-eigenvalue
    eigenvector of that transfer block, normalized to sum 1 by the partition
    of unity.  This evaluates the integrals to eigensolver precision; plain
    dyadic quadrature only converges at the Hoelder rate of the rougher
    scaling function, which is impractically slow for low-moment designs.
    """
    corr = pair.g_s.correlate(pair.h_s)
    half = max(abs(corr.support[0]), abs(corr.support[1])) + 1
    return FirFilter(-half, _unit_eigenvector(
        _ascend_block(corr, 1.0, half), 1e-6,
        "translate cross-Gram transfer block"))


def dual_wavelet_pairing(pair: FilterPair, l: int, n: int, lp: int, m: int,
                         gram: FirFilter | None = None) -> float:
    """<psi^g_{l,n}, psi^h_{l',m}> with psi_{l,n}(x) = 2^{-l/2} psi(2^{-l}x - n).

    Both wavelets are expanded over scaling-function translates at a common
    dyadic scale t by exact filter algebra: the coefficients of psi_{l,n}
    over phi_{t,.} are the level-k wavelet filter of a k-layer stack of the
    pair (k = l - t, see filters.level_filters) shifted by 2^k n.  The
    resulting double sum contracts against the translate cross-Gram.  No
    quadrature is involved.
    """
    if gram is None:
        gram = translate_gram(pair)
    target = min(l, lp) - 1
    coeffs = {}
    for channel, lev, shift in (("g", l, n), ("h", lp, m)):
        k = lev - target
        _, wavelets = level_filters([pair] * k, channel)
        coeffs[channel] = wavelets[-1].shift((1 << k) * shift)
    w = coeffs["g"].correlate(coeffs["h"])
    return float(np.dot(w[gram.indices()], gram.coeffs))


# ---------------------------------------------------------------------------
# adaptive (level-dependent) scaling functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AdaptiveFamily:
    """Per-level scaling and wavelet functions of an inhomogeneous stack."""

    levels: tuple
    J_prod: int
    dual_residuals: tuple

    def phi(self, level: int, channel: str) -> SampledFunction:
        return self.levels[level][channel]["phi"]

    def psi(self, level: int, channel: str) -> SampledFunction:
        return self.levels[level][channel]["psi"]

    @property
    def depth(self) -> int:
        return len(self.levels)


def _stack_filters(stack, l: int, channel: str) -> tuple[FirFilter, FirFilter]:
    """(a_s, a_w) of layer l; layers past the stack repeat its last pair."""
    return stack.pairs[min(l, len(stack.pairs) - 1)].channel(channel)


def adaptive_scaling_function(stack, l: int, channel: str,
                              J_prod: int, J: int = DEFAULT_J
                              ) -> SampledFunction:
    """Level-l scaling function with level-dependent refinement filters.

    phi_l obeys phi_l(x) = sqrt(2) sum_n a_s^{(l+1)}[n] phi_{l+1}(2x - n); the
    recursion is truncated at depth J_prod by the ordinary cascade of the
    deepest (tail) filter, then unrolled back down, gaining one dyadic level
    per step, so phi_l lands on the level-J grid exactly.
    """
    J_tail = J - J_prod
    if J_tail < 0:
        raise ValueError("J must be at least J_prod")
    f = cascade(_stack_filters(stack, l + J_prod, channel)[0], J_tail)
    for j in range(J_prod, 0, -1):
        f = refine_with(f, _stack_filters(stack, l + j - 1, channel)[0])
    return f


def adaptive_family(stack, J_prod: int, J: int = DEFAULT_J) -> AdaptiveFamily:
    """Per-level phi/psi for both channels plus dual-basis residuals.

    The level-l wavelet is psi_l(x) = sqrt(2) sum a_w^{(l)}[n] phi_{l+1}(2x-n)
    built from the one-level-deeper scaling function; the reported residual at
    level l is max_n |<phi^g_l, phi^h_l(. - n)> - delta_{0n}|.
    """
    levels, residuals = [], []
    for l in range(stack.depth):
        entry = {}
        for channel in ("g", "h"):
            phi_next = adaptive_scaling_function(stack, l + 1, channel,
                                                 J_prod, J - 1)
            a_s, a_w = _stack_filters(stack, l, channel)
            entry[channel] = {"phi": refine_with(phi_next, a_s),
                              "psi": refine_with(phi_next, a_w)}
        levels.append(entry)
        g, h = entry["g"]["phi"], entry["h"]["phi"]
        span = int(np.ceil(g.support[1] - h.support[0])) + 1
        res = max(abs(inner_product(g, h.shift(n)) - (1.0 if n == 0 else 0.0))
                  for n in range(-span, span + 1))
        residuals.append(res)
    return AdaptiveFamily(tuple(levels), J_prod, tuple(residuals))


# ---------------------------------------------------------------------------
# field discretization
# ---------------------------------------------------------------------------

def discretize_smeared(f: SampledFunction, phi: SampledFunction,
                       level: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients <phi_{level,n}, f> with phi_{l,n}(x) = 2^{-l/2} phi(2^{-l}x - n).

    Returns (n values, coefficients) over every translate whose support
    meets the support of f.
    """
    phi_l = phi.dilate(level)
    step = 2 ** level
    lo = int(np.floor((f.support[0] - phi_l.support[1]) / step)) - 1
    hi = int(np.ceil((f.support[1] - phi_l.support[0]) / step)) + 1
    n_range = np.arange(lo, hi + 1)
    coeffs = np.array([inner_product(phi_l.shift(int(n) * step), f)
                       for n in n_range])
    return n_range, coeffs
