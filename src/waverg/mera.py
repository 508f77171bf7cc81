"""Multi-layer renormalization stacks, MERA covariances, and error bounds.

A stack carries one filter pair and one squeeze factor sqrt(omega_l(pi)) per
layer; the composed lattice maps R_g (scaled by the squeezes) and
R_h (scaled by their inverses) are symplectic partners, and the MERA
ground-state approximation has covariance blocks

    gamma_q = (1/2) R_h^T R_h,    gamma_p = (1/2) R_g^T R_g.

Each output block of R places one level filter at stride 2^l, so a Gram
R^T R is the sum of the filters' placed autocorrelations and commutes with
shifts by P = 2^depth.  Its first block row G[:P, :] is built from the level
filters alone (filters.level_walk, filters.placed_gram_rows).  The error
report reads its window of covariance entries straight from that row, and
the operator bound turns it into P x P symbols; only mera_covariance, the
public ring API, rolls it out to N x N.  No N x N array is formed on the
report path; multi_layer_map remains the dense reference.

The exact oracle evaluates the translation-invariant ground-state covariance
gamma_p(k) = omega/2, gamma_q(k) = 1/(2 omega) by periodic quadrature with
Richardson extrapolation from one transform per integrand for all profiles and
norms of a report; for gapless dispersions the q-block exists only in the
regulated form gamma_q[n,m] - gamma_q[n,n].  The rigorous error bound is
delta_p <= D^2 (C 2^{-L/2} + 3 eps D log2(C/eps)) with C = 4 B^2 M^{3/2}
Omega, and 2x that expression times ||gamma_q (delta_n - delta_m)|| for the
regulated q entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .design import DesignParams, design_pair, layer_epsilons
from .dispersion import Dispersion, fitted_mass, flow, flow_report
from .errors import (GaplessUnregulated, LatticeTooSmall, OutOfHypothesis,
                     WavergError)
from .filters import (FilterPair, check_lattice, kgrid, level_walk,
                      placed_gram_rows)
from .continuum import cascade


@dataclass(frozen=True, eq=False)
class LayerStack:
    """Filter pairs with per-layer squeeze factors sqrt(omega_l(pi))."""

    pairs: tuple
    squeezes: tuple
    base_dispersion: Dispersion
    reports: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "squeezes", tuple(float(s) for s in self.squeezes))
        object.__setattr__(self, "reports", tuple(self.reports))
        if len(self.pairs) != len(self.squeezes):
            raise ValueError("one squeeze factor per layer required")
        if any(s <= 0 for s in self.squeezes):
            raise ValueError("squeeze factors must be positive")

    @property
    def depth(self) -> int:
        return len(self.pairs)

    @property
    def max_support(self) -> int:
        return max(p.support_length() for p in self.pairs)

    @cached_property
    def levels(self) -> tuple:
        """The renormalized dispersions omega_0 .. omega_{depth-1}."""
        return tuple(flow(self.base_dispersion, self.depth - 1))

    @cached_property
    def epsilons(self) -> tuple:
        """Each layer's filter-relation defect against its level
        (epsilon_of), with each distinct pair's wavelet symbols evaluated
        once."""
        return tuple(layer_epsilons(self.pairs, self.levels))

    def fitted_masses(self) -> list[float]:
        return [fitted_mass(d) for d in self.levels]


def build_stack(d: Dispersion, design: DesignParams | FilterPair,
                L_layers: int) -> LayerStack:
    """One filter pair and one squeeze factor per renormalization level.

    Layer l's squeeze factor is sqrt(omega_l(pi)).  With ``DesignParams``
    layer l is designed against omega_l / omega_l(pi), and a design failure
    is re-raised with the failing layer recorded on the exception; a
    ``FilterPair`` serves every layer, as on the scale-invariant massless
    chain.
    """
    if not isinstance(design, (DesignParams, FilterPair)):
        raise TypeError("design must be DesignParams or FilterPair, "
                        f"got {type(design).__name__}")
    if L_layers < 1:
        raise ValueError("L_layers must be >= 1")
    levels = tuple(flow(d, L_layers - 1))
    if isinstance(design, FilterPair):
        pairs, reports = (design,) * L_layers, ()
    else:
        designed = []
        for l, dl in enumerate(levels):
            try:
                designed.append(design_pair(dl, design))
            except WavergError as err:
                err.layer = l
                raise
        pairs, reports = zip(*designed)
    stack = LayerStack(pairs, [np.sqrt(dl.omega_pi) for dl in levels], d,
                       reports)
    object.__setattr__(stack, "levels", levels)  # seed the cached flow
    return stack


# ---------------------------------------------------------------------------
# covariance matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CovariancePair:
    """q/p covariance blocks on Z_N; regulated q stores entries minus diagonal."""

    N: int
    q_block: np.ndarray
    p_block: np.ndarray
    regulated: bool = False
    quad_error: float | None = None

    def __post_init__(self):
        for name in ("q_block", "p_block"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, m)

    def uncertainty_min(self) -> float:
        """Smallest eigenvalue of q_block p_block; >= 1/4 for a valid state."""
        if self.regulated:
            raise GaplessUnregulated(
                "uncertainty spectrum is undefined for a regulated q-block")
        return float(np.min(np.real(
            np.linalg.eigvals(self.q_block @ self.p_block))))


def _gram_block_rows(pairs, channel: str, N: int, scales):
    """Wavelet part of the first block row G[:P, :] of G = R^T R for every
    prefix of a stack, with the prefix's top scaling filter.

    R is multi_layer_map(pairs[:depth], channel, N, scales) and P = 2^depth;
    yields (rows, scaling) for depth 1, 2, ... from level filters alone, and
    G[:P, :] is rows + placed_gram_rows(scaling, N, P).  A caller adds that
    top scaling block only for the prefixes it reads.  Each output block of
    R places one level filter at a stride s and adds its B^T B to G; that
    commutes with shifts by s, so its first s rows (placed_gram_rows, about
    min(N, 2 len)^2 flops for a filter of len taps) determine it.  The
    wavelet blocks are added from the finest stride 2 to the coarsest, and
    each stride doubles the rows held so far by one roll.  No N x N map is
    formed.  G commutes with input shifts by P: row qP + r of G is row r
    rolled by qP.
    """
    check_lattice(pairs, N)
    acc = np.zeros((1, N))
    for depth, (scaling, wavelet) in enumerate(
            level_walk(pairs, channel, scales), 1):
        s = 1 << depth
        acc = (np.vstack([acc, np.roll(acc, s // 2, axis=1)])
               + placed_gram_rows(wavelet, N, s))
        yield acc, scaling


def _symmetrized(row: np.ndarray) -> np.ndarray:
    """First block row of (G + G^T) / 2 from the first block row of a G that
    commutes with shifts by P.

    Block q of the first block row of G^T is block -q of G's, transposed, so
    a matrix rolled out from the result is exactly symmetric.
    """
    P, N = row.shape
    n = N // P
    blocks = row.reshape(P, n, P)
    out = np.empty_like(blocks)
    # block by block: a fancy-indexed transpose of the whole view is a
    # strided copy, twice as slow at P = 256
    for q in range(n):
        out[:, q] = 0.5 * (blocks[:, q] + blocks[:, -q % n].T)
    return out.reshape(P, N)


def _row_reader(row: np.ndarray, width: int = 1):
    """read(n, start): entries start .. start + width - 1 (mod N) of rows n
    of the N x N matrix G that commutes with shifts by P and has first block
    row ``row`` (P x N).  Row n of G is row[n mod P] rolled by n - n mod P,
    so they are the window from (start - n + n mod P) mod N of a strided
    view of the rows, wrapped by width - 1 columns (at width 1: no copy).
    """
    P, N = row.shape
    if width > 1:
        row = np.concatenate([row, row[:, :width - 1]], axis=1)
    windows = sliding_window_view(row, width, axis=1)

    def read(n, start):
        r = n % P
        return windows[r, (start - n + r) % N]
    return read


def _roll_out(row: np.ndarray) -> np.ndarray:
    """The N x N matrix that commutes with shifts by P and has first block
    row ``row`` (P x N), read through _row_reader."""
    return _row_reader(row, row.shape[1])(np.arange(row.shape[1]), 0)


def _covariance_rows(stack: LayerStack, N: int) -> tuple[np.ndarray, np.ndarray]:
    """First block rows (q, p) of gamma_q = R_h^T R_h / 2 and
    gamma_p = R_g^T R_g / 2 on Z_N, symmetrized (see _gram_block_rows)."""
    rows = []
    for channel, scales in (("h", [1.0 / s for s in stack.squeezes]),
                            ("g", stack.squeezes)):
        *_, (row, scaling) = _gram_block_rows(stack.pairs, channel, N, scales)
        row = row + placed_gram_rows(scaling, N, len(row))
        rows.append(_symmetrized(0.5 * row))
    return rows[0], rows[1]


def mera_covariance(stack: LayerStack, N: int) -> CovariancePair:
    """gamma_q = R_h^T R_h / 2 and gamma_p = R_g^T R_g / 2 on Z_N, rolled
    out from the first block rows of the Grams (see _gram_block_rows)."""
    return CovariancePair(N, *map(_roll_out, _covariance_rows(stack, N)))


def _half(w: np.ndarray) -> np.ndarray:
    """gamma_p(k) = omega / 2."""
    return w / 2.0


def _half_inverse(w: np.ndarray) -> np.ndarray:
    """gamma_q(k) = 1 / (2 omega), set to 0 where omega = 0."""
    with np.errstate(divide="ignore"):
        return np.where(w > 0, 1.0 / (2.0 * np.maximum(w, 1e-300)), 0.0)


def _riemann_sums(f: np.ndarray, alternate: bool = True):
    """S(d) = sum_j f_j cos(k_j d) / n on k = kgrid(n), n = len(f), as a
    function of integer offsets d.  S is a DFT, (-1)^d Re rfft(f)[d'] / n
    with d' = min(d mod n, n - d mod n), so one rfft serves every offset; S
    is even and n-periodic in d.  The sign (-1)^d comes from kgrid's start
    at -pi; ``alternate=False`` sums on the ring momenta k_j = 2 pi j / n."""
    n = len(f)
    spectrum = np.fft.rfft(f).real / n

    def read(d):
        folded = d % n
        sums = spectrum[np.minimum(folded, n - folded)]
        return np.where(d % 2 == 0, sums, -sums) if alternate else sums
    return read


class _Quadrature:
    """Periodic quadrature of functions of omega, Richardson-extrapolated.

    omega is sampled once, on the fine grid kgrid(2q), q = quad_points; the
    coarse grid kgrid(q) is its even samples.  Each integrand is transformed
    once per instance, and its fine sums S (_riemann_sums) give both grids:
    the odd samples cancel in S(d) + (-1)^q S(d + q), the coarse sum at d.
    So fine + (fine - coarse) / 3, which cancels the h^2 term, is
    S(d) - (-1)^q S(d + q) / 3 (_extrapolated), certified by |S(d + q)| / 3.
    An offset with 2|d| >= q is refused, since the coarse grid aliases it.
    """

    def __init__(self, d: Dispersion, quad_points: int):
        self.d = d
        self.quad_points = quad_points
        self._sums = {}  # integrand -> its _riemann_sums on the fine grid

    @cached_property
    def omega(self) -> np.ndarray:
        k = kgrid(2 * self.quad_points)
        return np.asarray(self.d(k), dtype=np.float64)

    def _offsets(self, offsets) -> np.ndarray:
        offsets = np.asarray(offsets)
        if not np.all(np.isfinite(offsets)) or np.any(
                offsets != np.rint(offsets)):
            raise ValueError("profile offsets must be integers")
        offsets = offsets.astype(np.int64)
        reach = 2 * int(np.max(np.abs(offsets), initial=0))
        if not self.quad_points > reach:
            raise ValueError(
                f"quad_points = {self.quad_points} must exceed "
                f"2 max|offset| = {reach}: the grid would alias the offsets")
        return offsets

    def _extrapolated(self, S, offsets: np.ndarray,
                      regulated: bool) -> tuple[np.ndarray, np.ndarray]:
        """The Richardson value S(d) - (-1)^q S(d + q) / 3 of fine sums S
        per offset d, and its certified error |S(d + q)| / 3.  ``regulated``
        extrapolates the differences S(d) - S(0)."""
        q = self.quad_points
        values, alias = S(offsets), S(offsets + q)
        if regulated:
            values, alias = values - S(0), alias - S(q)
        return values - (-1) ** q * alias / 3.0, np.abs(alias) / 3.0

    def profile(self, integrand, offsets,
                regulated: bool = False) -> tuple[np.ndarray, float]:
        """(1/2pi) integral of integrand(omega(k)) cos(k d) per offset d, and
        its certified error.  ``regulated`` returns the differences
        value(d) - value(0), and certifies those."""
        offsets = self._offsets(offsets)
        if integrand not in self._sums:
            self._sums[integrand] = _riemann_sums(integrand(self.omega))
        values, err = self._extrapolated(self._sums[integrand], offsets,
                                         regulated)
        return values, float(np.max(err))

    def q_difference_norms(self, deltas) -> tuple[np.ndarray, float]:
        """||gamma_q (delta_n - delta_m)|| for |n - m| = delta, per delta, and
        the certified error of the norms.

        By Parseval, norm^2 = (1/2pi) integral (1 - cos k delta) h(k) dk with
        h = 1 / (2 omega^2).  At k = 0 the integrand tends to
        delta^2 g(0) / 2, g = k^2 h, which is not 0 on a gapless chain; the
        Riemann sums take that limit as their k = 0 sample, with g(0)
        extrapolated as (4 g(h) - g(2h)) / 3 from the fine samples at k = -h
        and -2h (g(0) = 0 where omega(0) > 0).  The sums are formed without
        cancellation: with s = 1 / (4 sin^2(k/2)), (1 - cos k delta) s is
        delta/2 times the Fejer kernel, a trigonometric polynomial of degree
        delta - 1 < q whose k = 0 value is delta^2 / 2, so either grid sums
        its part to g(0) delta / 2 exactly.  One rfft of the bounded
        remainder h - g(0) s on the fine grid gives the rest, extrapolated
        as the regulated profile -(S(delta) - S(0)) is.
        """
        deltas = self._offsets(deltas)
        if np.any(deltas == 0):
            raise ValueError("delta must be nonzero")
        k, w, i = kgrid(2 * self.quad_points), self.omega, self.quad_points
        w2 = w * w
        h = np.where(w2 > 0, 1.0 / (2.0 * np.maximum(w2, 1e-300)), 0.0)
        g0 = 0.0 if w[i] > 0 else (4.0 * k[i - 1] ** 2 * h[i - 1]
                                   - k[i - 2] ** 2 * h[i - 2]) / 3.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = h - g0 / (4.0 * np.sin(k / 2.0) ** 2)
        rest[i] = 0.0  # k_i = 0 up to rounding
        values, err = self._extrapolated(_riemann_sums(rest), deltas, True)
        norms = np.sqrt(np.maximum(g0 * deltas / 2.0 - values, 0.0))
        # |sqrt(a) - sqrt(b)| <= min(sqrt(|a - b|), |a - b| / sqrt(a))
        return norms, float(np.max(np.minimum(
            np.sqrt(err), err / np.maximum(norms, 1e-300))))


def exact_p_profile(d: Dispersion, offsets: np.ndarray,
                    quad_points: int = 1 << 16) -> tuple[np.ndarray, float]:
    """gamma_p at lattice offsets: (1/2pi) integral of (omega/2) cos(k d)."""
    return _Quadrature(d, quad_points).profile(_half, offsets)


def exact_q_profile(d: Dispersion, offsets: np.ndarray,
                    quad_points: int = 1 << 16,
                    regulated: bool | None = None) -> tuple[np.ndarray, float]:
    """gamma_q profile; regulated entries use (cos(k d) - 1) / (2 omega)."""
    if regulated is None:
        regulated = d.gapless
    if d.gapless and not regulated:
        raise GaplessUnregulated(
            "plain q covariance diverges for a gapless dispersion; "
            "request the regulated profile")
    # the offset-0 term diverges; its differences converge, so certify those
    return _Quadrature(d, quad_points).profile(_half_inverse, offsets,
                                               regulated)


def _toeplitz(profile: np.ndarray, W: int) -> np.ndarray:
    """W x W read-only view with entry (n, m) = profile[|n - m|]."""
    return sliding_window_view(profile[np.abs(np.arange(1 - W, W))], W)[::-1]


def exact_covariance(d: Dispersion, N: int,
                     regulated: bool | None = None) -> CovariancePair:
    """Toeplitz ground-state covariance of the infinite chain, rows 0..N-1."""
    if regulated is None:
        regulated = d.gapless
    offsets = np.arange(N)
    p_prof, p_err = exact_p_profile(d, offsets)
    q_prof, q_err = exact_q_profile(d, offsets, regulated=regulated)
    return CovariancePair(N, _toeplitz(q_prof, N).copy(),
                          _toeplitz(p_prof, N).copy(), regulated=regulated,
                          quad_error=max(p_err, q_err))


def q_difference_norm(d: Dispersion, delta: int,
                      quad_points: int = 1 << 16) -> float:
    """l2 norm of gamma_q (delta_n - delta_m) with |n - m| = delta.

    By Parseval (1/2pi convention):
    norm^2 = (1/2pi) integral (1 - cos(k delta)) / (2 omega(k)^2) dk,
    finite for gapless omega ~ |k| when delta != 0
    (see _Quadrature.q_difference_norms).
    """
    norms, _ = _Quadrature(d, quad_points).q_difference_norms([delta])
    return float(norms[0])


def ring_covariance(d: Dispersion, N: int) -> CovariancePair:
    """Exact ground-state covariance of the N-site periodic chain.

    Discrete momentum sum instead of quadrature; requires a gapped dispersion
    (the k = 0 mode has no normalizable ground state otherwise).  Matches the
    infinite-chain oracle up to corrections exponentially small in N times
    the gap.
    """
    if d.gapless:
        raise GaplessUnregulated(
            "periodic-chain covariance requires a gapped dispersion")
    w = np.asarray(d(2.0 * np.pi * np.arange(N) / N))
    # a circulant: entry (n, m) is the ring sum at offset m - n (P = 1)
    q_row, p_row = (_riemann_sums(f, alternate=False)(np.arange(N))[None]
                    for f in (1.0 / (2.0 * w), w / 2.0))
    return CovariancePair(N, _roll_out(q_row), _roll_out(p_row))


def wavelet_channel_deviation(stack: LayerStack, N: int) -> list[float]:
    """Per-level deviation of the disentangled wavelet channel from the vacuum.

    For each level l, the exact periodic-chain ground state of the level-l
    dispersion is analyzed by that level's single layer; with a perfect filter
    relation the squeezed wavelet block is exactly I/2, so the deviation
    measures the layer's disentangling quality in isolation.  For a massive
    chain the renormalized dispersion flattens with depth, so the deviations
    decrease.  (Measuring the blocks through the composed stack instead
    plateaus at the finest layer's relation defect, which contaminates every
    deeper channel; the per-level measurement isolates the flattening trend.)

    The blocks come from filter symbols, with no N x N map.  On the ring
    momenta k = kgrid(N) the exact covariance C is circulant, and the wavelet
    rows of W_a place a_w at stride 2, so the wavelet block of W_a C W_a^T is
    circulant on Z_{N/2}: its entry at lag lambda is the ring sum of sigma at
    the even offset 2 lambda (_riemann_sums, one rfft per block), with sigma
    omega_l(pi) |g_w|^2 / (2 omega_l) for q and |h_w|^2 omega_l /
    (2 omega_l(pi)) for p.  As for ring_covariance and decomposition_map, a
    gapless level is refused, and so is an odd N or one below twice the
    support.
    """
    k = kgrid(N)
    out = []
    for pair, dl in zip(stack.pairs, stack.levels):
        if dl.gapless:
            raise GaplessUnregulated(
                "periodic-chain covariance requires a gapped dispersion")
        if N % 2 or N < 2 * pair.support_length():
            raise LatticeTooSmall(N, pair.support_length())
        w = np.asarray(dl(k))
        s2 = dl.omega_pi
        dev = 0.0
        for sigma in (s2 * np.abs(pair.g_w(k)) ** 2 / (2.0 * w),
                      np.abs(pair.h_w(k)) ** 2 * w / (2.0 * s2)):
            lags = _riemann_sums(sigma)(np.arange(0, N, 2))
            lags[0] -= 0.5
            dev = max(dev, float(np.max(np.abs(lags))))
        out.append(dev)
    return out


# ---------------------------------------------------------------------------
# theorem bound and error report
# ---------------------------------------------------------------------------

def theorem_bound(B: float, D: float, M: int, Omega: float, eps: float,
                  L_layers: int) -> tuple[float, float]:
    """(bound_p, bound_q_prefactor) of the rigorous approximation theorem.

    bound_p = D^2 (C 2^{-L/2} + 3 eps D log2(C/eps)), C = 4 B^2 M^{3/2} Omega;
    the q prefactor is twice bound_p and multiplies
    ||gamma_q (delta_n - delta_m)|| per regulated entry.  eps = 0 is accepted
    as the limit where the second term vanishes.
    """
    problems = []
    if not eps >= 0:
        problems.append(f"eps = {eps} < 0")
    if eps > 1:
        problems.append(f"eps = {eps} > 1")
    if D < 1:
        problems.append(f"D = {D} < 1")
    if Omega < 1:
        problems.append(f"Omega = {Omega} < 1")
    C = 4.0 * B ** 2 * M ** 1.5 * Omega
    if eps > 0 and C / eps < 2:
        problems.append(f"C/eps = {C / eps:.3g} < 2")
    if problems:
        raise OutOfHypothesis("; ".join(problems))
    tail = 0.0 if eps == 0 else 3.0 * eps * D * np.log2(C / eps)
    bound_p = D ** 2 * (C * 2.0 ** (-L_layers / 2.0) + tail)
    return float(bound_p), float(2.0 * bound_p)


#: relative margin of the Cholesky certificate in stack_operator_bound.  It
#: is at least the factorization's backward error, 4 P^2 eps relative, for
#: every P whose P x N Gram rows fit in memory (P <= 2^15), and so also above
#: the eigvalsh error and the roundings of the sqrt and the ratios.
_CERTIFY_MARGIN = 2.0 ** -20


def _gram_symbols(block_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian P x P symbols of a map R that commutes with input shifts by
    P: (the real ones, the complex ones), two batches.

    ``block_row`` is the first block row of G = R^T R (see _gram_block_rows);
    G is block-circulant with P x P blocks, so ||R||^2 is the largest
    eigenvalue of its N/P Hermitian symbols, the DFT over the block index.
    The blocks are real, so symbols at theta and -theta are conjugate and
    share their eigenvalues: an rfft gives all of them, and the symbols at
    theta = 0 and pi are real.  The complex batch is empty when N/P <= 2.
    """
    P, N = block_row.shape
    n = N // P
    blocks = block_row.reshape(P, n, P).swapaxes(0, 1)
    symbols = np.fft.rfft(blocks, axis=0)
    real = [0, n // 2] if n % 2 == 0 else [0]
    # copies: a batch is kept until the screen, and a view would keep the
    # whole transform (and a real batch its imaginary parts) alive with it
    return symbols.real[real], symbols[1:(n + 1) // 2].copy()


def _below(symbols: np.ndarray, t: float) -> bool:
    """True when one batched Cholesky factorization of t I - S succeeds for
    every symbol S of the batch, which shows each eigenvalue below t up to
    the factorization's backward error.  Like eigvalsh, it reads the lower
    triangles.  OpenBLAS's potrf passes NaN pivots, so a non-finite factor
    counts as a failure."""
    shifted = -symbols
    diagonal = np.arange(symbols.shape[-1])
    shifted[:, diagonal, diagonal] += t
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _layer_key(pair: FilterPair) -> tuple:
    """A layer's four filters: offsets and coefficient bytes."""
    return tuple((f.offset, f.coeffs.tobytes())
                 for f in (pair.g_s, pair.g_w, pair.h_s, pair.h_w))


def stack_operator_bound(stack: LayerStack, N: int = 512) -> float:
    """Max spectral norm over contiguous sub-stacks, both channels.

    Computed at a moderate lattice size: the maps are circulant up to the
    layer structure, so the norm is essentially size-independent once the
    lattice exceeds the filter support.  This is an estimate of the theorem's
    sub-stack constant, not an exact evaluation at the working size.  A
    depth-d sub-stack commutes with input shifts by 2^d, which gives its
    norm from P x P Gram symbols (see _gram_symbols).  One walk per first
    layer l0 yields the Gram rows of every sub-stack [l0, l1), and its g and
    h symbols are kept per depth.  A walk from l0 is not run when an earlier
    run walk from j has the same filters at layers l0.. as at j.. and the
    same squeezes after the first layer: every block of a g map of the walk
    from l0 is then the walk-j block times c = s[l0] / s[j], so its g norms
    are walk j's times c and its h norms walk j's divided by c, up to its
    own depth L - l0.  On a scale-invariant stack, whose layers all share one
    pair and whose squeezes after the first are alike, one walk per channel
    remains.

    Only the maximum is returned, so only the symbols that attain it need
    their eigenvalues.  A depth's symbols form two batches (_gram_symbols),
    each read under the factors c (g) or 1 / c (h) of the sub-stacks that
    share it; m is the largest.  Batches are taken in decreasing order of m^2
    times their largest diagonal entry, a lower bound of m^2 lambda_max.  The
    first gets eigvalsh.  A later one is ruled out when one batched Cholesky
    factorization of t I - S succeeds, t = (worst / m)^2 (1 - _CERTIFY_MARGIN):
    every norm it holds is then below the running maximum.  Otherwise it
    gets eigvalsh too.  So the result is the maximum of the same
    floating-point numbers as with eigvalsh on every batch.
    """
    keys = list(map(_layer_key, stack.pairs))
    s = stack.squeezes
    L = stack.depth
    # first layer of a run walk -> its (depth index, channel, symbol batch,
    # ratios c of the sub-stacks that read it)
    walks = {}
    for l0 in range(L):
        depth = L - l0
        j = next((j for j in walks if keys[l0:] == keys[j:j + depth]
                  and s[l0 + 1:] == s[j + 1:j + depth]), None)
        if j is None:
            j = l0
            walks[j] = [
                (d, channel, S, [])
                for channel, scales in (("g", s[l0:]),
                                        ("h", [1.0 / x for x in s[l0:]]))
                for d, (rows, scaling) in enumerate(_gram_block_rows(
                    stack.pairs[l0:], channel, N, scales))
                for S in _gram_symbols(
                    rows + placed_gram_rows(scaling, N, len(rows)))
                if len(S)]
        c = s[l0] / s[j]  # 1 for a walk just run
        for d, _, _, ratios in walks[j]:
            if d < depth:
                ratios.append(c)
    ranked = []
    for _, channel, S, ratios in (b for walk in walks.values() for b in walk):
        m = max(ratios) if channel == "g" else max(1.0 / c for c in ratios)
        low = m * m * S.diagonal(axis1=1, axis2=2).real.max()
        ranked.append((low, m, channel, S, ratios))
    ranked.sort(key=lambda b: b[0], reverse=True)
    worst = 0.0
    for rank, (_, m, channel, S, ratios) in enumerate(ranked):
        if rank and _below(S, (worst / m) ** 2 * (1.0 - _CERTIFY_MARGIN)):
            continue
        x = float(np.sqrt(max(np.linalg.eigvalsh(S).max(), 0.0)))
        worst = max(worst, *(c * x if channel == "g" else x / c
                             for c in ratios))
    return worst


def stack_amplitude_bound(stack: LayerStack) -> float:
    """Max sup-norm of the depth-10 cascades of all filters in the stack."""
    worst = 0.0
    seen = set()
    for pair in stack.pairs:
        for a_s in (pair.g_s, pair.h_s):
            key = (a_s.offset, a_s.coeffs.tobytes())
            if key in seen:
                continue
            seen.add(key)
            a0 = float(np.real(a_s(0.0)))
            phi = cascade(a_s.scale(np.sqrt(2.0) / a0), 10)
            worst = max(worst, float(np.max(np.abs(phi.values))))
    return worst


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """MERA-vs-exact deviations of a stack, the theorem bounds they are
    checked against, and the constants and oracle error behind them."""

    delta_p: float
    delta_q: float | None
    delta_q_regulated: dict
    bound_p: float
    bound_q: float
    bound_q_entries: dict
    q_norms: dict
    constants: dict
    quad_error: float
    #: first block rows (q, p) of the MERA covariance the deviations were
    #: measured on, P x N each (not serialized)
    covariance_rows: tuple = field(repr=False)
    #: the oracle and its samples of omega, for later profiles (not serialized)
    oracle: _Quadrature = field(repr=False)

    @cached_property
    def covariance(self) -> CovariancePair:
        """The MERA covariance on Z_N, rolled out from ``covariance_rows``."""
        q_rows, p_rows = self.covariance_rows
        return CovariancePair(q_rows.shape[1], _roll_out(q_rows),
                              _roll_out(p_rows))

    def exact_profiles(self, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Exact gamma_p and regulated gamma_q at ``offsets``."""
        return (self.oracle.profile(_half, offsets)[0],
                self.oracle.profile(_half_inverse, offsets, regulated=True)[0])

    def dominated(self) -> bool:
        """True when every measured deviation sits below its bound."""
        ok = self.delta_p <= self.bound_p
        if self.delta_q is not None:
            ok = ok and self.delta_q <= self.bound_q
        for key, val in self.delta_q_regulated.items():
            ok = ok and val <= self.bound_q_entries[key]
        return bool(ok)

    def to_json(self) -> dict:
        return {
            "delta_p": self.delta_p,
            "delta_q": self.delta_q,
            "delta_q_regulated": {f"{n},{m}": v for (n, m), v
                                  in self.delta_q_regulated.items()},
            "bound_p": self.bound_p,
            "bound_q": self.bound_q,
            "bound_q_entries": {f"{n},{m}": v for (n, m), v
                                in self.bound_q_entries.items()},
            "q_difference_norms": {f"{n},{m}": v for (n, m), v
                                   in self.q_norms.items()},
            "constants": self.constants,
            "quad_error": self.quad_error,
            "dominated": self.dominated(),
        }

    def save(self, path: str | Path):
        """Write ``to_json()`` as the simulate verb's report file."""
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def _window_deviation(profile: np.ndarray, row: np.ndarray,
                      window: np.ndarray) -> float:
    """max over n, m in window of |profile[|n - m|] - G[n, m]|, where G on
    Z_N is rolled out from its first block row ``row``.

    Along a window row n the entries G[n, m] are one read of _row_reader,
    and the exact side is a row of the _toeplitz view of the profile.  Taken
    over chunks of 64 rows: no N x N or (window x window) array is formed.
    """
    W = len(window)
    read, exact = _row_reader(row, W), _toeplitz(profile, W)
    maxima = [np.max(np.abs(exact[i:i + 64]
                            - read(window[i:i + 64], window[0])))
              for i in range(0, W, 64)]
    return float(np.max(maxima))


def error_report(stack: LayerStack, N: int, quad_points: int = 1 << 16,
                 pairs_to_check: tuple = ((0, 1), (0, 4), (0, 16))) -> ErrorReport:
    """Measure MERA-vs-exact deviations in the bulk and the theorem bounds.

    delta_p is the max entrywise deviation over the centered window
    |n|, |m| <= N/4; regulated q deviations are evaluated at the requested
    (n, m) pairs.  The window keeps its own ends apart on the ring.  The
    MERA covariance is built on Z_N, where a composed top filter longer than
    N folds onto the ring (the 20-tap K=2/L=4 massless pair spans 4846 sites
    at depth 8); the folded layers stay circulant and biorthogonal, and
    depth-8 delta_p at N = 2048 (1.194548273e-3) agrees with the
    infinite-lattice value (1.194548259e-3) to about 1e-11.  The entries
    are read from the covariance's first block rows (P x N, P = 2^depth);
    no N x N array is formed unless ``covariance`` is read.
    The oracle samples the dispersion once, on its fine grid, for all its
    profiles and norms; quad_points must exceed N, so that the grid does not
    alias the window's offsets.  ``quad_error`` is the largest certified
    error of the oracle profiles and norms.
    The operator bound uses the lattice min(N, max(512, 2^depth)).
    """
    d = stack.base_dispersion
    L = stack.depth
    q_rows, p_rows = _covariance_rows(stack, N)
    half = N // 4
    window = np.arange(-half, half + 1)
    offsets = np.arange(2 * half + 1)
    oracle = _Quadrature(d, quad_points)
    p_prof, quad_error = oracle.profile(_half, offsets)
    delta_p = _window_deviation(p_prof, p_rows, window)

    delta_q = None
    if not d.gapless:
        q_prof, q_err = oracle.profile(_half_inverse, offsets)
        quad_error = max(quad_error, q_err)
        delta_q = _window_deviation(q_prof, q_rows, window)

    deltas = sorted({abs(n - m) for n, m in pairs_to_check if n != m})
    reg_prof, norm_of = {}, {}
    if deltas:
        vals, reg_err = oracle.profile(_half_inverse, deltas, regulated=True)
        norms, norm_err = oracle.q_difference_norms(deltas)
        quad_error = max(quad_error, reg_err, norm_err)
        reg_prof = dict(zip(deltas, vals))
        norm_of = dict(zip(deltas, norms.tolist()))
    delta_q_reg, q_norms = {}, {}
    read = _row_reader(q_rows)
    for n, m in pairs_to_check:
        if n == m:
            continue
        mera_reg = read(n, m)[0] - read(n, n)[0]
        delta_q_reg[(n, m)] = float(abs(reg_prof[abs(n - m)] - mera_reg))
        q_norms[(n, m)] = norm_of[abs(n - m)]

    B = stack_amplitude_bound(stack)
    D = stack_operator_bound(stack, N=min(N, max(512, 2 ** L)))
    M = stack.max_support
    Omega = flow_report(d, L - 1).omega_bound
    eps = max(stack.epsilons)
    bound_p, q_prefactor = theorem_bound(B, D, M, Omega, eps, L)
    bound_q_entries = {key: q_prefactor * val for key, val in q_norms.items()}
    bound_q = max(bound_q_entries.values()) if bound_q_entries else q_prefactor
    constants = {"B": B, "D": D, "M": M, "Omega": Omega, "epsilon": eps,
                 "C": 4.0 * B ** 2 * M ** 1.5 * Omega, "L_layers": L, "N": N}
    return ErrorReport(delta_p, delta_q, delta_q_reg, bound_p, bound_q,
                       bound_q_entries, q_norms, constants, quad_error,
                       (q_rows, p_rows), oracle)
