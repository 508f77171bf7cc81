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
Richardson extrapolation, sampling omega once per grid for all profiles and
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

from .design import DesignParams, design_pair, epsilon_of
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
        """Each layer's filter-relation defect against its level."""
        return tuple(map(epsilon_of, self.pairs, self.levels))

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


def _roll_out(row: np.ndarray) -> np.ndarray:
    """The N x N matrix that commutes with shifts by P and has first block
    row ``row`` (P x N)."""
    P, N = row.shape
    G = np.empty((N, N))
    for q in range(0, N, P):  # rows q..q+P-1 are the row rolled by q
        G[q:q + P, q:] = row[:, :N - q]
        G[q:q + P, :q] = row[:, N - q:]
    return G


def _entry(row: np.ndarray, n, m):
    """Entry (n, m) on Z_N of the matrix rolled out from ``row``:
    row[n mod P, (m - n + n mod P) mod N]."""
    P, N = row.shape
    r = n % P
    return row[r, (m - n + r) % N]


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


class _Quadrature:
    """Periodic quadrature of functions of omega, Richardson-extrapolated.

    omega is sampled once on each grid k_j = -pi + 2 pi j/n, n = quad_points
    and 2 quad_points, when a profile or norm first needs it; every profile
    and norm read from one instance shares those samples.  On a grid the
    Riemann sum sum_j f_j cos(k_j d) / n is a DFT,
    (-1)^d Re rfft(f)[d'] / n with d' = min(d mod n, n - d mod n), so one
    rfft serves every integer offset.  An offset with 2|d| >= quad_points is
    refused, since the coarse grid aliases it.  fine + (fine - coarse) / 3
    cancels the h^2 term, and max |fine - coarse| / 3 is the certified error.
    """

    def __init__(self, d: Dispersion, quad_points: int):
        self.d = d
        self.quad_points = quad_points

    @cached_property
    def grids(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for n in (self.quad_points, 2 * self.quad_points):
            k = kgrid(n)
            out.append((k, np.asarray(self.d(k), dtype=np.float64)))
        return out

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

    @staticmethod
    def _read(spectrum: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
        """sum_j f_j cos(k_j d) / n per offset d, from rfft(f).real / n."""
        folded = offsets % n
        sign = np.where(offsets % 2 == 0, 1.0, -1.0)
        return sign * spectrum[np.minimum(folded, n - folded)]

    @staticmethod
    def _extrapolate(coarse, fine) -> tuple[np.ndarray, np.ndarray]:
        return fine + (fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0

    def profile(self, integrand, offsets,
                regulated: bool = False) -> tuple[np.ndarray, float]:
        """(1/2pi) integral of integrand(omega(k)) cos(k d) per offset d, and
        its certified error.  ``regulated`` zeroes the k = 0 sample and
        returns the differences value(d) - value(0), and certifies those."""
        offsets = self._offsets(offsets)
        results = []
        for k, w in self.grids:
            f = integrand(w)
            if regulated:
                f[np.abs(k) < 1e-15] = 0.0
            spectrum = np.fft.rfft(f).real / len(k)
            values = self._read(spectrum, offsets, len(k))
            if regulated:
                values = values - spectrum[0]
            results.append(values)
        values, err = self._extrapolate(*results)
        return values, float(np.max(err))

    def q_difference_norms(self, deltas) -> tuple[np.ndarray, float]:
        """||gamma_q (delta_n - delta_m)|| for |n - m| = delta, per delta, and
        the certified error of the norms.

        By Parseval, norm^2 = (1/2pi) integral (1 - cos k delta) h(k) dk with
        h = 1 / (2 omega^2).  At k = 0 the integrand tends to
        delta^2 g(0) / 2, g = k^2 h, which is not 0 on a gapless chain; the
        Riemann sum takes that limit as its k = 0 sample, with g(0)
        extrapolated as (4 g(h) - g(2h)) / 3 from the samples at k = -h and
        -2h (g(0) = 0 where omega(0) > 0).  The sum is formed without
        cancellation: with s = 1 / (4 sin^2(k/2)), (1 - cos k delta) s is
        delta/2 times the Fejer kernel, a trigonometric polynomial of degree
        delta - 1 < n whose k = 0 value is delta^2 / 2, so the grid sums
        its part to g(0) delta / 2 exactly, and one rfft of the bounded
        remainder h - g(0) s, read at every delta, gives the rest.
        """
        deltas = self._offsets(deltas)
        if np.any(deltas == 0):
            raise ValueError("delta must be nonzero")
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
        squares, err = self._extrapolate(*results)
        norms = np.sqrt(np.maximum(squares, 0.0))
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


def exact_covariance(d: Dispersion, N: int, quad_points: int = 1 << 16,
                     regulated: bool | None = None) -> CovariancePair:
    """Toeplitz ground-state covariance of the infinite chain, rows 0..N-1."""
    if regulated is None:
        regulated = d.gapless
    offsets = np.arange(N)
    p_prof, p_err = exact_p_profile(d, offsets, quad_points)
    q_prof, q_err = exact_q_profile(d, offsets, quad_points, regulated)
    idx = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    return CovariancePair(N, q_prof[idx], p_prof[idx], regulated=regulated,
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
    k = 2.0 * np.pi * np.arange(N) / N
    w = np.asarray(d(k))
    # sum_j f(k_j) cos(k_j d) / N is Re fft(f)[d] / N
    q_prof = np.fft.fft(1.0 / (2.0 * w)).real / N
    p_prof = np.fft.fft(w / 2.0).real / N
    delta = np.arange(N)
    idx = np.abs(np.subtract.outer(delta, delta))
    idx = np.minimum(idx, N - idx)
    return CovariancePair(N, q_prof[idx], p_prof[idx])


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
    momenta k_j = -pi + 2 pi j / N the exact covariance C is circulant, and
    the wavelet rows of W_a place a_w at stride 2, so the wavelet block of
    W_a C W_a^T is circulant on Z_{N/2} with symbol
    (sigma(k) + sigma(k + pi)) / 2 at k_j, j < N/2; sigma is
    omega_l(pi) |g_w|^2 / (2 omega_l) for q and |h_w|^2 omega_l /
    (2 omega_l(pi)) for p.  One inverse FFT per block gives its entries by
    lag.  As for ring_covariance and decomposition_map, a gapless level is
    refused, and so is an odd N or one below twice the support.
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
            lags = np.fft.ifft(sigma.reshape(2, N // 2).mean(axis=0)).real
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


def _shift_invariant_norm(block_row: np.ndarray) -> float:
    """Spectral norm of a map R that commutes with input shifts by P.

    ``block_row`` is the first block row of G = R^T R (see _gram_block_rows);
    G is block-circulant with P x P blocks, so ||R||^2 is the largest
    eigenvalue of its N/P Hermitian symbols, the DFT over the block index.
    The blocks are real, so symbols at theta and -theta are conjugate and
    share their eigenvalues: an rfft gives all of them, and the symbols at
    theta = 0 and pi are real.
    """
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
    norm from P x P Gram symbols (see _shift_invariant_norm).  One walk per
    first layer l0 yields the Gram rows of every sub-stack [l0, l1), and its
    g and h norms are kept per depth.  A walk from l0 is not run when an
    earlier run walk from j has the same filters at layers l0.. as at j..
    and the same squeezes after the first layer: every block of a g map of
    the walk from l0 is then the walk-j block times c = s[l0] / s[j], so its
    g norms are walk j's times c and its h norms walk j's divided by c, up
    to its own depth L - l0.  On a scale-invariant stack, whose layers all
    share one pair and whose squeezes after the first are alike, one walk
    per channel remains.
    """
    keys = list(map(_layer_key, stack.pairs))
    s = stack.squeezes
    L = stack.depth
    walks = {}  # first layer of a run walk -> its (g, h) norms per depth
    worst = 0.0
    for l0 in range(L):
        depth = L - l0
        j = next((j for j in walks if keys[l0:] == keys[j:j + depth]
                  and s[l0 + 1:] == s[j + 1:j + depth]), None)
        if j is None:
            j = l0
            walks[j] = [
                [_shift_invariant_norm(
                    rows + placed_gram_rows(scaling, N, len(rows)))
                 for rows, scaling in _gram_block_rows(
                     stack.pairs[l0:], channel, N, scales)]
                for channel, scales in (("g", s[l0:]),
                                        ("h", [1.0 / x for x in s[l0:]]))]
        c = s[l0] / s[j]  # 1 for a walk just run
        g, h = walks[j]
        worst = max(worst, *(c * x for x in g[:depth]),
                    *(x / c for x in h[:depth]))
    return worst


def stack_amplitude_bound(stack: LayerStack, J: int = 10) -> float:
    """Max sup-norm of the scaling functions of all filters in the stack."""
    worst = 0.0
    seen = set()
    for pair in stack.pairs:
        for a_s in (pair.g_s, pair.h_s):
            key = (a_s.offset, a_s.coeffs.tobytes())
            if key in seen:
                continue
            seen.add(key)
            a0 = float(np.real(a_s(0.0)))
            phi = cascade(a_s.scale(np.sqrt(2.0) / a0), J)
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
    Z_N is rolled out from its first block row ``row`` (see _entry).

    Along a window row n the entries G[n, m] sit in consecutive columns
    (mod N) of row[n mod P], so each is a slice of a strided view of the
    rows, and the exact side is a row of a Toeplitz view of the profile.
    Taken over chunks of 64 rows: no N x N or (window x window) array is
    formed.
    """
    P, N = row.shape
    W = len(window)
    wrapped = np.concatenate([row, row[:, :W - 1]], axis=1)
    mera = sliding_window_view(wrapped, W, axis=1)
    exact = sliding_window_view(profile[np.abs(np.arange(1 - W, W))], W)[::-1]
    r = window % P
    start = (window[0] - window + r) % N
    maxima = [np.max(np.abs(exact[i:i + 64]
                            - mera[r[i:i + 64], start[i:i + 64]]))
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
    The oracle samples the dispersion once per quadrature grid for all its
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
    for n, m in pairs_to_check:
        if n == m:
            continue
        mera_reg = _entry(q_rows, n, m) - _entry(q_rows, n, n)
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
