"""Multi-layer renormalization stacks, MERA covariances, and error bounds.

A stack carries one filter pair and one squeeze factor sqrt(omega_l(pi)) per
layer; the composed lattice maps R_g (scaled by the squeezes) and
R_h (scaled by their inverses) are symplectic partners, and the MERA
ground-state approximation has covariance blocks

    gamma_q = (1/2) R_h^T R_h,    gamma_p = (1/2) R_g^T R_g.

Each output block of R places one level filter at stride 2^l, so a Gram
R^T R is the sum of the filters' placed autocorrelations and commutes with
shifts by P = 2^depth.  Its first block row G[:P, :] is built from the level
filters alone (filters.level_walk, filters.placed_gram_rows) and finished
one way (_with_top).  The error report reads its window of covariance
entries straight from that row, by runs of rows that share columns, and
the operator bound turns it into P x P symbols; only mera_covariance, the
public ring API, rolls it out to N x N.  No N x N array is formed on the
report path; multi_layer_map remains the dense reference.

The exact oracle evaluates the translation-invariant ground-state covariance
gamma_p(k) = omega/2, gamma_q(k) = 1/(2 omega).  On the massless shape
omega = b |sin(k/2)|, b > 0 (Harmonic(0) and each of its levels), it reads
elementary closed forms and samples nothing; any other dispersion takes
periodic quadrature with Richardson extrapolation, from one transform per
integrand for all profiles and norms of a report.  Either certifies its
error: the closed forms their rounding, the quadrature its truncation.  For
gapless dispersions the q-block exists only in the regulated form
gamma_q[n,m] - gamma_q[n,n].  The rigorous error bound is
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

from .design import (DesignParams, _is_massless_shape, design_pair,
                     layer_epsilons)
from .dispersion import Dispersion, fitted_mass, flow, flow_report
from .errors import (GaplessUnregulated, LatticeTooSmall, NonFiniteFilter,
                     NormalizationFailure, OutOfHypothesis, WavergError)
from .filters import (FilterPair, FirFilter, check_lattice, kgrid, level_walk,
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
        once; build_stack seeds it from its design reports."""
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
    chain.  A designed layer with the previous layer's taps, as on that
    chain, holds that layer's pair object: the report shares work by object.
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
                pair, report = design_pair(dl, design)
            except WavergError as err:
                err.layer = l
                raise
            prev = designed[-1][0] if designed else pair
            if all(a.offset == b.offset and np.array_equal(a.coeffs, b.coeffs)
                   for a, b in ((pair.g_s, prev.g_s), (pair.h_s, prev.h_s))):
                pair = prev
            designed.append((pair, report))
        pairs, reports = zip(*designed)
    stack = LayerStack(pairs, [np.sqrt(dl.omega_pi) for dl in levels], d,
                       reports)
    object.__setattr__(stack, "levels", levels)  # seed the cached flow
    if reports:  # each design has measured epsilon_of(pair, level)
        object.__setattr__(stack, "epsilons", tuple(r.epsilon for r in reports))
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


def _gram_block_rows(pairs, channel: str, N: int, scales,
                     count: int | None = None):
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

    The rows live in one buffer of min(count, 2^len(pairs)) rows (count
    defaults to all): a stride s keeps its first c = min(count, s) rows.  It
    copies rows 0 .. c - s / 2 - 1, rolled by s / 2, into rows s / 2 .. c - 1
    and adds the first c rows of its placed Gram in place; the rows below c
    read only rows below c.  From count = 2 on these are the full walk's
    first rows bit for bit (see placed_gram_rows).  A yielded array is that
    view of the buffer, overwritten by the next step: read it (or copy it)
    before advancing the walk.  Finite taps can square past the double
    range: each step, the level_walk composition included, runs under
    errstate, never across a yield, and _with_top refuses the rows.
    """
    check_lattice(pairs, N)
    P = 1 << len(pairs)
    count = P if count is None else min(count, P)
    buf = np.zeros((count, N))
    levels = level_walk(pairs, channel, scales)
    for depth in range(1, len(pairs) + 1):
        s = 1 << depth
        h, c = s // 2, min(count, s)
        with np.errstate(over="ignore", invalid="ignore"):
            scaling, wavelet = next(levels)
            if c > h:
                buf[h:c, h:] = buf[:c - h, :N - h]
                buf[h:c, :h] = buf[:c - h, N - h:]
            rows = buf[:c]
            rows += placed_gram_rows(wavelet, N, s, c)
        yield rows, scaling


def _with_top(rows: np.ndarray, scaling: FirFilter, N: int, P: int,
              stage: str) -> np.ndarray:
    """``rows``, a Gram walk's first rows at P = 2^depth (_gram_block_rows),
    plus the top scaling block, added in place: the first rows of G[:P, :].
    Rows that are not finite are refused as NonFiniteFilter(stage), before
    any symbol or eigenvalue is formed from them."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows += placed_gram_rows(scaling, N, P, len(rows))
    if not np.isfinite(rows).all():
        raise NonFiniteFilter(stage)
    return rows


def _roll_out(row: np.ndarray) -> np.ndarray:
    """The N x N matrix that commutes with shifts by P and has first block
    row ``row`` (P x N).  Its row n is row[n mod P] rolled by n - n mod P:
    window N - n + n mod P of that row doubled along its columns, all read
    through one sliding-window view."""
    P, N = row.shape
    n = np.arange(N)
    r = n % P
    windows = sliding_window_view(np.concatenate([row, row], axis=1), N,
                                  axis=1)
    return windows[r, N - n + r]


def _channel_scales(squeezes, channel: str):
    """Per-layer factors of a channel's maps: the squeezes for g, their
    inverses for h."""
    return squeezes if channel == "g" else [1.0 / s for s in squeezes]


def _channel_rows(stack: LayerStack, channel: str, N: int,
                  count: int | None = None) -> np.ndarray:
    """First ``count`` rows (default all 2^depth) of the first block row of
    gamma_q = R_h^T R_h / 2 (channel h) or gamma_p = R_g^T R_g / 2 (g) on
    Z_N as built (see _gram_block_rows), not symmetrized."""
    *_, (row, scaling) = _gram_block_rows(
        stack.pairs, channel, N, _channel_scales(stack.squeezes, channel),
        count)
    # the walk has ended, so its buffer is free to finish in place
    row = _with_top(row, scaling, N, 1 << stack.depth,
                    f"{channel}-channel Gram walk")
    row *= 0.5
    return row


def _covariance_rows(stack: LayerStack, N: int,
                     q_count: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """First block rows (q, p) of gamma_q and gamma_p on Z_N as built
    (_channel_rows), of q only the first ``q_count`` rows if given."""
    return (_channel_rows(stack, "h", N, q_count),
            _channel_rows(stack, "g", N))


def _symmetric_roll_out(row: np.ndarray) -> np.ndarray:
    """(C + C^T) / 2 of the C rolled out from ``row``, exactly symmetric."""
    C = _roll_out(row)
    C = C + C.T
    C *= 0.5  # in place: one N x N transient, not two
    return C


def mera_covariance(stack: LayerStack, N: int) -> CovariancePair:
    """gamma_q = R_h^T R_h / 2 and gamma_p = R_g^T R_g / 2 on Z_N, rolled
    out from _covariance_rows and made exactly symmetric where formed."""
    return CovariancePair(N, *map(_symmetric_roll_out,
                                  _covariance_rows(stack, N)))


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


def _integer_offsets(offsets, quad_points: int) -> np.ndarray:
    """``offsets`` as int64, refused unless they are integers with
    quad_points > 2 max|offset|: the quadrature's coarse grid kgrid(q) would
    alias them.  Both oracles check it, so --quad-points keeps one contract."""
    offsets = np.asarray(offsets)
    if not np.all(np.isfinite(offsets)) or np.any(
            offsets != np.rint(offsets)):
        raise ValueError("profile offsets must be integers")
    offsets = offsets.astype(np.int64)
    reach = 2 * int(np.max(np.abs(offsets), initial=0))
    if not quad_points > reach:
        raise ValueError(
            f"quad_points = {quad_points} must exceed "
            f"2 max|offset| = {reach}: the grid would alias the offsets")
    return offsets


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
    def k(self) -> np.ndarray:
        """The fine grid kgrid(2q)."""
        return kgrid(2 * self.quad_points)

    @cached_property
    def omega(self) -> np.ndarray:
        return np.asarray(self.d(self.k), dtype=np.float64)

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
        offsets = _integer_offsets(offsets, self.quad_points)
        if integrand not in self._sums:
            self._sums[integrand] = _riemann_sums(integrand(self.omega))
        values, err = self._extrapolated(self._sums[integrand], offsets,
                                         regulated)
        return values, float(np.max(err, initial=0.0))

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
        deltas = np.abs(_integer_offsets(deltas, self.quad_points))
        if np.any(deltas == 0):
            raise ValueError("delta must be nonzero")
        k, w, i = self.k, self.omega, self.quad_points
        w2 = w * w
        h = np.where(w2 > 0, 1.0 / (2.0 * np.maximum(w2, 1e-300)), 0.0)
        g0 = 0.0 if w[i] > 0 else (4.0 * k[i - 1] ** 2 * h[i - 1]
                                   - k[i - 2] ** 2 * h[i - 2]) / 3.0
        if g0 == 0.0:  # h - 0 / (4 sin^2) is h exactly where sin != 0
            rest = h
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                rest = h - g0 / (4.0 * np.sin(k / 2.0) ** 2)
        rest[i] = 0.0  # k_i = 0 up to rounding
        values, err = self._extrapolated(_riemann_sums(rest), deltas, True)
        norms = np.sqrt(np.maximum(g0 * deltas / 2.0 - values, 0.0))
        # |sqrt(a) - sqrt(b)| <= min(sqrt(|a - b|), |a - b| / sqrt(a))
        return norms, float(np.max(np.minimum(
            np.sqrt(err), err / np.maximum(norms, 1e-300)), initial=0.0))


#: the unit roundoff u of float64, and the closed forms' certified error in
#: units of u times the value: each rounds pi (0.35 u) and at most four
#: operations past the exact integers it reads, and a regulated q sum of |n|
#: rounded terms added in order adds |n| u more
_ROUNDOFF = np.finfo(np.float64).eps / 2.0
_FORM_ROUNDINGS = 5


class _MasslessForms:
    """The exact oracle of omega = b |sin(k/2)|, b > 0, in closed form, with
    the two methods of _Quadrature the package reads.

    (1/2pi) integral of (omega/2) cos(k n) is gamma_p(n) = -b / (pi (4 n^2
    - 1)), and of (cos(k n) - 1) / (2 omega) it is the regulated
    gamma_q(n) - gamma_q(0) = -(2 / (pi b)) sum_{j=1}^{|n|} 1 / (2j - 1),
    one cumsum up to max|n|; the q-difference norm is sqrt(|delta|) / b,
    since (1 - cos k delta) / (2 sin^2(k/2)) is delta times the Fejer
    kernel.  Nothing is sampled, and the certified errors bound the
    rounding of these formulas, relative to each value: _FORM_ROUNDINGS u
    (u = _ROUNDOFF), and (|n| + _FORM_ROUNDINGS) u for the sum of |n| terms.
    Offsets are checked against quad_points as the quadrature checks them
    (_integer_offsets).
    """

    def __init__(self, b: float, quad_points: int):
        self.b = b
        self.quad_points = quad_points

    def profile(self, integrand, offsets,
                regulated: bool = False) -> tuple[np.ndarray, float]:
        """gamma_p (``_half``) or the regulated gamma_q (``_half_inverse``,
        ``regulated``) per offset, and its certified error."""
        n = np.abs(_integer_offsets(offsets, self.quad_points))
        if (integrand, regulated) == (_half, False):
            values = -self.b / (np.pi * (4.0 * n * n - 1.0))
            err = _FORM_ROUNDINGS * _ROUNDOFF * np.abs(values)
        elif (integrand, regulated) == (_half_inverse, True):
            top = int(np.max(n, initial=0))
            sums = np.zeros(top + 1)
            np.cumsum(1.0 / (2.0 * np.arange(1, top + 1) - 1.0), out=sums[1:])
            values = -2.0 / (np.pi * self.b) * sums[n]
            err = (n + _FORM_ROUNDINGS) * _ROUNDOFF * np.abs(values)
        else:
            raise ValueError("the closed forms give gamma_p and the "
                             "regulated gamma_q")
        return values, float(np.max(err, initial=0.0))

    def q_difference_norms(self, deltas) -> tuple[np.ndarray, float]:
        """||gamma_q (delta_n - delta_m)|| = sqrt(delta) / b for
        |n - m| = delta, per delta, and the certified error of the norms."""
        deltas = np.abs(_integer_offsets(deltas, self.quad_points))
        if np.any(deltas == 0):
            raise ValueError("delta must be nonzero")
        norms = np.sqrt(deltas) / self.b
        return norms, float(np.max(_FORM_ROUNDINGS * _ROUNDOFF * norms,
                                   initial=0.0))


def _oracle(d: Dispersion, quad_points: int) -> _Quadrature | _MasslessForms:
    """The exact oracle of d: the closed forms on the massless shape
    hypot(0, b sin(k/2)), b > 0 (design._is_massless_shape), and periodic
    quadrature on quad_points otherwise."""
    if _is_massless_shape(d):
        return _MasslessForms(d.harmonic_form[1], quad_points)
    return _Quadrature(d, quad_points)


def exact_p_profile(d: Dispersion, offsets: np.ndarray,
                    quad_points: int = 1 << 16) -> tuple[np.ndarray, float]:
    """gamma_p at lattice offsets: (1/2pi) integral of (omega/2) cos(k d)."""
    return _oracle(d, quad_points).profile(_half, offsets)


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
    return _oracle(d, quad_points).profile(_half_inverse, offsets, regulated)


def _toeplitz(profile: np.ndarray, rows: int, cols: int,
              shift: int) -> np.ndarray:
    """rows x cols read-only view, entry (i, k) = profile[|k - i + shift|]."""
    line = profile[np.abs(np.arange(shift + 1 - rows, shift + cols))]
    return sliding_window_view(line, cols)[::-1]


def exact_covariance(d: Dispersion, N: int,
                     regulated: bool | None = None) -> CovariancePair:
    """Toeplitz ground-state covariance of the infinite chain, rows 0..N-1."""
    if regulated is None:
        regulated = d.gapless
    offsets = np.arange(N)
    p_prof, p_err = exact_p_profile(d, offsets)
    q_prof, q_err = exact_q_profile(d, offsets, regulated=regulated)
    return CovariancePair(N, _toeplitz(q_prof, N, N, 0).copy(),
                          _toeplitz(p_prof, N, N, 0).copy(),
                          regulated=regulated, quad_error=max(p_err, q_err))


def q_difference_norm(d: Dispersion, delta: int,
                      quad_points: int = 1 << 16) -> float:
    """l2 norm of gamma_q (delta_n - delta_m) with |n - m| = delta.

    By Parseval (1/2pi convention):
    norm^2 = (1/2pi) integral (1 - cos(k delta)) / (2 omega(k)^2) dk,
    finite for gapless omega ~ |k| when delta != 0
    (see _Quadrature.q_difference_norms).
    """
    norms, _ = _oracle(d, quad_points).q_difference_norms([delta])
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
    There the real symbols are the one block B_0 (N/P = 1, the block row
    itself) or B_0 + B_1 and B_0 - B_1 (N/P = 2), pocketfft's sums bit for
    bit.  From N/P = 4 on, block sums match it only in its own butterfly
    order, so the rfft stays there.
    """
    P, N = block_row.shape
    n = N // P
    if n == 1:
        return block_row[None], np.empty((0, P, P), dtype=complex)
    if n == 2:
        B0, B1 = block_row[:, :P], block_row[:, P:]
        real = np.empty((2, P, P))
        np.add(B0, B1, out=real[0])
        np.subtract(B0, B1, out=real[1])
        return real, np.empty((0, P, P), dtype=complex)
    blocks = block_row.reshape(P, n, P).swapaxes(0, 1)
    symbols = np.fft.rfft(blocks, axis=0)
    real = [0, n // 2] if n % 2 == 0 else [0]
    # copies: a batch is kept until the screen, and a view would keep the
    # whole transform (and a real batch its imaginary parts) alive with it
    return symbols.real[real], symbols[1:(n + 1) // 2].copy()


def _below(symbols: np.ndarray, t: float) -> bool:
    """True when every symbol S of the batch has its eigenvalues below t, up
    to the margin of the tests below.  Like eigvalsh, both read the lower
    triangles.

    First a screen: the largest absolute row sum of the Hermitian matrix
    whose lower triangle and real diagonal S holds bounds every eigenvalue
    (Gershgorin).  Below t (1 - _CERTIFY_MARGIN) the batch is ruled out
    with no factorization; the sums of P <= 2^15 nonnegative terms round
    far less than the margin, and a t <= 0 is never reached.  A NaN sum is
    not below, so a NaN batch goes on as before.  Otherwise one
    batched Cholesky factorization of t I - S must succeed for every S,
    which shows each eigenvalue below t up to the factorization's backward
    error.  OpenBLAS's potrf passes NaN pivots, so a non-finite factor
    counts as a failure."""
    lower = np.abs(symbols)  # zeroed in place, not multiplied: inf 0 = NaN
    np.copyto(lower, 0.0, where=~np.tri(*lower.shape[1:], -1, dtype=bool))
    sums = (np.abs(symbols.diagonal(axis1=1, axis2=2).real)
            + lower.sum(axis=2) + lower.sum(axis=1))
    if sums.max() < t * (1.0 - _CERTIFY_MARGIN):
        return True
    shifted = -symbols
    diagonal = np.arange(symbols.shape[-1])
    shifted[:, diagonal, diagonal] += t
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


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
    run walk from j has the same pair objects at layers l0.. as at j.. and
    the same squeezes after the first layer: every block of a g map of the walk
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
    first gets eigvalsh.  A later one is ruled out when _below(S, t) holds,
    t = (worst / m)^2 (1 - _CERTIFY_MARGIN): a Gershgorin row-sum screen,
    or else one batched Cholesky factorization of t I - S.  Every norm it
    holds is then below the running maximum.  Otherwise it gets eigvalsh
    too.  So the result is the maximum of the same floating-point numbers
    as with eigvalsh on every batch.  A walk whose Gram rows leave the
    double range is refused as NonFiniteFilter (_with_top) before any
    symbol is formed.
    """
    pairs, s = stack.pairs, stack.squeezes
    L = stack.depth
    # first layer of a run walk -> its (depth index, channel, symbol batch,
    # ratios c of the sub-stacks that read it)
    walks = {}
    for l0 in range(L):
        depth = L - l0
        j = next((j for j in walks if pairs[l0:] == pairs[j:j + depth]
                  and s[l0 + 1:] == s[j + 1:j + depth]), None)
        if j is None:
            j = l0
            walks[j] = [
                (d, channel, S, [])
                for channel in "gh"
                for d, (rows, scaling) in enumerate(_gram_block_rows(
                    pairs[l0:], channel, N, _channel_scales(s[l0:], channel)))
                # a copy: the walk goes on in its buffer
                for S in _gram_symbols(_with_top(
                    rows.copy(), scaling, N, len(rows),
                    f"operator-bound {channel}-channel Gram walk"))
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
    """Max sup-norm of the depth-10 cascades of all filters in the stack,
    each filter object rescaled to a_s(0) = sqrt(2) and cascaded once.  One
    that no rescaling normalizes is refused before any cascade, as
    NormalizationFailure on the first layer holding it."""
    pairs, normalized = stack.pairs, []
    for a_s in dict.fromkeys(f for p in pairs for f in (p.g_s, p.h_s)):
        with np.errstate(all="ignore"):  # a0 = 0 gives inf taps: refused
            a0 = float(np.real(a_s(0.0)))
            taps = np.sqrt(2.0) / a0 * a_s.coeffs
        if not (np.isfinite(a0) and np.isfinite(taps).all()):
            err = NormalizationFailure(f"scaling filter has a_s(0) = {a0:.3e}"
                                       " and cannot be rescaled to sqrt(2)")
            err.layer = next(l for l, p in enumerate(pairs)
                             if a_s in (p.g_s, p.h_s))
            raise err
        normalized.append(FirFilter(a_s.offset, taps))
    return max(float(np.max(np.abs(cascade(f, 10).values)))
               for f in normalized)


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
    #: the stack and the first block rows (q, p) of its MERA covariance that
    #: the deviations were measured on, as built: p is P x N, and so is q on
    #: a gapped chain; a gapless report holds the q rows it read (not
    #: serialized)
    stack: LayerStack = field(repr=False)
    measured_rows: tuple = field(repr=False)
    #: the oracle (_oracle) and any samples of omega it took, for later
    #: profiles (not serialized)
    oracle: _Quadrature | _MasslessForms = field(repr=False)

    @cached_property
    def covariance_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """First block rows (q, p) of the MERA covariance, P x N each, as
        built: the measured rows, with a gapless report's q block walked
        here (_channel_rows) on first read."""
        q_rows, p_rows = self.measured_rows
        P, N = p_rows.shape
        if len(q_rows) < P:
            q_rows = _channel_rows(self.stack, "h", N)
        return q_rows, p_rows

    @cached_property
    def covariance(self) -> CovariancePair:
        """The MERA covariance on Z_N, rolled out from ``covariance_rows``
        and made exactly symmetric (_symmetric_roll_out)."""
        q_rows, p_rows = self.covariance_rows
        return CovariancePair(q_rows.shape[1], _symmetric_roll_out(q_rows),
                              _symmetric_roll_out(p_rows))

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
    Z_N is rolled out from its first block row ``row`` (P x N) and the
    window is a run lo .. hi of W <= N / 2 + 1 sites.

    Row n = jP + r of G is row r rolled by jP, so G[n, n + t] is
    row[r, (r + t) mod N]: the window rows of block j read columns lo - jP
    .. hi - jP (mod N) of row r, and entry (r, c) of ``row`` meets G at the
    offset c - r whichever block reads it.  Row r lies in the window for
    blocks j_min .. j_max, so it reads columns lo - j_max P .. hi - j_min P,
    one run (a row in two blocks puts P < W: their columns overlap).  j_max
    changes only at r = hi mod P + 1, and j_min only at r = lo mod P, so at
    most three runs of rows share one column range, and each run is read
    once, as at most two column slices, against a read-only Toeplitz view
    of the profile.  Taken over chunks of 64 rows: no N x N or
    (window x window) array is formed.
    """
    P, N = row.shape
    lo, W = int(window[0]), len(window)
    hi = lo + W - 1
    maxima = []
    cuts = sorted({0, lo % P, hi % P + 1, P})
    for r0, r1 in zip(cuts, cuts[1:]):
        j_min, j_max = -((r0 - lo) // P), (hi - r0) // P
        if j_min > j_max:  # no window row is r0 .. r1 - 1 mod P
            continue
        t, width = lo - j_max * P, W + (j_max - j_min) * P
        exact = _toeplitz(profile, r1 - r0, width, t - r0)
        start = t % N
        cut = min(width, N - start)
        for i in range(r0, r1, 64):
            band = slice(i, min(i + 64, r1))
            part = exact[i - r0:band.stop - r0]
            for want, got in ((part[:, :cut], row[band, start:start + cut]),
                              (part[:, cut:], row[band, :width - cut])):
                if want.size:
                    diff = want - got
                    maxima.append(np.max(np.abs(diff, out=diff)))
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
    are read from the covariance's first block rows (P x N, P = 2^depth)
    as built; on a gapless chain only the q rows the regulated pairs read
    are built, and the full q block is walked only when ``covariance_rows``
    or ``covariance`` is read.  No N x N array is formed unless
    ``covariance`` is read, and that roll-out is made exactly symmetric
    where it is formed.
    The oracle (_oracle) reads closed forms on the massless shape and
    otherwise samples the dispersion once, on its fine grid, for all its
    profiles and norms; quad_points must exceed N, so that the grid does not
    alias the window's offsets, and is checked on both routes.
    ``quad_error`` is the largest certified error of the oracle profiles and
    norms: the rounding of the closed forms, or the quadrature's Richardson
    truncation.
    The operator bound uses the lattice min(N, max(512, 2^depth)).
    """
    d = stack.base_dispersion
    L = stack.depth
    # first: it refuses a scaling filter that no rescaling normalizes, whose
    # taps the Gram walk would overflow on
    B = stack_amplitude_bound(stack)
    P = 1 << L
    # a gapless report reads q at rows n mod P only; two rows at least, since
    # a one-row product sums in another order (placed_gram_rows)
    q_count = max(2, 1 + max((n % P for n, _ in pairs_to_check), default=0)) \
        if d.gapless else None
    q_rows, p_rows = _covariance_rows(stack, N, q_count)
    half = N // 4
    window = np.arange(-half, half + 1)
    offsets = np.arange(2 * half + 1)
    oracle = _oracle(d, quad_points)
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
        r = n % P  # G[n, m] is q_rows[n mod P, (m - n + n mod P) mod N]
        mera_reg = q_rows[r, (m - n + r) % N] - q_rows[r, r]
        delta_q_reg[(n, m)] = float(abs(reg_prof[abs(n - m)] - mera_reg))
        q_norms[(n, m)] = norm_of[abs(n - m)]

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
                       stack, (q_rows, p_rows), oracle)
