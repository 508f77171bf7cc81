"""Finitely supported real filters, composed level filters of a layer stack,
and the periodic-lattice maps placed from them.

Fourier convention throughout the package: a(k) = sum_n a[n] exp(-i k n).
Under this convention the time-domain wavelet rule
g_w[n] = (-1)^(1-n) h_s[1-n] coincides with the frequency-domain rule
g_w(k) = exp(-ik) conj(h_s(k + pi)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import LatticeTooSmall

ROOT2 = float(np.sqrt(2.0))

#: default uniform evaluation grid on [-pi, pi)
DEFAULT_GRID = 4096


def kgrid(n: int = DEFAULT_GRID) -> np.ndarray:
    """n uniform frequencies -pi + 2 pi j / n, j = 0..n-1, on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True, eq=False)
class FirFilter:
    """Real filter with finite support starting at ``offset``.

    Stored coefficients are canonically trimmed: leading and trailing entries
    are nonzero (the all-zero filter keeps a single 0 tap at offset 0).
    """

    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        nz = np.flatnonzero(c)
        if nz.size == 0:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "coeffs", np.zeros(1))
        else:
            lo, hi = nz[0], nz[-1] + 1
            object.__setattr__(self, "offset", int(self.offset) + int(lo))
            object.__setattr__(self, "coeffs", c[lo:hi].copy())
        self.coeffs.setflags(write=False)

    # -- basic queries -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def support(self) -> tuple[int, int]:
        """(first, last) index carrying a coefficient, inclusive."""
        return self.offset, self.offset + len(self.coeffs) - 1

    def __getitem__(self, n):
        """Tap at index n, 0 off the support; an integer array gives an array."""
        i = np.asarray(n) - self.offset
        ok = (i >= 0) & (i < len(self.coeffs))
        out = np.where(ok, self.coeffs[np.where(ok, i, 0)], 0.0)
        return out if out.ndim else float(out)

    def __iter__(self):
        """A filter is not a sequence: __getitem__ never raises IndexError,
        so the legacy iteration protocol (list(), np.array()) would never
        end.  Read ``coeffs`` or index a range of ``indices()`` instead."""
        raise TypeError("FirFilter is not iterable; read .coeffs")

    #: numpy defers to __rmul__, so np.float64(2.0) * f is a FirFilter
    __array_ufunc__ = None

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.coeffs))

    # -- algebra -----------------------------------------------------------
    def __call__(self, k):
        """Fourier transform sum_n a[n] exp(-i k n); accepts scalars or arrays.

        Horner in z = exp(-ik), times exp(-ik offset): two complex
        exponentials per point, whatever the number of taps.
        """
        k = np.asarray(k, dtype=np.float64)
        val = np.polyval(self.coeffs[::-1], np.exp(-1j * k)) \
            * np.exp(-1j * self.offset * k)
        return complex(val) if val.ndim == 0 else val

    def convolve(self, other: "FirFilter") -> "FirFilter":
        return FirFilter(self.offset + other.offset,
                         np.convolve(self.coeffs, other.coeffs))

    def correlate(self, other: "FirFilter") -> "FirFilter":
        """c[m] = sum_j self[j] other[j - m]  (Fourier: self(k) other(-k))."""
        c = np.convolve(self.coeffs, other.coeffs[::-1])
        off = self.offset - (other.offset + len(other.coeffs) - 1)
        return FirFilter(off, c)

    def reflect(self) -> "FirFilter":
        """n -> -n; Fourier: a(-k)."""
        return FirFilter(-(self.offset + len(self.coeffs) - 1), self.coeffs[::-1])

    def shift(self, t: int) -> "FirFilter":
        return FirFilter(self.offset + t, self.coeffs)

    def upsample(self, factor: int) -> "FirFilter":
        """Insert factor - 1 zeros between taps: a(k) -> a(factor k)."""
        c = np.zeros(factor * (len(self.coeffs) - 1) + 1)
        c[::factor] = self.coeffs
        return FirFilter(factor * self.offset, c)

    def scale(self, c: float) -> "FirFilter":
        return FirFilter(self.offset, c * self.coeffs)

    def __mul__(self, c: float) -> "FirFilter":
        return self.scale(float(c))

    __rmul__ = __mul__

    def __add__(self, other: "FirFilter") -> "FirFilter":
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        c = np.zeros(hi - lo)
        c[self.offset - lo:self.offset - lo + len(self.coeffs)] += self.coeffs
        c[other.offset - lo:other.offset - lo + len(other.coeffs)] += other.coeffs
        return FirFilter(lo, c)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        a, b = self.support
        if a != -b:
            return False
        return bool(np.max(np.abs(self.coeffs - self.coeffs[::-1])) <= tol)

    @staticmethod
    def delta(n: int = 0, value: float = 1.0) -> "FirFilter":
        return FirFilter(n, np.array([value]))


HAAR_SCALING = FirFilter(0, np.array([1.0, 1.0]) / ROOT2)


def wavelet_from_scaling(dual_scaling: FirFilter) -> FirFilter:
    """a_w[n] = (-1)^(1-n) b_s[1-n] from the dual scaling filter."""
    lo, hi = dual_scaling.support
    n = np.arange(1 - hi, 2 - lo)
    return FirFilter(1 - hi, np.where(n % 2, 1.0, -1.0) * dual_scaling[1 - n])


@dataclass(frozen=True, eq=False)
class FilterPair:
    """Biorthogonal pair (g, h) of scaling filters plus derived wavelets.

    The wavelets and ``pr_residual``, the PR defect d = max_n |c[2n] -
    delta_0[n]| of c = g_s correlated with h_s (2 d <= sup_k |g(k) conj(h(k))
    + g(k+pi) conj(h(k+pi)) - 2| <= 2 sum_n |c[2n] - delta_0[n]|), are
    derived from the scaling filters on first read.
    """

    g_s: FirFilter
    h_s: FirFilter

    @cached_property
    def g_w(self) -> FirFilter:
        return wavelet_from_scaling(self.h_s)

    @cached_property
    def h_w(self) -> FirFilter:
        return wavelet_from_scaling(self.g_s)

    @cached_property
    def pr_residual(self) -> float:
        return pr_residual(self)

    def support_length(self) -> int:
        lo = min(self.g_s.support[0], self.h_s.support[0])
        hi = max(self.g_s.support[1], self.h_s.support[1])
        return hi - lo + 1

    def channel(self, name: str) -> tuple[FirFilter, FirFilter]:
        """(a_s, a_w) of channel a = 'g' or 'h'."""
        if name not in ("g", "h"):
            raise ValueError(f"channel must be 'g' or 'h', got {name!r}")
        return getattr(self, f"{name}_s"), getattr(self, f"{name}_w")

    # -- serialization (wavelet parts always re-derived, never stored) -----
    def to_json(self, name: str = "", meta: dict | None = None) -> dict:
        d = {
            "name": name,
            "g_s": {"offset": self.g_s.offset, "coeffs": self.g_s.coeffs.tolist()},
            "h_s": {"offset": self.h_s.offset, "coeffs": self.h_s.coeffs.tolist()},
            "meta": dict(meta or {}),
        }
        d["meta"].setdefault("pr_residual", self.pr_residual)
        return d

    @staticmethod
    def from_json(d: dict) -> "FilterPair":
        """The pair that to_json wrote; ValueError naming the first filter
        field that is missing or malformed."""
        if not isinstance(d, dict):
            raise ValueError("pair JSON must be an object with g_s and h_s, "
                             f"got {type(d).__name__}")
        filters = []
        for name in ("g_s", "h_s"):
            try:
                offset = d[name]["offset"]
                c = np.asarray(d[name]["coeffs"], dtype=np.float64)
            except (KeyError, TypeError, ValueError, OverflowError):
                offset, c = None, np.zeros(0)
            if type(offset) is not int or c.ndim != 1 or c.size == 0:
                raise ValueError(f"{name} must hold an integer offset and a "
                                 "nonempty list of numbers as coeffs")
            if abs(offset) >= 1 << 31:
                raise ValueError(f"{name} offset {offset} is out of range; "
                                 "|offset| must be below 2^31")
            bad = np.flatnonzero(~np.isfinite(c))
            if bad.size:
                raise ValueError(f"{name} tap {bad[0]} is {c[bad[0]]}; "
                                 "filter taps must be finite")
            filters.append(FirFilter(offset, c))
        return FilterPair(*filters)

    def save(self, path: str | Path, name: str = "", meta: dict | None = None):
        Path(path).write_text(json.dumps(self.to_json(name, meta), indent=2))

    @staticmethod
    def load(path: str | Path) -> "FilterPair":
        return FilterPair.from_json(json.loads(Path(path).read_text()))


def haar_pair() -> FilterPair:
    """Orthogonal Haar pair: both scaling filters (1, 1) / sqrt(2)."""
    return FilterPair(HAAR_SCALING, HAAR_SCALING)


def pr_residual(pair: FilterPair) -> float:
    """Perfect-reconstruction defect max_n |c[2n] - delta_0[n]| of the
    correlation c[m] = sum_l g_s[m + l] h_s[l], read from the taps alone.

    The Fourier form F(k) = g(k) conj(h(k)) + g(k+pi) conj(h(k+pi)) - 2 is
    2 sum_n (c[2n] - delta_0[n]) exp(-2ikn), so
    2 pr_residual <= sup_k |F(k)| <= 2 sum_n |c[2n] - delta_0[n]|.
    """
    return halfband_defect(pair.g_s.correlate(pair.h_s))


def halfband_defect(c: FirFilter) -> float:
    """max over even n of |c[n] - delta_0[n]|, n spanning c's support and 0."""
    lo, hi = min(c.support[0], 0), max(c.support[1], 0)
    n = np.arange(lo + lo % 2, hi + 1, 2)
    return float(np.max(np.abs(c[n] - (n == 0))))


@dataclass(frozen=True)
class LatticeMap:
    """Dense linear map on a periodic lattice of even size N.

    For decomposition maps rows 0..N/2-1 are the low-pass channel and rows
    N/2..N-1 the high-pass channel.
    """

    N: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


def _fold(filt: FirFilter, N: int) -> np.ndarray:
    """Taps of ``filt`` summed onto the sites of Z_N they alias to."""
    return np.bincount(filt.indices() % N, weights=filt.coeffs, minlength=N)


def _place_rows(filt: FirFilter, N: int, stride: int) -> np.ndarray:
    """(N / stride) x N block with row n = filter placed at stride * n, circularly.

    Taps that alias onto the same site of Z_N are summed first, so a filter
    longer than N still gives a circulant block.
    """
    # window s of the doubled sequence is folded rolled right by N - s;
    # row n is window N - stride * n, so the block is a strided view
    windows = sliding_window_view(np.tile(_fold(filt, N), 2), N)
    return windows[N:0:-stride]


def placed_gram_rows(filt: FirFilter, N: int, stride: int) -> np.ndarray:
    """First ``stride`` rows of B^T B, B = _place_rows(filt, N, stride).

    (B^T B)[x, y] = sum_j f[x - stride j] f[y - stride j] over j in
    Z_{N/stride}, with f folded onto Z_N.  B^T B commutes with shifts by
    ``stride``, so these rows determine it.

    Row x holds the lags y - x in (-len, len) of the filter's strided
    autocorrelation, summed mod N.  They are B[:, :stride].T @ B for the
    block B placed on the smallest ring Z_n, n a multiple of ``stride`` below
    N, that keeps the 2 len - 1 lags apart, copied into the N columns:
    about min(N, 2 len)^2 flops and no N x N map.  A filter whose lags would
    alias on Z_N is placed on Z_N itself.

    The lags of row x are one run, columns x + 1 - len .. x + len - 1.  It
    is read through a skewed view of the rows (their columns from 1 - len
    on, wrapped mod n) and written through a skewed view of rows len - 1
    columns wider than N, whose first len - 1 columns, the negative ones,
    are then folded onto the last: copies only.  The result may be that
    wider array's view.
    """
    taps = len(filt)
    n = min(N, -(-(2 * taps - 1) // stride) * stride)
    B = _place_rows(filt, n, stride)
    rows = B[:, :stride].T @ B
    if n == N:
        return rows
    runs = np.take(rows, np.arange(1 - taps, stride + taps - 1), axis=1,
                   mode="wrap")
    out = np.zeros((stride, N + taps - 1))
    _skewed(out, 2 * taps - 1)[...] = _skewed(runs, 2 * taps - 1)
    # a run is shorter than N: a folded column meets zeros only
    out[:, N:] += out[:, :taps - 1]
    return out[:, taps - 1:]


def _skewed(a: np.ndarray, width: int) -> np.ndarray:
    """View v[x, j] = a[x, x + j], j < width, of a C-contiguous 2-D array
    whose rows hold len(a) - 1 + width columns."""
    return as_strided(a, (len(a), width), (a.strides[0] + a.itemsize,
                                           a.itemsize))


def transfer_block(taps: FirFilter, weight: float, window) -> np.ndarray:
    """Two-scale transfer operator T[i, j] = weight * taps[2 n_i - n_j] on the
    integer window (lo, hi), n_i = lo .. hi.  With taps.reflect() it is the
    ascent weight * taps[n_j - 2 n_i] of the superoperator and cross-Gram."""
    n = np.arange(window[0], window[1] + 1)
    return weight * taps[2 * n[:, None] - n]


def dilated_convolve(x: np.ndarray, taps: np.ndarray,
                     stride: int) -> np.ndarray:
    """Full convolution of x with ``taps`` placed ``stride`` apart,
    out[n] = sum_t taps[t] x[n - stride t]: one two-scale step.

    This is np.convolve of x with the taps upsampled by ``stride``, but it
    multiplies no inserted zero: it adds len(taps) scaled copies of x,
    shifted by stride t, in tap order.  level_walk composes level filters
    with it, and continuum.refine_with refines sampled functions with it.
    """
    out = np.zeros(x.size + (len(taps) - 1) * stride)
    for t, c in enumerate(taps):
        out[t * stride:t * stride + x.size] += c * x
    return out


def level_walk(pairs, channel: str, scales: list[float] | None = None):
    """Composed analysis filters of a layer stack, one level at a time.

    Level l's wavelet rows apply one filter at stride 2^l,
    s_1...s_l a_s^1(k) a_s^2(2k) ... a_s^{l-1}(2^{l-2} k) a_w^l(2^{l-1} k)
    (noble identity), and the scaling rows of the stack cut after layer l
    apply s_1...s_l a_s^1(k) ... a_s^l(2^{l-1} k) at stride 2^l.  Each level
    multiplies the scaling filter so far by a layer filter of argument
    2^{l-1} k, which is dilated_convolve with the layer's taps at stride
    2^{l-1}.  ``scales`` are the per-layer factors s_l (default 1).  Yields
    (scaling, wavelet) for levels 1, 2, ..., so all prefixes of a stack share
    one walk.  Level 1's filters are the first layer's own taps.
    """
    for l, pair in enumerate(pairs):
        s = 1.0 if scales is None else scales[l]
        a_s, a_w = pair.channel(channel)
        if l:
            a_s, a_w = (FirFilter(scaling.offset + (f.offset << l),
                                  dilated_convolve(scaling.coeffs, f.coeffs,
                                                   1 << l))
                        for f in (a_s, a_w))
        wavelet, scaling = s * a_w, s * a_s
        yield scaling, wavelet


def level_filters(pairs, channel: str,
                  scales: list[float] | None = None
                  ) -> tuple[FirFilter, list[FirFilter]]:
    """(top scaling filter, [wavelet filter of level 1, ..., level L]) of a
    layer stack, from level_walk."""
    scaling, wavelets = FirFilter.delta(), []
    for scaling, wavelet in level_walk(pairs, channel, scales):
        wavelets.append(wavelet)
    return scaling, wavelets


def check_lattice(stack, N: int) -> None:
    """Refuse a lattice Z_N that a stack's maps cannot be placed on.

    The size guard applies at the finest lattice only: deeper levels may
    wrap around Z_N, and their taps fold (see _place_rows).
    """
    L = len(stack)
    if L == 0:
        raise ValueError("empty layer stack")
    if N % (2 ** L) != 0:
        raise ValueError(f"N = {N} not divisible by 2^{L}")
    support = max(p.support_length() for p in stack)
    if N < 2 * support:
        raise LatticeTooSmall(N, support)


def multi_layer_map(stack, channel: str, N: int,
                    scales: list[float] | None = None) -> LatticeMap:
    """Analysis map of a layer stack on Z_N, placed from its level filters.

    Output block ordering: (scaling at the deepest level, wavelet at the
    deepest level, ..., wavelet at level 1).  ``scales`` optionally multiplies
    each layer map by a scalar (squeeze factors).  Deeper levels may wrap
    around Z_N (see check_lattice); their taps fold, the blocks stay
    circulant, and biorthogonality stays exact because the time-domain
    perfect-reconstruction delta aliases only onto multiples of N.
    """
    stack = list(stack)
    check_lattice(stack, N)
    L = len(stack)
    scaling, wavelets = level_filters(stack, channel, scales)
    blocks = [_place_rows(scaling, N, 1 << L)]
    for l in range(L, 0, -1):
        blocks.append(_place_rows(wavelets[l - 1], N, 1 << l))
    return LatticeMap(N, np.vstack(blocks))


def decomposition_map(pair: FilterPair, channel: str, N: int) -> LatticeMap:
    """Single-layer analysis map W_a on Z_N: low[n] = sum_l a_s[l] f[2n+l]."""
    if N % 2 != 0:
        raise LatticeTooSmall(N, pair.support_length())
    return multi_layer_map([pair], channel, N)
