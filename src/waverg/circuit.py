"""Factor a biorthogonal pair into a binary circuit of 2x2 gates, and back.

A pair with support in the canonical window [-M+1, M] factors into M
unit-determinant gates on alternating sublattice pairings.  Applying the
composed map to unit impulses reproduces the filters: impulse at an even site
yields the scaling filter, at the adjacent odd site the wavelet filter (this
sublattice convention is recorded in the circuit JSON).  The q-sector lattice
map A and its symplectic partner B = (A^T)^{-1} are built gate by gate, the
inverse-transpose taken per 2x2 block rather than numerically.

The peel runs in fixed-point Python integers on the pair projected onto exact
perfect reconstruction.  The projection is mixed-precision iterative
refinement: one float64 pseudo-inverse of the PR Jacobian, then exact integer
residuals and corrections rounded to the fixed point, a few steps per pair.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DegenerateFactorization, LatticeTooSmall
from .filters import FilterPair, FirFilter, LatticeMap

@dataclass(frozen=True, eq=False)
class Gate2:
    """Unit-determinant 2x2 gate acting on one sublattice pairing.

    parity 'even' pairs sites (2n, 2n+1), 'odd' pairs (2n+1, 2n+2).
    """

    entries: np.ndarray
    parity: str

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64).reshape(2, 2)
        object.__setattr__(self, "entries", m)
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    @property
    def det(self) -> float:
        m = self.entries
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def inverse_transpose(self) -> np.ndarray:
        """(a^T)^{-1} via the determinant-1 inversion formula."""
        m = self.entries
        return np.array([[m[1, 1], -m[1, 0]], [-m[0, 1], m[0, 0]]])


@dataclass(frozen=True, eq=False)
class BinaryCircuit:
    """Gates in application order a_1 .. a_M, alternating parity, plus squeeze."""

    gates: tuple
    squeeze: float = 1.0
    shift: int = 0  # canonicalization shift of the originating pair

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.squeeze <= 0:
            raise ValueError("squeeze must be positive")

    @property
    def depth(self) -> int:
        return len(self.gates)

    def to_json(self) -> dict:
        return {
            "M": self.depth,
            "squeeze": self.squeeze,
            "gates": [{"parity": g.parity, "m": g.entries.tolist()}
                      for g in self.gates],
            "convention": {"scaling_impulse": 0, "wavelet_impulse": 1},
            "shift": self.shift,
        }

    @staticmethod
    def from_json(d: dict) -> "BinaryCircuit":
        gates = [Gate2(np.asarray(g["m"]), g["parity"]) for g in d["gates"]]
        return BinaryCircuit(gates, float(d.get("squeeze", 1.0)),
                             int(d.get("shift", 0)))

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2))

    @staticmethod
    def load(path: str | Path) -> "BinaryCircuit":
        return BinaryCircuit.from_json(json.loads(Path(path).read_text()))


def _layer_parity(i: int) -> str:
    """Layer i >= 1 pairs sites starting at parity (1 - i) mod 2."""
    return "even" if i % 2 == 1 else "odd"


def canonicalize_support(pair: FilterPair) -> tuple[FilterPair, int]:
    """Shift both scaling filters by a common even integer into [-M+1, M]."""
    lo = min(pair.g_s.support[0], pair.h_s.support[0])
    hi = max(pair.g_s.support[1], pair.h_s.support[1])
    M = (hi - lo + 2) // 2
    while True:
        t_lo, t_hi = (-M + 1) - lo, M - hi
        # any even t in [t_lo, t_hi]
        t = t_lo if t_lo % 2 == 0 else t_lo + 1
        if t <= t_hi:
            break
        M += 1
    if t == 0:
        return pair, 0
    return FilterPair(pair.g_s.shift(t), pair.h_s.shift(t)), t


def _window_arrays(pair: FilterPair, M: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(-M + 1, M + 1)
    return pair.g_s[idx], pair.h_s[idx]


def _fraction_bits(dps: int, gd: np.ndarray, hd: np.ndarray) -> int:
    """Fraction bits of the fixed-point peel of window taps (gd, hd) at
    ``dps`` decimal digits: the binary precision of a dps-digit float (203
    bits at 60 digits), plus 64 guard bits, plus as many bits as the
    smallest nonzero tap lies below 1.  Every tap then keeps that precision
    relative to itself, and every finite float tap is a whole number of
    units 2^-bits."""
    taps = np.abs(np.concatenate([gd, hd]))
    below = -int(np.frexp(np.min(taps[taps > 0], initial=1.0))[1])
    return round((dps + 1) * 3.3219280948873626) + 64 + max(0, below)


def _to_fixed(values: np.ndarray, bits: int) -> list:
    """Finite floats as integers in units of 2^-bits, exactly when ``bits``
    comes from ``_fraction_bits`` of these values (a float's denominator is
    a power of two)."""
    out = []
    for v in values:
        num, den = float(v).as_integer_ratio()
        out.append((num << bits) // den)
    return out


def _to_float(x: int, bits: int) -> float:
    """x 2^-bits correctly rounded (int / int true division); +-inf past
    the float range."""
    try:
        return x / (1 << bits)
    except OverflowError:  # copysign would convert x to a float too
        return math.inf if x > 0 else -math.inf


def _exceeds(x: int, bits: int, bound: Fraction) -> bool:
    """x 2^-bits > bound, decided exactly."""
    return x * bound.denominator > bound.numerator << bits


def _pr_residual(g: list, h: list, M: int, one: int) -> list:
    """PR defect [n = 0] - sum_j g[2n + j] h[j], n = -(M-1) .. M-1, of the
    fixed-point window lists (index 0 is site -M+1); ``one`` is 1 in the
    units of a product, and each sum is exact."""
    out = []
    for n in range(-(M - 1), M):
        if n >= 0:
            acc = sum(map(operator.mul, g[2 * n:], h[:2 * M - 2 * n]))
        else:
            acc = sum(map(operator.mul, g[:2 * M + 2 * n], h[-2 * n:]))
        out.append((one if n == 0 else 0) - acc)
    return out


def _pr_jacobian(gd: np.ndarray, hd: np.ndarray, M: int) -> np.ndarray:
    """d/d(g, h) of sum_j g[2n + j] h[j]: rows n = -(M-1) .. M-1, columns
    the 2M taps of g then of h."""
    n = np.arange(-(M - 1), M)[:, None]
    idx = 2 * n + np.arange(2 * M)
    rows, cols = np.nonzero((idx >= 0) & (idx < 2 * M))
    J = np.zeros((2 * M - 1, 4 * M))
    J[rows, idx[rows, cols]] = hd[cols]
    J[rows, 2 * M + cols] = gd[idx[rows, cols]]
    return J


def _pr_project(gd: np.ndarray, hd: np.ndarray, M: int, tol_pr: float,
                dps: int, max_steps: int | None = None) -> tuple[list, list]:
    """The window taps (gd, hd) projected onto the exact-PR manifold, as
    integers in units of 2^-b, b = _fraction_bits(dps, gd, hd); a pair whose
    PR defect exceeds tol_pr * scale, scale the product of each filter's
    largest tap (like PR, unchanged by g -> a g, h -> h / a), or that has a
    tap that is not finite, is refused as degenerate.

    PR is bilinear in (g, h); each step is a minimum-norm linearized
    correction of both filters jointly.  One-sided projection (adjusting h
    alone) is avoided: the h-side system is nearly singular for designed
    pairs and the nearest solution can be macroscopically far away, while
    the joint correction stays at the size of the PR defect itself.  It is
    minimum-norm for the pair regauged by g -> 2^k g, h -> 2^-k h to bring
    both largest taps within a factor 4, so neither filter takes it all.

    Mixed-precision refinement: the Jacobian J is formed and pseudo-inverted
    once in float64 at the input taps.  Each step computes the residual
    exactly, applies the float pseudo-inverse to it scaled to unit size, and
    adds the correction back rounded to the fixed point.  A step leaves
    about eps * cond(J) of the residual, so the step cap is set from dps and
    cond(J), and the target is 10^-(dps-10).  A residual that does not halve
    in one step, or the cap running out, raises ``DegenerateFactorization``
    with the residual reached.
    """
    scale_g, scale_h = float(np.max(np.abs(gd))), float(np.max(np.abs(hd)))
    tol = tol_pr * scale_g * scale_h  # printed; the test below is exact
    if not (np.all(np.isfinite(gd)) and np.all(np.isfinite(hd))):
        raise DegenerateFactorization(
            M, math.nan, f"PR defect nan exceeds tol_pr * scale = {tol:.3e}: "
            "the pair is not perfect reconstruction")
    bits = _fraction_bits(dps, gd, hd)
    g, h = _to_fixed(gd, bits), _to_fixed(hd, bits)
    # residuals are sums of products, in units of 2^-(2 bits)
    one = 1 << 2 * bits
    r = _pr_residual(g, h, M, one)
    worst = max(abs(v) for v in r)
    if _exceeds(worst, 2 * bits,
                Fraction(tol_pr) * Fraction(scale_g) * Fraction(scale_h)):
        defect = _to_float(worst, 2 * bits)
        raise DegenerateFactorization(
            M, defect, f"PR defect {defect:.3e} exceeds tol_pr * scale = "
            f"{tol:.3e}: the pair is not perfect reconstruction")
    k = (math.frexp(scale_h)[1] - math.frexp(scale_g)[1]) // 2
    D = np.repeat(np.ldexp(1.0, [-k, k]), 2 * M)  # d(g, h) / d(regauged)
    J = _pr_jacobian(gd, hd, M) * D
    pinv = D[:, None] * np.linalg.pinv(J)
    if max_steps is None:
        # digits gained per step, so the cap covers all dps digits
        gain = max(1.0, -np.log10(np.finfo(float).eps * np.linalg.cond(J)))
        max_steps = 2 + int(np.ceil(dps / gain))
    steps = 0
    while worst * 10 ** (dps - 10) >= one:  # worst >= 10^-(dps-10), exactly
        if steps == max_steps:
            reached = _to_float(worst, 2 * bits)
            raise DegenerateFactorization(
                M, reached, f"PR refinement reached residual {reached:.3e}, "
                f"not {10.0 ** -(dps - 10):.0e}, within its step cap "
                f"{max_steps}")
        delta = pinv @ np.array([v / worst for v in r])
        for j, d in enumerate(delta.tolist()):
            # worst * d, from units 2^-(2 bits) to 2^-bits
            num, den = d.as_integer_ratio()
            den <<= bits
            corr = (2 * worst * num + den) // (2 * den)
            if j < 2 * M:
                g[j] += corr
            else:
                h[j - 2 * M] += corr
        r = _pr_residual(g, h, M, one)
        steps += 1
        last, worst = worst, max(abs(v) for v in r)
        if 2 * worst > last:
            reached = _to_float(worst, 2 * bits)
            raise DegenerateFactorization(
                M, reached, f"PR refinement stalled at residual "
                f"{reached:.3e} (from {_to_float(last, 2 * bits):.3e}) in "
                f"step {steps}")
    return g, h


def decompose(pair: FilterPair) -> BinaryCircuit:
    """Peel a canonical pair into gates a_M .. a_1 (returned in order a_1..a_M).

    Each step extracts the outer 2x2 corner of the scaling filters,
    normalizes it to determinant 1, and shrinks the support by one site on
    each side; the perfect-reconstruction relation makes the edge
    coefficients of both filters vanish after the peel, which is asserted.

    The peel amplifies any PR defect by roughly the gate condition number at
    every step, which double precision does not survive beyond a few layers,
    so the loop runs in fixed-point integers (Python ints in units of 2^-b,
    b = _fraction_bits at dps = max(60, 30 + 8M) digits) on the nearest
    exactly biorthogonal pair (a distance-``pr_residual`` projection).
    Products are exact before they are rounded back to 2^-b, square roots
    are ``math.isqrt``, every comparison is exact, and only the emitted
    gates are rounded to floats, each correctly.  The projection
    takes one float64 pseudo-inverse of its Jacobian J and refines the
    integers (``_pr_project``).  On designed pairs (m in [0, 1], K 1..3,
    L 1..4) cond(J) runs from 1.9 to 6.4e4 and 3 to 10 steps reach the
    10^-(dps-10) target.  A tap that is not finite, a PR defect above
    tol_pr scale_g scale_h (tol_pr = 1e-8, scale_a the largest tap of a), a
    corner determinant within 1e-14 scale_g^2 of 0 or a peeled edge above
    10^-(dps // 3) of its filter's scale is a ``DegenerateFactorization``:
    like PR, no test changes under the gauge g -> a g, h -> h / a.
    """
    pair_c, shift = canonicalize_support(pair)
    # the window canonicalize_support chose: wider than half the support
    # when only an odd shift would fit the support into it
    lo = min(pair_c.g_s.support[0], pair_c.h_s.support[0])
    M = max(1 - lo, pair_c.g_s.support[1], pair_c.h_s.support[1])
    gd, hd = _window_arrays(pair_c, M)  # indices -M+1 .. M
    dps = max(60, 30 + 8 * M)
    bits = _fraction_bits(dps, gd, hd)
    half = 1 << (bits - 1)
    g, h = _pr_project(gd, hd, M, 1e-8, dps)
    scale_g, scale_h = (Fraction(float(np.max(np.abs(a)))) for a in (gd, hd))
    corner_tol = Fraction(1e-14) * scale_g ** 2  # a float overflows at 1e154
    vanish_g, vanish_h = (s / 10 ** (dps // 3) for s in (scale_g, scale_h))
    gates: list[Gate2] = []
    for m in range(M, 1, -1):
        off = M - m  # array position of lattice site -m+1
        top = 2 * M - off - 1  # array position of lattice site m
        gm1, gm = g[top - 1], g[top]            # g[m-1], g[m]
        glo, glo1 = g[off], g[off + 1]          # g[-m+1], g[-m+2]
        det = gm1 * glo1 - gm * glo             # units 2^-(2 bits)
        if not _exceeds(abs(det), 2 * bits, corner_tol):
            raise DegenerateFactorization(m, _to_float(det, 2 * bits))
        # sqrt|det| in units 2^-(2 bits); x / sqrt|det| = (x << 2 bits) / root
        # in units 2^-bits, and the sign of det goes to the second column
        root = math.isqrt(abs(det) << 2 * bits)
        sign = 1 if det > 0 else -1
        a00, a01, a10, a11 = (
            (2 * (x << 2 * bits) + root) // (2 * root)
            for x in (gm1, sign * glo, gm, sign * glo1))
        gates.append(Gate2(np.array(
            [[_to_float(a00, bits), _to_float(a01, bits)],
             [_to_float(a10, bits), _to_float(a11, bits)]]), _layer_parity(m)))
        for u in range(off, top, 2):
            gu, gv = g[u], g[u + 1]
            g[u] = (a11 * gu - a01 * gv + half) >> bits  # rows of a^{-1}
            g[u + 1] = (a00 * gv - a10 * gu + half) >> bits
            hu, hv = h[u], h[u + 1]
            h[u] = (a00 * hu + a10 * hv + half) >> bits  # rows of a^T
            h[u + 1] = (a01 * hu + a11 * hv + half) >> bits
        if (_exceeds(max(abs(g[off]), abs(g[top])), bits, vanish_g)
                or _exceeds(max(abs(h[off]), abs(h[top])), bits, vanish_h)):
            raise DegenerateFactorization(m, _to_float(det, 2 * bits))
        g[off] = g[top] = h[off] = h[top] = 0
    # base case on sites (0, 1): columns (g_s, g_w) with g_w from h
    off = M - 1
    det = g[off] * h[off] + g[off + 1] * h[off + 1]
    if det <= 0:
        raise DegenerateFactorization(1, _to_float(det, 2 * bits))
    # x / sqrt(det) = (x << bits) / root, a ratio of ints
    root = math.isqrt(det << 2 * bits)
    a1 = np.array([[(g[off] << bits) / root, (-h[off + 1] << bits) / root],
                   [(g[off + 1] << bits) / root, (h[off] << bits) / root]])
    gates.append(Gate2(a1, _layer_parity(1)))
    # snap each gate to unit determinant in double precision
    snapped = [Gate2(gt.entries / np.sqrt(gt.det), gt.parity) for gt in gates]
    return BinaryCircuit(tuple(reversed(snapped)), squeeze=1.0, shift=shift)


def _apply_gates(x: np.ndarray, gates, use_partner: bool) -> np.ndarray:
    """Apply A_M ... A_1 (or the per-gate inverse-transposes) to the rows of x
    on Z_n in place: x[u], x[v] = m00 x[u] + m01 x[v], m10 x[u] + m11 x[v]
    for each pairing (u, v = u + 1 mod n) of the gate's parity."""
    for gate in gates:
        m = gate.inverse_transpose() if use_partner else gate.entries
        u = np.arange(0 if gate.parity == "even" else 1, len(x), 2)
        v = (u + 1) % len(x)
        xu, xv = x[u], x[v]
        x[u] = m[0, 0] * xu + m[0, 1] * xv
        x[v] = m[1, 0] * xu + m[1, 1] * xv
    return x


def _impulse_response(circuit: BinaryCircuit, site: int,
                      use_partner: bool) -> FirFilter:
    """Gates applied to the impulse at ``site`` (0 or 1); each gate widens the
    support by at most one site per side, so the even origin 2(M + 1) on a
    ring of 4(M + 1) sites keeps the response from wrapping."""
    origin = 2 * (circuit.depth + 1)
    x = np.zeros(2 * origin)
    x[origin + site] = 1.0
    return FirFilter(-origin, _apply_gates(x, circuit.gates, use_partner))


def compose(circuit: BinaryCircuit) -> FilterPair:
    """Rebuild the filter pair from gates: impulses through A and (A^T)^{-1}."""
    for g in circuit.gates:
        if abs(g.det - 1.0) > 1e-9:
            raise ValueError(f"gate determinant {g.det} != 1")
    return FilterPair(_impulse_response(circuit, 0, use_partner=False),
                      _impulse_response(circuit, 0, use_partner=True))


def composed_wavelets(circuit: BinaryCircuit) -> tuple[FirFilter, FirFilter]:
    """(g_w, h_w) from the odd-site impulse; matches the modulation rule."""
    return (_impulse_response(circuit, 1, use_partner=False),
            _impulse_response(circuit, 1, use_partner=True))


def to_lattice_symplectic(circuit: BinaryCircuit, N: int) -> tuple[LatticeMap, LatticeMap]:
    """(A, B) on Z_N with B = (A^T)^{-1} assembled per gate; A B^T = identity."""
    if N % 2 != 0 or N < 2 * max(1, circuit.depth):
        raise LatticeTooSmall(N, 2 * circuit.depth)
    A = _apply_gates(np.eye(N) * circuit.squeeze, circuit.gates, False)
    B = _apply_gates(np.eye(N) / circuit.squeeze, circuit.gates, True)
    return LatticeMap(N, A), LatticeMap(N, B)
