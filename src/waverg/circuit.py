"""Factor a biorthogonal pair into a binary circuit of 2x2 gates, and back.

A pair with support in the canonical window [-M+1, M] factors into M
unit-determinant gates on alternating sublattice pairings.  Applying the
composed map to unit impulses reproduces the filters: impulse at an even site
yields the scaling filter, at the adjacent odd site the wavelet filter (this
sublattice convention is recorded in the circuit JSON).  The q-sector lattice
map A and its symplectic partner B = (A^T)^{-1} are built gate by gate, the
inverse-transpose taken per 2x2 block rather than numerically.

The peel runs in extended precision (mpmath) on the pair projected onto exact
perfect reconstruction.  The projection is mixed-precision iterative
refinement: one float64 pseudo-inverse of the PR Jacobian, then residuals and
corrections in the working precision, a few steps per pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

from .errors import DegenerateFactorization, LatticeTooSmall
from .filters import FilterPair, FirFilter, LatticeMap

ALPHA_2X2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # x[n] -> (-1)^(1-n) x[1-n]


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


def gate_alpha_identity_check(g: Gate2) -> float:
    """max-abs defect of a^{-1} = alpha a^T alpha^{-1}, zero for det = 1."""
    m = g.entries
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / g.det
    conj = ALPHA_2X2 @ m.T @ np.linalg.inv(ALPHA_2X2)
    return float(np.max(np.abs(inv - conj)))


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


def _pr_residual(g: list, h: list, M: int) -> list:
    """PR defect [n = 0] - sum_j g[2n + j] h[j], n = -(M-1) .. M-1, of the
    window lists (index 0 is site -M+1), each sum one exact ``mp.fdot``."""
    out = []
    for n in range(-(M - 1), M):
        if n >= 0:
            acc = mp.fdot(g[2 * n:], h[:2 * M - 2 * n])
        else:
            acc = mp.fdot(g[:2 * M + 2 * n], h[-2 * n:])
        out.append((1 if n == 0 else 0) - acc)
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


def _pr_project_mp(gd: np.ndarray, hd: np.ndarray, M: int, tol: float,
                   max_steps: int | None = None) -> tuple[list, list]:
    """The window taps (gd, hd) projected onto the exact-PR manifold, as
    lists of mpf in the working precision; a pair whose PR defect exceeds
    ``tol`` is refused as degenerate.

    PR is bilinear in (g, h); each step is a minimum-norm linearized
    correction of both filters jointly.  One-sided projection (adjusting h
    alone) is avoided: the h-side system is nearly singular for designed
    pairs and the nearest solution can be macroscopically far away, while
    the joint correction stays at the size of the PR defect itself.

    Mixed-precision refinement: the Jacobian J is formed and pseudo-inverted
    once in float64 at the input taps.  Each step computes the residual in
    the working precision, applies the float pseudo-inverse to it scaled to
    unit size, and adds the correction back in the working precision.  A
    step leaves about eps * cond(J) of the residual, so the step cap is
    set from the working precision and cond(J).  A residual that does not
    halve in one step, or the cap running out, raises
    ``DegenerateFactorization`` with the residual reached.
    """
    g = [mp.mpf(float(v)) for v in gd]
    h = [mp.mpf(float(v)) for v in hd]
    r = _pr_residual(g, h, M)
    worst = max(abs(v) for v in r)
    if not worst <= tol:  # also refuses NaN
        raise DegenerateFactorization(
            M, float(worst), f"PR defect {float(worst):.3e} exceeds "
            f"tol_pr * scale = {tol:.3e}: the pair is not perfect "
            "reconstruction")
    J = _pr_jacobian(gd, hd, M)
    pinv = np.linalg.pinv(J)
    if max_steps is None:
        # digits gained per step, so the cap covers all dps digits
        gain = max(1.0, -np.log10(np.finfo(float).eps * np.linalg.cond(J)))
        max_steps = 2 + int(np.ceil(mp.mp.dps / gain))
    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    steps = 0
    while worst >= target:
        if steps == max_steps:
            raise DegenerateFactorization(
                M, float(worst), f"PR refinement reached residual "
                f"{float(worst):.3e}, not {float(target):.0e}, within its "
                f"step cap {max_steps}")
        delta = pinv @ np.array([float(v / worst) for v in r])
        for j in range(2 * M):
            g[j] += worst * delta[j]
            h[j] += worst * delta[2 * M + j]
        r = _pr_residual(g, h, M)
        steps += 1
        last, worst = worst, max(abs(v) for v in r)
        if worst > last / 2:
            raise DegenerateFactorization(
                M, float(worst), f"PR refinement stalled at residual "
                f"{float(worst):.3e} (from {float(last):.3e}) in step {steps}")
    return g, h


def decompose(pair: FilterPair, tol_pr: float = 1e-8,
              tol_degenerate_rel: float = 1e-14) -> BinaryCircuit:
    """Peel a canonical pair into gates a_M .. a_1 (returned in order a_1..a_M).

    Each step extracts the outer 2x2 corner of the scaling filters,
    normalizes it to determinant 1, and shrinks the support by one site on
    each side; the perfect-reconstruction relation makes the edge
    coefficients of both filters vanish after the peel, which is asserted.

    The peel amplifies any PR defect by roughly the gate condition number at
    every step, which double precision does not survive beyond a few layers,
    so the loop runs in extended precision (max(60, 30 + 8M) digits) on the
    nearest exactly biorthogonal pair (a distance-``pr_residual``
    projection); only the emitted gates are rounded back to floats.  The
    projection takes one float64 pseudo-inverse of its Jacobian J and
    refines in the working precision (``_pr_project_mp``).  On designed
    pairs (m in [0, 1], K 1..3, L 1..4) cond(J) runs from 1.9 to 6.4e4 and
    3 to 10 steps reach the 10^-(dps-10) target.
    """
    pair_c, shift = canonicalize_support(pair)
    # the window canonicalize_support chose: wider than half the support
    # when only an odd shift would fit the support into it
    lo = min(pair_c.g_s.support[0], pair_c.h_s.support[0])
    M = max(1 - lo, pair_c.g_s.support[1], pair_c.h_s.support[1])
    gd, hd = _window_arrays(pair_c, M)  # indices -M+1 .. M
    scale = float(max(np.max(np.abs(gd)), np.max(np.abs(hd))))
    gates: list[Gate2] = []
    with mp.workdps(max(60, 30 + 8 * M)):
        g, h = _pr_project_mp(gd, hd, M, tol_pr * scale)
        vanish_tol = mp.mpf(scale) * mp.mpf(10) ** (-(mp.mp.dps // 3))
        for m in range(M, 1, -1):
            off = M - m  # array position of lattice site -m+1
            top = 2 * M - off - 1  # array position of lattice site m
            gm1, gm = g[top - 1], g[top]            # g[m-1], g[m]
            glo, glo1 = g[off], g[off + 1]          # g[-m+1], g[-m+2]
            det = gm1 * glo1 - gm * glo
            if abs(det) <= tol_degenerate_rel * scale ** 2:
                raise DegenerateFactorization(m, float(det))
            alpha = 1 / mp.sqrt(abs(det))
            beta = mp.sign(det) * alpha
            a00, a01 = alpha * gm1, beta * glo
            a10, a11 = alpha * gm, beta * glo1
            gates.append(Gate2(np.array([[float(a00), float(a01)],
                                         [float(a10), float(a11)]]),
                               _layer_parity(m)))
            for u in range(off, top, 2):
                gu, gv = g[u], g[u + 1]
                g[u] = a11 * gu - a01 * gv      # rows of a^{-1} (det = 1)
                g[u + 1] = -a10 * gu + a00 * gv
                hu, hv = h[u], h[u + 1]
                h[u] = a00 * hu + a10 * hv      # rows of a^T
                h[u + 1] = a01 * hu + a11 * hv
            if max(abs(g[off]), abs(g[top]), abs(h[off]), abs(h[top])) \
                    > vanish_tol:
                raise DegenerateFactorization(m, float(det))
            g[off] = g[top] = h[off] = h[top] = mp.mpf(0)
        # base case on sites (0, 1): columns (g_s, g_w) with g_w from h
        off = M - 1
        det = g[off] * h[off] + g[off + 1] * h[off + 1]
        if det <= 0:
            raise DegenerateFactorization(1, float(det))
        root = mp.sqrt(det)
        a1 = np.array([[float(g[off] / root), float(-h[off + 1] / root)],
                       [float(g[off + 1] / root), float(h[off] / root)]])
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
