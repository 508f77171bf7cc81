"""Factor a biorthogonal pair into a binary circuit of 2x2 gates, and back.

A pair with support in the canonical window [-M+1, M] factors into M
unit-determinant gates on alternating sublattice pairings.  Applying the
composed map to unit impulses reproduces the filters: impulse at an even site
yields the scaling filter, at the adjacent odd site the wavelet filter (this
sublattice convention is recorded in the circuit JSON).  The q-sector lattice
map A and its symplectic partner B = (A^T)^{-1} are built gate by gate, the
inverse-transpose taken per 2x2 block rather than numerically.
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


def _pr_project_mp(g, h, M: int, max_iter: int = 8):
    """Newton-project (g, h) onto the exact-PR manifold, in place.

    PR is bilinear in (g, h); each step is a minimum-norm linearized
    correction of both filters jointly.  One-sided projection (adjusting h
    alone) is avoided: the h-side system is nearly singular for designed
    pairs and the nearest solution can be macroscopically far away, while
    the joint correction stays at the size of the PR defect itself.
    """
    ns = list(range(-(M - 1), M))

    def residual():
        r = mp.matrix(len(ns), 1)
        for i, n in enumerate(ns):
            acc = mp.mpf(0)
            for j in range(2 * M):
                idx = 2 * n + j
                if 0 <= idx < 2 * M:
                    acc += g[idx] * h[j]
            r[i] = (mp.mpf(1) if n == 0 else mp.mpf(0)) - acc
        return r

    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    first = None
    for _ in range(max_iter):
        r = residual()
        worst = max(abs(v) for v in r)
        if first is None:
            first = worst
        if worst < target:
            break
        J = mp.matrix(len(ns), 4 * M)
        for i, n in enumerate(ns):
            for j in range(2 * M):
                idx = 2 * n + j
                if 0 <= idx < 2 * M:
                    J[i, idx] += h[j]
                    J[i, 2 * M + j] += g[idx]
        delta = J.T * mp.lu_solve(J * J.T, r)
        for j in range(2 * M):
            g[j] += delta[j]
            h[j] += delta[2 * M + j]
    return float(first)


def decompose(pair: FilterPair, tol_pr: float = 1e-8,
              tol_degenerate_rel: float = 1e-14) -> BinaryCircuit:
    """Peel a canonical pair into gates a_M .. a_1 (returned in order a_1..a_M).

    Each step extracts the outer 2x2 corner of the scaling filters,
    normalizes it to determinant 1, and shrinks the support by one site on
    each side; the perfect-reconstruction relation makes the edge
    coefficients of both filters vanish after the peel, which is asserted.

    The peel amplifies any PR defect by roughly the gate condition number at
    every step, which double precision does not survive beyond a few layers,
    so the loop runs in extended precision on the nearest exactly
    biorthogonal pair (a distance-``pr_residual`` projection); only the
    emitted gates are rounded back to floats.
    """
    pair_c, shift = canonicalize_support(pair)
    M = pair_c.halfwidth
    gd, hd = _window_arrays(pair_c, M)  # indices -M+1 .. M
    scale = float(max(np.max(np.abs(gd)), np.max(np.abs(hd))))
    gates: list[Gate2] = []
    with mp.workdps(max(60, 30 + 8 * M)):
        g = mp.matrix([mp.mpf(float(v)) for v in gd])
        h = mp.matrix([mp.mpf(float(v)) for v in hd])
        defect = _pr_project_mp(g, h, M)
        if defect > tol_pr * scale:
            raise DegenerateFactorization(M, defect)
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


def _apply_layers(vec: dict[int, float], gates, use_partner: bool) -> dict[int, float]:
    """Apply A_M ... A_1 (or the per-gate inverse-transposes) to a sparse vector."""
    x = dict(vec)
    for gate in gates:
        m = gate.inverse_transpose() if use_partner else gate.entries
        start = 0 if gate.parity == "even" else 1
        touched = sorted(x)
        lo = min(touched) - 2
        hi = max(touched) + 2
        # align lo to the pairing grid
        u0 = lo - ((lo - start) % 2)
        new = dict(x)
        for u in range(u0, hi + 1, 2):
            a, b = x.get(u, 0.0), x.get(u + 1, 0.0)
            if a == 0.0 and b == 0.0:
                continue
            new[u] = m[0, 0] * a + m[0, 1] * b
            new[u + 1] = m[1, 0] * a + m[1, 1] * b
        x = new
    return x


def _to_filter(x: dict[int, float]) -> FirFilter:
    lo = min(x)
    hi = max(x)
    c = np.zeros(hi - lo + 1)
    for n, v in x.items():
        c[n - lo] = v
    return FirFilter(lo, c)


def compose(circuit: BinaryCircuit) -> FilterPair:
    """Rebuild the filter pair from gates: impulses through A and (A^T)^{-1}."""
    for g in circuit.gates:
        if abs(g.det - 1.0) > 1e-9:
            raise ValueError(f"gate determinant {g.det} != 1")
    g_s = _to_filter(_apply_layers({0: 1.0}, circuit.gates, use_partner=False))
    h_s = _to_filter(_apply_layers({0: 1.0}, circuit.gates, use_partner=True))
    return FilterPair(g_s, h_s)


def composed_wavelets(circuit: BinaryCircuit) -> tuple[FirFilter, FirFilter]:
    """(g_w, h_w) from the odd-site impulse; matches the modulation rule."""
    g_w = _to_filter(_apply_layers({1: 1.0}, circuit.gates, use_partner=False))
    h_w = _to_filter(_apply_layers({1: 1.0}, circuit.gates, use_partner=True))
    return g_w, h_w


def _layer_matrix(gate: Gate2, N: int, use_partner: bool) -> np.ndarray:
    m = gate.inverse_transpose() if use_partner else gate.entries
    start = 0 if gate.parity == "even" else 1
    out = np.zeros((N, N))
    for u in range(start, N + start, 2):
        i, j = u % N, (u + 1) % N
        out[i, i], out[i, j] = m[0, 0], m[0, 1]
        out[j, i], out[j, j] = m[1, 0], m[1, 1]
    return out


def to_lattice_symplectic(circuit: BinaryCircuit, N: int) -> tuple[LatticeMap, LatticeMap]:
    """(A, B) on Z_N with B = (A^T)^{-1} assembled per gate; A B^T = identity."""
    if N % 2 != 0 or N < 2 * max(1, circuit.depth):
        raise LatticeTooSmall(N, 2 * circuit.depth)
    A = np.eye(N) * circuit.squeeze
    B = np.eye(N) / circuit.squeeze
    for gate in circuit.gates:
        A = _layer_matrix(gate, N, use_partner=False) @ A
        B = _layer_matrix(gate, N, use_partner=True) @ B
    return LatticeMap(N, A), LatticeMap(N, B)
