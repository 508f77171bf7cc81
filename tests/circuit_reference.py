"""Reference implementation of the circuit peel in extended precision.

This is the peel as it ran in mpmath before ``waverg.circuit`` moved to
fixed-point integers, kept as the oracle the integer peel is tested
against: residuals as exact ``mp.fdot`` sums, the mixed-precision projection
onto exact perfect reconstruction, and the layer peel in
max(60, 30 + 8M) decimal digits.  It shares the integer peel's regauged
projection and its tolerances, each measured against the scale of the
filter it reads.
"""

import math

import mpmath as mp
import numpy as np

from waverg.circuit import (BinaryCircuit, Gate2, _layer_parity,
                            _pr_jacobian, _window_arrays,
                            canonicalize_support)
from waverg.errors import DegenerateFactorization
from waverg.filters import FilterPair


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


def _pr_project_mp(gd: np.ndarray, hd: np.ndarray, M: int, tol: float,
                   max_steps: int | None = None) -> tuple[list, list]:
    """The window taps (gd, hd) projected onto the exact-PR manifold, as
    lists of mpf in the working precision; a pair whose PR defect exceeds
    ``tol`` is refused as degenerate.

    PR is bilinear in (g, h); each step is a minimum-norm linearized
    correction of both filters jointly.  One-sided projection (adjusting h
    alone) is avoided: the h-side system is nearly singular for designed
    pairs and the nearest solution can be macroscopically far away, while
    the joint correction stays at the size of the PR defect itself.  It is
    the minimum-norm correction of the pair regauged by g -> 2^k g,
    h -> 2^-k h, both largest taps within a factor 4.

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
    k = (math.frexp(np.max(np.abs(hd)))[1]
         - math.frexp(np.max(np.abs(gd)))[1]) // 2
    D = np.repeat(np.ldexp(1.0, [-k, k]), 2 * M)
    J = _pr_jacobian(gd, hd, M) * D
    pinv = D[:, None] * np.linalg.pinv(J)
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


def decompose(pair: FilterPair) -> BinaryCircuit:
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
    3 to 10 steps reach the 10^-(dps-10) target.  A PR defect above tol_pr *
    scale_g * scale_h (tol_pr = 1e-8, scale_a the largest tap of filter a),
    a corner determinant within 1e-14 scale_g^2 of 0 or a peeled edge of
    either filter above its own scale times 10^-(dps // 3) is a
    ``DegenerateFactorization``.
    """
    pair_c, shift = canonicalize_support(pair)
    # the window canonicalize_support chose: wider than half the support
    # when only an odd shift would fit the support into it
    lo = min(pair_c.g_s.support[0], pair_c.h_s.support[0])
    M = max(1 - lo, pair_c.g_s.support[1], pair_c.h_s.support[1])
    gd, hd = _window_arrays(pair_c, M)  # indices -M+1 .. M
    scale_g, scale_h = float(np.max(np.abs(gd))), float(np.max(np.abs(hd)))
    gates: list[Gate2] = []
    with mp.workdps(max(60, 30 + 8 * M)):
        g, h = _pr_project_mp(gd, hd, M, 1e-8 * scale_g * scale_h)
        vanish_g, vanish_h = (mp.mpf(s) * mp.mpf(10) ** (-(mp.mp.dps // 3))
                              for s in (scale_g, scale_h))
        for m in range(M, 1, -1):
            off = M - m  # array position of lattice site -m+1
            top = 2 * M - off - 1  # array position of lattice site m
            gm1, gm = g[top - 1], g[top]            # g[m-1], g[m]
            glo, glo1 = g[off], g[off + 1]          # g[-m+1], g[-m+2]
            det = gm1 * glo1 - gm * glo
            if abs(det) <= 1e-14 * mp.mpf(scale_g) ** 2:
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
            if (max(abs(g[off]), abs(g[top])) > vanish_g
                    or max(abs(h[off]), abs(h[top])) > vanish_h):
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
