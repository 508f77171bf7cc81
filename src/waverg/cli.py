"""Command-line interface: design, compile, and validate renormalization circuits.

Verbs
-----
design    design one filter pair against a dispersion, write pair/report JSON
sweep     design a (K, L) grid and emit a quality CSV
circuit   factor a pair JSON into a binary circuit JSON (optionally verify)
simulate  build a layer stack, compare MERA vs exact covariance, write reports
cascade   sample scaling/wavelet functions on a dyadic grid as CSV
spectrum  print superoperator and descendant eigenvalues with matched dimensions
flow      print the renormalization flow of a dispersion level by level

Exit codes: 0 success, 1 usage error, 2 numerical failure (machine-readable
JSON payload on stderr).  Outputs are deterministic: identical arguments
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .circuit import compose, decompose, to_lattice_symplectic
from .continuum import (descendant_spectrum, scaling_function,
                        superoperator_spectrum, wavelet_function)
from .design import DesignParams, design_pair
from .dispersion import flow_report, parse_dispersion
from .errors import WavergError
from .filters import FilterPair
from .mera import build_stack, error_report

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
#: largest --quad-points and --grid (the oracle's finer grid holds 2^21 points)
MAX_POINTS = 1 << 20
#: largest --levels: a level-l site spans 2^l sites, past any int64 index
MAX_LEVELS = 62
#: largest cascade --J: a unit interval of the depth-J dyadic grid holds 2^J
#: samples, so at most MAX_POINTS; each level of J doubles time and memory
MAX_J = MAX_POINTS.bit_length() - 1
#: largest design --K and --L: at L = 1 the moment factor's C(2K, K) is a
#: finite double up to K = 513, and at K = 1 the all-pass self-convolution
#: up to L = 261; a joint (K, L) past the double range is a NonFiniteFilter
MAX_K, MAX_L = 513, 261


def _fmt(x: float) -> str:
    """Shortest round-trip decimal; fixed across runs for determinism."""
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract reserves 2 for
    numerical failures, so remap usage errors to 1.  Options are matched by
    their full spelling only: an abbreviation such as --json is refused, as
    main's look for --json-errors among refused arguments expects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _int_in(lo: int, hi: float = float("inf")):
    """argparse type: an integer in lo..hi."""
    def parse(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be {lo}..{hi}, got {n}")
        return n
    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite number >= 0."""
    x = float(text)
    if not 0 <= x < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return x


def _write(path: str | None, text: str):
    """Write text to path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str, flag: str, top: int) -> list[int]:
    """'1..4' -> [1, 2, 3, 4]; '3' -> [3]; '1,2,4' -> [1, 2, 4]; an empty
    range such as '3..1', a part that is not an integer or a range, or one
    that leaves 1..top, is a usage error naming ``flag``."""
    out: list[int] = []
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise UsageError(f"{flag}: expected an integer or a range lo..hi, "
                             f"got {part!r}") from None
        if hi < lo:
            raise UsageError(f"{flag}: empty range {part!r}")
        if lo < 1 or hi > top:
            raise UsageError(f"{flag}: {part!r} leaves 1..{top}")
        out.extend(range(lo, hi + 1))
    return sorted(set(out))


def _design_params(args, K: int, L: int) -> DesignParams:
    return DesignParams(K, L, tol_positivity=args.tol, grid_size=args.grid)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_design(args) -> int:
    d = parse_dispersion(args.dispersion)
    pair, report = design_pair(d, _design_params(args, args.K, args.L))
    if args.out:
        pair.save(args.out)
    if args.report:
        _write(args.report, json.dumps(report.to_json(), indent=2,
                                       sort_keys=True) + "\n")
    print(f"designed K={args.K} L={args.L} support={pair.support_length()} "
          f"epsilon={_fmt(report.epsilon)} "
          f"pr_residual={_fmt(pair.pr_residual)}")
    return 0


def cmd_sweep(args) -> int:
    d = parse_dispersion(args.dispersion)
    if args.sweep:
        # a range may hold commas: split only where a new key starts
        parts = [p.partition("=")[::2]
                 for p in re.split(r",(?=\w+=)", args.sweep)]
        if sorted(key for key, _ in parts) != ["K", "L"]:
            raise UsageError(f"--sweep takes K=<range>,L=<range>, each key "
                             f"once, got {args.sweep!r}")
        Ks, Ls = (_parse_range(dict(parts)[p], "--sweep", top)
                  for p, top in (("K", MAX_K), ("L", MAX_L)))
    else:
        Ks, Ls = (_parse_range(args.K, "--K", MAX_K),
                  _parse_range(args.L, "--L", MAX_L))
    lines = ["K,L,epsilon,pr_residual,stability_max_abs_eig,positivity_min"]
    for K in Ks:
        for L in Ls:
            try:
                report = design_pair(d, _design_params(args, K, L))[1]
            except WavergError as err:
                print(json.dumps(err.payload() | {"K": K, "L": L},
                                 sort_keys=True), file=sys.stderr)
                lines.append(f"{K},{L},nan,nan,nan,nan")
                continue
            lines.append(",".join([str(K), str(L),
                                   _fmt(report.epsilon),
                                   _fmt(report.pr_residual),
                                   _fmt(report.stability_max_abs),
                                   _fmt(report.positivity_min)]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_circuit(args) -> int:
    pair = FilterPair.load(getattr(args, "in"))
    circ = decompose(pair)
    if args.out:
        circ.save(args.out)
    print(f"depth={circ.depth} shift={circ.shift}")
    if args.verify:
        rec = compose(circ)
        res = 0.0
        for orig, new in ((pair.g_s, rec.g_s.shift(-circ.shift)),
                          (pair.h_s, rec.h_s.shift(-circ.shift))):
            n = np.arange(min(orig.support[0], new.support[0]),
                          max(orig.support[1], new.support[1]) + 1)
            res = max(res, float(np.max(np.abs(orig[n] - new[n]))))
        A, B = to_lattice_symplectic(circ, max(64, 4 * circ.depth))
        sym = float(np.max(np.abs(A.matrix @ B.matrix.T
                                  - np.eye(A.matrix.shape[0]))))
        print(f"round_trip_residual={_fmt(res)} symplectic_residual={_fmt(sym)}")
    return 0


def cmd_simulate(args) -> int:
    layers, N = args.layers, args.N
    if N % (1 << layers) != 0:
        raise UsageError(
            f"N = {N} must be divisible by 2^layers = {1 << layers}")
    quad = args.quad_points
    if not N < quad <= MAX_POINTS:
        raise UsageError(f"--quad-points must be above N = {N} (a coarser "
                         f"grid aliases the window) and at most "
                         f"{MAX_POINTS}, got {quad}")
    d = parse_dispersion(args.dispersion)
    stack = build_stack(d, FilterPair.load(args.pair), layers)
    rep = error_report(stack, N, quad_points=quad)
    if args.report:
        rep.save(args.report)
    if args.csv:
        q_row, p_row = (rows[0] for rows in rep.measured_rows)
        ms = np.arange(1, min(args.csv_range, N // 4) + 1)
        p_prof, q_prof = rep.exact_profiles(ms)
        lines = ["n,m,exact_p,mera_p,exact_q_reg,mera_q_reg,abs_err_p,abs_err_q"]
        for i, m in enumerate(ms):
            mera_p = p_row[m]
            mera_q = q_row[m] - q_row[0]
            lines.append(",".join(
                ["0", str(int(m)), _fmt(p_prof[i]), _fmt(mera_p),
                 _fmt(q_prof[i]), _fmt(mera_q),
                 _fmt(abs(p_prof[i] - mera_p)),
                 _fmt(abs(q_prof[i] - mera_q))]))
        _write(args.csv, "\n".join(lines) + "\n")
    print(f"delta_p={_fmt(rep.delta_p)} bound_p={_fmt(rep.bound_p)} "
          f"dominated={rep.dominated()}")
    return 0


def cmd_cascade(args) -> int:
    pair = FilterPair.load(args.pair)
    J = args.J
    funcs = {
        "phi_g": scaling_function(pair, "g", J),
        "phi_h": scaling_function(pair, "h", J),
        "psi_g": wavelet_function(pair, "g", J),
        "psi_h": wavelet_function(pair, "h", J),
    }
    lo = min(f.support[0] for f in funcs.values())
    hi = max(f.support[1] for f in funcs.values())
    n = int(np.rint((hi - lo) * 2 ** J)) + 1
    samples = sum(f.values.size for f in funcs.values())
    if n > samples:  # phi moves with the pair's shift, psi does not
        raise UsageError(f"the phi and psi supports span [{_fmt(lo)}, "
                         f"{_fmt(hi)}], {n} grid points at J = {J}, more than "
                         f"the {samples} samples of the four functions; "
                         "shift the pair toward the origin")
    x = lo + np.arange(n) * 0.5 ** J
    cols = {name: f.at(x) for name, f in funcs.items()}
    lines = ["x,phi_g,phi_h,psi_g,psi_h"]
    for i in range(n):
        lines.append(",".join([_fmt(x[i])] + [_fmt(cols[c][i]) for c in
                                              ("phi_g", "phi_h", "psi_g", "psi_h")]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _matched(eigs: np.ndarray, targets: dict[str, float]) -> list[str]:
    out = []
    for label, want in targets.items():
        close = eigs[np.abs(eigs - want) < 1e-6]
        if close.size:
            best = close[np.argmin(np.abs(close - want))]
            out.append(f"  eigenvalue {_fmt(best)} ~ {_fmt(want)}"
                       f" -> scaling dimension {label}")
    return out


def cmd_spectrum(args) -> int:
    pair = FilterPair.load(args.pair)
    # every spectrum is computed before any output, so a failure prints none
    ephi, epi = superoperator_spectrum(pair)
    desc = None if args.K is None else descendant_spectrum(pair, args.K)
    rphi = np.sort(np.real(ephi[np.abs(np.imag(ephi)) < 1e-8]))[::-1]
    rpi = np.sort(np.real(epi[np.abs(np.imag(epi)) < 1e-8]))[::-1]
    print("phi-sector eigenvalues (top 6):",
          " ".join(_fmt(v) for v in rphi[:6]))
    print("\n".join(_matched(rphi, {"0": 1.0})))
    print("pi-sector eigenvalues (top 6):",
          " ".join(_fmt(v) for v in rpi[:6]))
    print("\n".join(_matched(rpi, {"1": 0.5})))
    if desc is not None:
        print("descendant eigenvalues (top 8):",
              " ".join(_fmt(v) for v in desc[:8]))
        targets = {str(l): 0.5 ** l for l in range(args.K + 1)}
        print("\n".join(_matched(desc, targets)))
    return 0


def cmd_flow(args) -> int:
    d = parse_dispersion(args.dispersion)
    rep = flow_report(d, args.levels, grid=args.grid)
    print("level,omega_pi,omega_max,fitted_mass")
    for lv in rep.levels:
        # blank when there is no harmonic fit or it finds no finite mass
        mass = "" if lv.mass is None or not np.isfinite(lv.mass) \
            else _fmt(lv.mass)
        print(f"{lv.level},{_fmt(lv.omega_pi)},{_fmt(lv.omega_max)},{mass}")
    print(f"omega_bound={_fmt(rep.omega_bound)}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    top = _Parser(prog="waverg", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    common = _Parser(add_help=False)
    common.add_argument("--json-errors", action="store_true",
                        help="emit usage errors as JSON on stderr too")
    grid = _Parser(add_help=False)
    grid.add_argument("--grid", type=_int_in(1, MAX_POINTS),
                      default=DesignParams.grid_size,
                      help="frequency grid size for design and flow fits; "
                           f"at most {MAX_POINTS}")
    tol = _Parser(add_help=False)
    tol.add_argument("--tol", type=_tolerance,
                     default=DesignParams.tol_positivity,
                     help="positivity tolerance for spectral factorization, "
                          "a finite number >= 0")

    sub = top.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p = sub.add_parser("design", parents=[common, grid, tol],
                       help="design one filter pair")
    p.add_argument("--dispersion", default="harmonic:m=0")
    p.add_argument("--K", type=_int_in(1, MAX_K), required=True,
                   help=f"vanishing moments, at most {MAX_K}")
    p.add_argument("--L", type=_int_in(1, MAX_L), required=True,
                   help=f"all-pass / rational degree, at most {MAX_L}")
    p.add_argument("--out", default=None, help="pair JSON path")
    p.add_argument("--report", default=None, help="design report JSON path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sweep", parents=[common, grid, tol],
                       help="design a (K, L) grid, emit quality CSV")
    p.add_argument("--dispersion", default="harmonic:m=0")
    p.add_argument("--K", default="1..3",
                   help=f"range, e.g. 1..3, within 1..{MAX_K}")
    p.add_argument("--L", default="1..5",
                   help=f"range, e.g. 1..5, within 1..{MAX_L}")
    p.add_argument("--sweep", default=None, help="combined form K=1..3,L=1..5")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("circuit", parents=[common],
                       help="factor a pair into a binary circuit")
    p.add_argument("--in", required=True, help="pair JSON path")
    p.add_argument("--out", default=None, help="circuit JSON path")
    p.add_argument("--verify", action="store_true",
                   help="recompose and print the round-trip residual")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("simulate", parents=[common],
                       help="MERA vs exact covariance with error bounds")
    p.add_argument("--pair", required=True, help="pair JSON path")
    # 2^layers divides N, and N < --quad-points <= 2^20
    p.add_argument("--layers", type=_int_in(1, 19), required=True)
    p.add_argument("--N", type=_int_in(1, MAX_POINTS - 1), required=True)
    p.add_argument("--dispersion", default="harmonic:m=0")
    p.add_argument("--report", default=None, help="error report JSON path")
    p.add_argument("--csv", default=None, help="correlation CSV path")
    p.add_argument("--csv-range", type=_int_in(1), default=32,
                   dest="csv_range",
                   help="largest offset m in the correlation CSV")
    p.add_argument("--quad-points", type=int, default=1 << 16,
                   dest="quad_points",
                   help="base quadrature points (one Richardson doubling); "
                        f"above N and at most {MAX_POINTS}")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cascade", parents=[common],
                       help="sample scaling/wavelet functions as CSV")
    p.add_argument("--pair", required=True, help="pair JSON path")
    p.add_argument("--J", type=_int_in(1, MAX_J), default=12,
                   help=f"dyadic grid depth, at most {MAX_J}")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("spectrum", parents=[common],
                       help="superoperator and descendant eigenvalues")
    p.add_argument("--pair", required=True, help="pair JSON path")
    p.add_argument("--K", type=_int_in(1), default=None,
                   help="vanishing moments for the descendant spectrum, "
                        "at least 1")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flow", parents=[common, grid],
                       help="renormalization flow of a dispersion")
    p.add_argument("--dispersion", default="harmonic:m=0")
    p.add_argument("--levels", type=_int_in(0, MAX_LEVELS), default=5)
    p.set_defaults(func=cmd_flow)

    return top


def _usage_error(err: Exception, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {err}", file=sys.stderr)
    return USAGE_EXIT


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except UsageError as err:
        # the arguments did not parse, so look for the flag among them
        return _usage_error(err, "--json-errors" in argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as err:
        return _usage_error(err, args.json_errors)
    except WavergError as err:
        print(json.dumps(err.payload(), sort_keys=True), file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
