"""The benchmark's three workloads: seeded inputs, one operation, its checks.

Every call into the program goes through a module attribute
(``mera.build_stack``, ``cli.main``, ...) looked up at call time, so that
the traced run can wrap those attributes from outside the program.

Draws come in seeded rounds: each round is a fresh permutation of the
workload's whole input grid, so every run covers the grid evenly and its
median op time does not hinge on which few grid points a seed happened to
favour.  No grid point or mass range is left out of the draws.

Some drawn inputs fail for known reasons (``NotNonnegative`` on deeper
gapped levels, the cascade's ``a_s(0) = sqrt(2)`` check on massive pairs,
``DegenerateFactorization``).  Before timing, a run screens its whole draw
once (``Workload.screen``, the census): every failure is counted and
attributed, and the timed loop then cycles over the drawn inputs that
passed, in draw order.
So a run's timed ops, and its ``failed`` count, do not depend on how many
failing inputs happened to fit into the measured seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from waverg import circuit, cli, continuum, design, mera
from waverg.design import DesignParams
from waverg.dispersion import Harmonic

MASSLESS_GRID = [(K, L) for K in (1, 2, 3) for L in (1, 2, 3, 4)]
MASS_RANGE = (0.05, 1.0)
RESIDUAL_TOL = 1e-8
EIGENVALUE_TOL = 1e-6


class CliExit(Exception):
    """``cli.main`` returned a non-zero exit code."""

    def __init__(self, code: int, error_type: str):
        super().__init__(f"exit {code}: {error_type}")
        self.code = code
        self.error_type = error_type


def _rounds(rng: np.random.Generator, pool: int, n_items: int) -> list[int]:
    order: list[int] = []
    while len(order) < n_items:
        order.extend(int(i) for i in rng.permutation(pool))
    return order[:n_items]


def _mass(rng: np.random.Generator) -> float:
    return float(rng.uniform(*MASS_RANGE))


def _bound_results(delta_p: float, bound_p: float) -> dict:
    return {"delta_p": delta_p, "bound_p": bound_p,
            "log10_bound_over_delta": math.log10(bound_p / delta_p)
            if bound_p > 0 and delta_p > 0 else None,
            "bound_vacuous": bound_p >= 1.0}


class Workload:
    """One workload: ``draw`` inputs from a seed, ``prepare`` files in set-up,
    ``screen`` every drawn input once, then ``op`` (timed), ``check`` (list
    of failed checks), ``results``."""

    name: str
    screens = False  # whether the census screens the draw before timing
    round_size = None  # if set, a run ends only where a round of draws ends

    def __init__(self, inputs: dict, work: Path):
        pass

    @staticmethod
    def prepare(work: Path) -> dict:
        return {}

    def screen(self, item: dict) -> list[str]:
        """Run the part of an op that can fail on this input; failed checks."""
        return self.check(item, self.op(item))


class ReportGapless(Workload):
    """``waverg simulate`` in process: massless chain, 8 layers, N = 2048."""

    name = "report_gapless"
    layers, N = 8, 2048
    n_items = 48

    def __init__(self, inputs: dict, work: Path):
        self.pairs = inputs["pairs"]
        self.report_path = work / "report.json"

    @classmethod
    def draw(cls, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [{"m": 0.0, "K": MASSLESS_GRID[i][0], "L": MASSLESS_GRID[i][1]}
                for i in _rounds(rng, len(MASSLESS_GRID), cls.n_items)]

    @staticmethod
    def prepare(work: Path) -> dict:
        """Design and write every pair of the massless grid."""
        pairs = {}
        for K, L in MASSLESS_GRID:
            pair, report = design.design_pair(Harmonic(0.0), DesignParams(K, L))
            path = work / f"pair_K{K}_L{L}.json"
            pair.save(path, meta={"K": K, "L": L})
            pairs[f"{K},{L}"] = {"path": str(path),
                                 "pr_residual": report.pr_residual}
        return {"pairs": pairs}

    def op(self, item: dict):
        pair = self.pairs[f"{item['K']},{item['L']}"]
        self.report_path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(["simulate", "--pair", pair["path"],
                             "--layers", str(self.layers), "--N", str(self.N),
                             "--report", str(self.report_path)])
        if code != 0:
            try:
                kind = json.loads(stderr.getvalue().splitlines()[-1])["error"]
            except (IndexError, ValueError, KeyError, TypeError):
                kind = f"exit{code}"
            raise CliExit(code, kind)
        try:
            return json.loads(self.report_path.read_text())
        except (OSError, ValueError):
            return None

    def check(self, item: dict, report: dict | None) -> list[str]:
        if not isinstance(report, dict):
            return ["report missing or not parseable"]
        problems = []
        if report.get("dominated") is not True:
            problems.append("report not dominated by its bound")
        delta_p = report.get("delta_p")
        if not isinstance(delta_p, float) or not math.isfinite(delta_p):
            problems.append("delta_p not finite")
        return problems

    def results(self, item: dict, report: dict) -> dict:
        pair = self.pairs[f"{item['K']},{item['L']}"]
        return {"epsilon": report["constants"]["epsilon"],
                "pr_residual": pair["pr_residual"], "delta_q": None,
                **_bound_results(report["delta_p"], report["bound_p"])}


class ReportGapped(Workload):
    """``build_stack`` with a redesign per level, then ``error_report``."""

    name = "report_gapped"
    designs = [(2, 2), (1, 2), (2, 1)]
    layers, N = 5, 1024
    n_items = 24
    screens = True

    @classmethod
    def draw(cls, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        items = []
        for i in _rounds(rng, len(cls.designs), cls.n_items):
            K, L = cls.designs[i]
            items.append({"m": _mass(rng), "K": K, "L": L})
        return items

    def _stack(self, item: dict):
        return mera.build_stack(Harmonic(item["m"]),
                                DesignParams(item["K"], item["L"]),
                                self.layers)

    def op(self, item: dict):
        stack = self._stack(item)
        return stack, mera.error_report(stack, self.N)

    def screen(self, item: dict) -> list[str]:
        """The known failures are all raised while the stack is built; the
        screen stops there, because ``error_report`` takes 40x as long."""
        self._stack(item)
        return []

    def check(self, item: dict, out) -> list[str]:
        _, report = out
        problems = []
        if not report.dominated():
            problems.append("report not dominated by its bound")
        for key in ("delta_p", "delta_q"):
            if not math.isfinite(getattr(report, key)):
                problems.append(f"{key} not finite")
        return problems

    def results(self, item: dict, out) -> dict:
        stack, report = out
        return {"epsilon": max(stack.epsilons),
                "pr_residual": max(r.pr_residual for r in stack.reports),
                "delta_q": report.delta_q,
                **_bound_results(report.delta_p, report.bound_p)}


class DesignSweep(Workload):
    """design, circuit --verify, cascade and spectrum on one (m, K, L) item."""

    name = "design_sweep"
    J = 12
    # A round of draws is the whole grid, massless and massive.  Item costs
    # span 20x over (K, L), and only the massive items of the costly L = 3, 4
    # pairs pass; four rounds keep a run's median from hinging on how many
    # of those one round happens to pass, and ending runs on whole rounds
    # gives each (K, L) the same weight.
    round_size = 2 * len(MASSLESS_GRID)
    n_items = 4 * round_size
    screens = True

    @classmethod
    def draw(cls, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        pool = [(K, L, massive) for K, L in MASSLESS_GRID
                for massive in (False, True)]
        items = []
        for i in _rounds(rng, cls.round_size, cls.n_items):
            K, L, massive = pool[i]
            items.append({"m": _mass(rng) if massive else 0.0, "K": K, "L": L})
        return items

    def op(self, item: dict):
        pair, report = design.design_pair(Harmonic(item["m"]),
                                          DesignParams(item["K"], item["L"]))
        circ = circuit.decompose(pair)
        rebuilt = circuit.compose(circ)
        A, B = circuit.to_lattice_symplectic(circ, max(64, 4 * circ.depth))
        for channel in ("g", "h"):
            continuum.scaling_function(pair, channel, self.J)
            continuum.wavelet_function(pair, channel, self.J)
        spectra = continuum.superoperator_spectrum(pair)
        return pair, report, circ, rebuilt, A, B, spectra

    def check(self, item: dict, out) -> list[str]:
        """The residuals ``waverg circuit --verify`` prints, and the spectrum."""
        pair, report, circ, rebuilt, A, B, (ephi, epi) = out
        round_trip = 0.0
        for orig, new in ((pair.g_s, rebuilt.g_s.shift(-circ.shift)),
                          (pair.h_s, rebuilt.h_s.shift(-circ.shift))):
            lo = min(orig.support[0], new.support[0])
            hi = max(orig.support[1], new.support[1])
            round_trip = max(round_trip, max(abs(orig[n] - new[n])
                                             for n in range(lo, hi + 1)))
        symplectic = float(np.max(np.abs(A.matrix @ B.matrix.T
                                         - np.eye(A.matrix.shape[0]))))
        problems = []
        if not report.pr_residual <= RESIDUAL_TOL:
            problems.append(f"pr_residual {report.pr_residual:.3g}")
        if not round_trip <= RESIDUAL_TOL:
            problems.append(f"round trip residual {round_trip:.3g}")
        if not symplectic <= RESIDUAL_TOL:
            problems.append(f"symplectic residual {symplectic:.3g}")
        if not np.min(np.abs(ephi - 1.0)) <= EIGENVALUE_TOL:
            problems.append("no eigenvalue 1 in the phi sector")
        if not np.min(np.abs(epi - 0.5)) <= EIGENVALUE_TOL:
            problems.append("no eigenvalue 1/2 in the pi sector")
        return problems

    def results(self, item: dict, out) -> dict:
        report = out[1]
        return {"epsilon": report.epsilon, "pr_residual": report.pr_residual}


WORKLOADS = {w.name: w for w in (ReportGapless, ReportGapped, DesignSweep)}


def oracle_check() -> list[str]:
    """gamma_p at offset 0 of the massless chain is exactly 1/pi."""
    values, err = mera.exact_p_profile(Harmonic(0.0), np.array([0.0]))
    problems = []
    if not err < 1e-9:
        problems.append(f"oracle certified error {err:.3g} >= 1e-9")
    if not abs(values[0] - 1.0 / np.pi) < 1e-9:
        problems.append(f"oracle gamma_p(0) = {float(values[0])!r} != 1/pi")
    return problems


def determinism_check(item: dict) -> list[str]:
    """Designing the same item twice gives byte-identical pair JSON."""
    outcomes = []
    for _ in range(2):
        try:
            pair, _ = design.design_pair(Harmonic(item["m"]),
                                         DesignParams(item["K"], item["L"]))
            outcomes.append(json.dumps(pair.to_json(), sort_keys=True))
        except Exception as err:  # a refusal must repeat exactly too
            outcomes.append(f"{type(err).__name__}: {err}")
    return [] if outcomes[0] == outcomes[1] else \
        [f"design of {item} not deterministic"]
