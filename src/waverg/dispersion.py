"""Dispersion relations and their flow under renormalization layers.

One coarse-graining step maps omega to
omega'(k) = omega(k/2) omega(k/2 + pi) / omega(pi)^2; the harmonic family
hypot(a, b sin(k/2)) is closed under this flow, with
(a, b) -> (a/h, (b/h)^2 / 2) and h = omega(pi) = hypot(a, b), so its mass
a/b goes to 2 sqrt(m^2 + m^4); the massless chain is a fixed point of the
pi-normalized shape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FlowOutOfRange, NegativeMass
from .filters import kgrid

_FLOW_GRID = 4096


class Dispersion:
    """Evaluable omega(k), symmetric and nonnegative, positive away from 0."""

    #: (a, b) with omega(k) = hypot(a, b sin(k/2)) for the harmonic family
    harmonic_form: tuple[float, float] | None = None

    def __call__(self, k):
        raise NotImplementedError

    @property
    def omega_pi(self) -> float:
        return float(self(np.pi))

    def normalized(self, k):
        """omega(k) / omega(pi)."""
        return self(k) / self.omega_pi

    @property
    def gapless(self) -> bool:
        return bool(abs(self(0.0)) <= 1e-12 * abs(self.omega_pi))


@dataclass(frozen=True)
class Harmonic(Dispersion):
    """omega(k) = sqrt(m^2 + sin^2(k/2)) for the harmonic chain."""

    m: float = 0.0

    def __post_init__(self):
        if not (0 <= self.m < np.inf and self.m * self.m < np.inf):
            raise NegativeMass(f"mass must be nonnegative with a finite "
                               f"square, got {self.m}")

    @property
    def harmonic_form(self) -> tuple[float, float]:
        return float(self.m), 1.0

    def __call__(self, k):
        k = np.asarray(k, dtype=np.float64)
        val = np.sqrt(self.m ** 2 + np.sin(k / 2.0) ** 2)
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class Flat(Dispersion):
    """Constant dispersion; its ground state is the uncorrelated product state."""

    value: float = 1.0

    def __post_init__(self):
        # the flow divides by omega(pi)^2, so the square must be a normal float
        c = self.value
        if not (c > 0 and np.finfo(float).tiny <= c * c < np.inf):
            raise ValueError(f"flat dispersion needs c > 0 whose square neither "
                             f"overflows nor underflows, got {c}")

    @property
    def harmonic_form(self) -> tuple[float, float]:
        """The harmonic family with b = 0: its levels are flat at 1."""
        return float(self.value), 0.0

    def __call__(self, k):
        k = np.asarray(k, dtype=np.float64)
        val = np.full_like(k, self.value)
        return float(val) if val.ndim == 0 else val


class Tabulated(Dispersion):
    """omega sampled on a grid over [-pi, pi), linearly interpolated, periodic."""

    def __init__(self, ks: np.ndarray, values: np.ndarray):
        order = np.argsort(ks)
        self._ks = np.asarray(ks, dtype=np.float64)[order]
        self._values = np.asarray(values, dtype=np.float64)[order]
        steps = np.diff(self._ks)
        if not (np.all(np.isfinite(self._ks))
                and np.allclose(steps, steps[:1], rtol=1e-3, atol=0)):
            raise ValueError("tabulated dispersion needs finite k on a "
                             "uniform grid")
        # the flow divides by omega(pi)^2, so every square must be finite
        if not np.all((self._values >= 0)
                      & (self._values <= np.sqrt(np.finfo(float).max))):
            raise ValueError("tabulated omega must be nonnegative with a "
                             "finite square")

    def __call__(self, k):
        k = np.asarray(k, dtype=np.float64)
        kk = np.mod(k + np.pi, 2 * np.pi) - np.pi
        val = np.interp(kk, self._ks, self._values,
                        period=2 * np.pi)
        return float(val) if val.ndim == 0 else val

    @staticmethod
    def from_csv(path: str | Path) -> "Tabulated":
        ks, vals = [], []
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            for row in rows:
                if not row or row[0].strip().startswith("#"):
                    continue
                try:
                    k = float(row[0])
                except ValueError:
                    continue  # header line
                if len(row) < 2:
                    raise ValueError(f"{path}:{rows.line_num}: expected two "
                                     "columns k, omega")
                ks.append(k)
                vals.append(float(row[1]))
        return Tabulated(np.array(ks), np.array(vals))


class Renormalized(Dispersion):
    """One exact coarse-graining step applied to a base dispersion.

    A harmonic-family base (a ``Harmonic`` or a renormalized one) gives a
    level in closed form, evaluated as hypot(a, b sin(k/2)) with
    (a, b) -> (a/h, (b/h)^2 / 2), h = omega(pi) of the base: one sine per
    point at any level, and a' <= 1, b' <= 1/2, so no level overflows.
    Other bases use the product form omega(k/2) omega(k/2 + pi) / omega(pi)^2,
    which recurses into the base; omega(pi) of the base is cached since
    every evaluation uses it.
    """

    def __init__(self, base: Dispersion):
        self.base = base
        self.level = getattr(base, "level", 0) + 1
        base_pi = float(base(np.pi))
        self._base_pi2 = base_pi * base_pi
        if not np.finfo(float).tiny <= self._base_pi2 < np.inf:
            raise FlowOutOfRange(self.level, base_pi)
        if base.harmonic_form is not None:
            a, b = base.harmonic_form
            self.harmonic_form = (a / base_pi, (b / base_pi) ** 2 / 2.0)

    def __call__(self, k):
        k = np.asarray(k, dtype=np.float64)
        if self.harmonic_form is not None:
            a, b = self.harmonic_form
            val = np.hypot(a, b * np.sin(k / 2.0))
        else:
            val = np.asarray(self.base(k / 2.0)) \
                * np.asarray(self.base(k / 2.0 + np.pi)) / self._base_pi2
        return float(val) if val.ndim == 0 else val


def flow(d: Dispersion, levels: int) -> list[Dispersion]:
    """[omega^(0), ..., omega^(levels)] under repeated renormalization."""
    out = [d]
    for _ in range(levels):
        out.append(Renormalized(out[-1]))
    return out


def mass_flow(m: float, levels: int) -> list[float]:
    """Closed-form m^(l+1) = 2 m^(l) sqrt(1 + m^(l)^2), starting at m^(0) = m."""
    if not 0 <= m < np.inf:
        raise NegativeMass(f"mass must be finite and nonnegative, got {m}")
    out = [float(m)]
    for _ in range(levels):
        x = out[-1]
        out.append(2.0 * x * float(np.sqrt(1.0 + x * x)))
    return out


def fitted_mass(d: Dispersion, grid: int = _FLOW_GRID) -> float:
    """Harmonic mass m of d, inf for a flat profile.

    Exact, a/b, for the harmonic family; otherwise a least-squares fit of
    omega(k)^2 to c (m^2 + sin^2(k/2)), which is scale-invariant.
    """
    if d.harmonic_form is not None:
        a, b = d.harmonic_form
        return a / b if b > 0 else float("inf")
    k = kgrid(grid)
    w2 = np.asarray(d(k)) ** 2
    s2 = np.sin(k / 2.0) ** 2
    design = np.stack([np.ones_like(k), s2], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, w2, rcond=None)
    if beta <= 0:
        return float("inf")  # flat profile, no finite harmonic mass
    return float(np.sqrt(max(alpha, 0.0) / beta))


@dataclass(frozen=True)
class FlowLevel:
    level: int
    omega_pi: float
    omega_max: float
    mass: float | None


@dataclass(frozen=True)
class FlowReport:
    levels: list[FlowLevel]

    @property
    def omega_bound(self) -> float:
        """Max of sup_k omega^(l)(k) over all levels (the Omega estimate)."""
        return max(lv.omega_max for lv in self.levels)


def flow_report(d: Dispersion, levels: int, grid: int = _FLOW_GRID) -> FlowReport:
    """omega(pi), the max of omega on kgrid(grid) and, for the harmonic
    family, the fitted mass at each flow level 0..levels."""
    if grid < 1:
        raise ValueError(f"flow grid must be >= 1, got {grid}")
    k = kgrid(grid)
    fit = isinstance(d, Harmonic)
    out = []
    for l, dl in enumerate(flow(d, levels)):
        vals = np.asarray(dl(k))
        out.append(FlowLevel(
            level=l,
            omega_pi=float(dl(np.pi)),
            omega_max=float(vals.max()),
            mass=fitted_mass(dl, grid) if fit else None,
        ))
    return FlowReport(out)


def parse_dispersion(spec: str) -> Dispersion:
    """CLI specifier: 'harmonic:m=<real>', 'flat:c=<real>', 'tabulated:<csv path>'."""
    kind, _, rest = spec.partition(":")
    if kind == "harmonic":
        if rest.startswith("m="):
            rest = rest[2:]
        return Harmonic(float(rest or 0.0))
    if kind == "flat":
        if rest.startswith("c="):
            rest = rest[2:]
        return Flat(float(rest or 1.0))
    if kind == "tabulated":
        return Tabulated.from_csv(rest)
    raise ValueError(f"unknown dispersion specifier {spec!r}")
