"""Dispersion relations, renormalization flow, mass flow, CLI specifiers."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waverg import (Flat, Harmonic, NegativeMass, Renormalized, Tabulated,
                    exact_q_profile, fitted_mass, flow, flow_report,
                    mass_flow, parse_dispersion)


def test_harmonic_values():
    d = Harmonic(0.5)
    assert d(np.pi) == pytest.approx(np.sqrt(1.25))
    assert d(0.0) == pytest.approx(0.5)
    assert not d.gapless
    assert Harmonic(0.0).gapless
    k = np.linspace(-np.pi, np.pi, 33)
    np.testing.assert_allclose(d(k), d(-k))  # even


def test_negative_mass_rejected():
    with pytest.raises(NegativeMass):
        Harmonic(-0.1)
    with pytest.raises(NegativeMass):
        mass_flow(-1.0, 3)


@pytest.mark.parametrize("m", [float("nan"), float("inf")])
def test_nonfinite_mass_rejected(m):
    with pytest.raises(NegativeMass):
        Harmonic(m)
    with pytest.raises(NegativeMass):
        mass_flow(m, 2)


def test_mass_with_overflowing_square_rejected():
    Harmonic(1e154)
    with pytest.raises(NegativeMass):
        Harmonic(1e200)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -1.0, 0.0,
                               1e-320, 1e-160, 1e308])
def test_flat_domain(c):
    with pytest.raises(ValueError):
        Flat(c)


def test_flat_square_range_accepted():
    for c in (1e-150, 1e150):
        assert flow_report(Flat(c), 2).levels[-1].omega_pi == pytest.approx(1.0)


@pytest.mark.parametrize("bad", ["k", "omega"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tabulated_rejects_nonfinite(bad, value):
    ks = np.linspace(-np.pi, np.pi, 9, endpoint=False)
    vals = np.abs(np.sin(ks / 2.0))
    (ks if bad == "k" else vals)[3] = value
    with pytest.raises(ValueError):
        Tabulated(ks, vals)


def test_tabulated_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        Tabulated(np.array([-3.0, -1.0, 0.0, 0.5, 3.0]), np.ones(5))


def test_tabulated_rejects_overflowing_square():
    ks = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    Tabulated(ks, np.full(8, 1e154))
    with pytest.raises(ValueError, match="finite square"):
        Tabulated(ks, np.full(8, 1e200))


def test_gap_test_is_relative():
    tiny = Flat(1e-13)
    assert not tiny.gapless
    vals, _ = exact_q_profile(tiny, np.arange(3), quad_points=64,
                              regulated=False)
    np.testing.assert_allclose(vals, [0.5e13, 0.0, 0.0], atol=0.5e13 * 1e-14)
    for d in (Harmonic(0.0), Harmonic(1e-13), *flow(Harmonic(0.0), 3)[1:]):
        assert d.gapless


def test_renormalize_definition():
    d = Harmonic(0.7)
    r = Renormalized(d)
    k = np.linspace(-np.pi, np.pi, 65)
    want = d(k / 2) * d(k / 2 + np.pi) / d(np.pi) ** 2
    np.testing.assert_allclose(r(k), want, atol=1e-14)


def test_massless_shape_fixed_point():
    d = Harmonic(0.0)
    r = Renormalized(d)
    k = -np.pi + 2 * np.pi * np.arange(4096) / 4096
    assert np.max(np.abs(r.normalized(k) - d.normalized(k))) < 1e-12


def test_mass_flow_closed_form():
    out = mass_flow(0.5, 2)
    assert out[0] == 0.5
    assert out[1] == pytest.approx(2 * np.sqrt(0.25 + 0.0625))
    m1 = out[1]
    assert out[2] == pytest.approx(2 * np.sqrt(m1 ** 2 + m1 ** 4))


def test_mass_flow_past_double_precision():
    assert mass_flow(1e100, 1)[1] == pytest.approx(2e200, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mass_flow(10.0, 8)[-1] == float("inf")
        # the product overflows while the square does not
        assert mass_flow(1.8554027620846e+38, 3)[-1] == float("inf")


@given(st.floats(0.05, 2.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_harmonic_family_closed_under_flow(m):
    # fitted mass of each renormalized level reproduces the closed form
    levels = flow(Harmonic(m), 2)
    closed = mass_flow(m, 2)
    for dl, want in zip(levels, closed):
        assert fitted_mass(dl) == pytest.approx(want, rel=1e-6)


def _chained_product_form(m, level, k):
    """omega^(level) of Harmonic(m) by the definition
    omega'(k) = omega(k/2) omega(k/2 + pi) / omega(pi)^2, chained."""
    if level == 0:
        return np.sqrt(m * m + np.sin(k / 2.0) ** 2)
    w_pi = _chained_product_form(m, level - 1, np.pi)
    return (_chained_product_form(m, level - 1, k / 2.0)
            * _chained_product_form(m, level - 1, k / 2.0 + np.pi)
            / (w_pi * w_pi))


@given(st.floats(0.0, 1e3, allow_nan=False))
@settings(max_examples=25, deadline=None)
@example(0.0)
@example(1.8554027620846e+38)
def test_closed_form_flow_matches_chained_product_form(m):
    k = np.append(np.linspace(-np.pi, np.pi, 33), [2.5 * np.pi, -7.0])
    for dl in flow(Harmonic(m), 8)[1:]:
        assert dl.harmonic_form is not None
        want = _chained_product_form(m, dl.level, k)
        w_pi = dl.omega_pi
        assert w_pi == pytest.approx(_chained_product_form(m, dl.level, np.pi),
                                     rel=1e-12)
        np.testing.assert_allclose(dl(k), want, rtol=0, atol=1e-12 * w_pi)


def test_closed_form_flow_underflows_to_flat():
    # the second coordinate underflows: a flat level, no finite mass
    deep = flow(Harmonic(1.8554027620846e+38), 4)[-1]
    assert deep.harmonic_form[1] == 0.0
    assert fitted_mass(deep) == float("inf")
    assert deep(np.linspace(-np.pi, np.pi, 9)).tolist() == [1.0] * 9


def test_fitted_mass_flat_is_infinite():
    assert fitted_mass(Flat(1.0)) == float("inf")


@pytest.mark.parametrize("grid", [0, -5])
def test_flow_report_refuses_empty_grid(grid):
    message = f"flow grid must be >= 1, got {grid}"
    with pytest.raises(ValueError, match=message):
        flow_report(Harmonic(0.3), 2, grid=grid)


def test_flow_report_fields():
    rep = flow_report(Harmonic(0.5), 3)
    assert [lv.level for lv in rep.levels] == [0, 1, 2, 3]
    assert rep.levels[0].omega_pi == pytest.approx(np.sqrt(1.25))
    assert rep.levels[1].mass == pytest.approx(mass_flow(0.5, 1)[1], rel=1e-6)
    assert rep.omega_bound == pytest.approx(
        max(lv.omega_max for lv in rep.levels))


def test_flow_report_massless_omega_bound():
    rep = flow_report(Harmonic(0.0), 4)
    assert rep.omega_bound == pytest.approx(1.0, abs=1e-6)
    for lv in rep.levels[1:]:
        assert lv.omega_pi == pytest.approx(0.5, abs=1e-12)


def test_tabulated_roundtrip(tmp_path):
    d = Harmonic(0.3)
    k = np.linspace(-np.pi, np.pi, 2049)
    path = tmp_path / "disp.csv"
    np.savetxt(path, np.column_stack([k, d(k)]), delimiter=",")
    t = Tabulated.from_csv(path)
    kk = np.linspace(-np.pi, np.pi, 101)
    np.testing.assert_allclose(t(kk), d(kk), atol=1e-5)


def test_parse_dispersion():
    assert isinstance(parse_dispersion("harmonic:m=0.5"), Harmonic)
    assert parse_dispersion("harmonic:m=0.5").m == 0.5
    assert isinstance(parse_dispersion("flat:2.0"), Flat)
    assert parse_dispersion("flat:c=2.0").value == 2.0
    with pytest.raises(ValueError):
        parse_dispersion("bogus:1")
