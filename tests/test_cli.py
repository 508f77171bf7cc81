"""CLI verbs: exit codes, file outputs, determinism, error JSON."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waverg import (FilterPair, FirFilter, Flat, Harmonic, Tabulated, flow,
                    kgrid, mass_flow)
from waverg import cli
from waverg.cli import main


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pair.json"
    assert main(["design", "--dispersion", "harmonic:m=0",
                 "--K", "2", "--L", "2", "--out", str(path)]) == 0
    return str(path)


def test_design_writes_loadable_pair(tmp_path, capsys):
    out = tmp_path / "p.json"
    rep = tmp_path / "r.json"
    code = main(["design", "--dispersion", "harmonic:m=0", "--K", "1",
                 "--L", "1", "--out", str(out), "--report", str(rep)])
    assert code == 0
    pair = FilterPair.load(out)
    assert pair.pr_residual < 1e-8
    d = json.loads(rep.read_text())
    assert d["K"] == 1 and d["L"] == 1
    assert {"epsilon", "pr_residual", "stability_max_abs_eig",
            "positivity_min"} <= set(d)
    assert "designed K=1 L=1" in capsys.readouterr().out


def test_design_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert main(["design", "--K", "2", "--L", "1", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--K", "1..3", "--L", "1..5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "K,L,epsilon,pr_residual,stability_max_abs_eig,positivity_min"
    assert len(lines) == 1 + 15
    # epsilon decreases along L for K = 2 where the design succeeds; at L = 5
    # the factorization target goes negative for K >= 2 and the row is a
    # diagnosed nan, never a silent bad pair
    eps = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2])
           for l in lines[1:]}
    for L in (1, 2, 3):
        assert eps[(2, L + 1)] < eps[(2, L)]
    assert np.isnan(eps[(2, 5)])


def test_sweep_combined_specifier(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--sweep", "K=1..2,L=1..2", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 4


def test_sweep_specifier_keeps_lists_inside_a_range(capsys):
    assert main(["sweep", "--sweep", "K=1..2,3,L=1"]) == 0
    combined = capsys.readouterr().out
    assert main(["sweep", "--K", "1..2,3", "--L", "1"]) == 0
    assert combined == capsys.readouterr().out
    assert [l.split(",")[0] for l in combined.splitlines()[1:]] == \
        ["1", "2", "3"]


@pytest.mark.parametrize("spec", ["L=1..2", "K=1..2", "K=1..2;L=1",
                                  "K=1,L=1,K=2", "K=1,M=2,L=1"])
def test_sweep_specifier_missing_range_is_usage_error(spec, capsys):
    assert main(["sweep", "--sweep", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sweep takes K=<range>,L=<range>" in captured.err


def test_large_K_is_a_numerical_failure(capsys):
    # the taps of s grow like C(2K, K); an absolute symmetry tolerance used
    # to refuse them with a bare ValueError.  The half-band solve on the
    # minimal window misses 1e-9 in floats, and says where
    assert main(["design", "--K", "13", "--L", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "NoSolution"
    assert payload["support"] == 14 and payload["residual"] >= 1e-9
    assert main(["sweep", "--K", "11..16", "--L", "1"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == [str(K) for K in range(11, 17)]
    assert [r[2] == "nan" for r in rows] == [False, False] + [True] * 4


def test_circuit_verb(tmp_path, pair_file, capsys):
    out = tmp_path / "circ.json"
    assert main(["circuit", "--in", pair_file, "--out", str(out),
                 "--verify"]) == 0
    txt = capsys.readouterr().out
    assert "depth=6" in txt
    res = float(txt.split("round_trip_residual=")[1].split()[0])
    assert res < 1e-10
    circ = json.loads(out.read_text())
    assert circ["M"] == 6
    assert all(g["parity"] in ("even", "odd") for g in circ["gates"])


def test_simulate_divisibility_usage_error(pair_file, capsys):
    code = main(["simulate", "--pair", pair_file, "--layers", "3",
                 "--N", "100", "--dispersion", "harmonic:m=0"])
    assert code == 1
    assert "divisible" in capsys.readouterr().err


def test_simulate_outputs(tmp_path, pair_file):
    rep = tmp_path / "err.json"
    csvf = tmp_path / "corr.csv"
    code = main(["simulate", "--pair", pair_file, "--layers", "3",
                 "--N", "128", "--dispersion", "harmonic:m=0",
                 "--report", str(rep), "--csv", str(csvf),
                 "--quad-points", "8192"])
    assert code == 0
    d = json.loads(rep.read_text())
    assert d["dominated"] is True
    assert d["delta_p"] < 0.1
    lines = csvf.read_text().strip().splitlines()
    assert lines[0] == ("n,m,exact_p,mera_p,exact_q_reg,mera_q_reg,"
                       "abs_err_p,abs_err_q")
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "1"
    assert abs(float(row[6]) - abs(float(row[2]) - float(row[3]))) < 1e-15


def test_simulate_csv_rolls_out_no_covariance(tmp_path, pair_file,
                                             monkeypatch):
    import waverg.cli
    import waverg.mera
    calls = []

    def refuse(name):
        def counted(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} on the simulate path")
        return counted

    # the report and the CSV read the covariance's first block rows only
    for name in ("mera_covariance", "_roll_out"):
        monkeypatch.setattr(waverg.mera, name, refuse(name))
        monkeypatch.setattr(waverg.cli, name, refuse(name), raising=False)
    assert main(["simulate", "--pair", pair_file, "--layers", "2",
                 "--N", "64", "--csv", str(tmp_path / "c.csv"),
                 "--quad-points", "4096"]) == 0
    assert calls == []


def test_simulate_lattice_below_support_is_numerical_failure(pair_file,
                                                            capsys):
    # N = 8 is in --N's range but below twice the K=2/L=2 support
    assert main(["simulate", "--pair", pair_file, "--layers", "1", "--N", "8",
                 "--quad-points", "4096"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "LatticeTooSmall"


@pytest.mark.parametrize("quad", ["0", "-4", "1", "2", "3", "64",
                                  str(10 ** 12), str((1 << 20) + 1)])
def test_simulate_refuses_quad_points(quad, pair_file, capsys):
    # at most N points alias the window's offsets; the cap bounds memory
    assert main(["simulate", "--pair", pair_file, "--layers", "3",
                 "--N", "64", "--quad-points", quad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --quad-points must be above N = 64 (a "
                            f"coarser grid aliases the window) and at most "
                            f"1048576, got {quad}\n")


def test_simulate_accepts_quad_points_above_n(pair_file, capsys):
    assert main(["simulate", "--pair", pair_file, "--layers", "3",
                 "--N", "64", "--quad-points", "65"]) == 0
    assert "dominated=True" in capsys.readouterr().out


def test_simulate_ten_layers_is_dominated(tmp_path, capsys):
    # the operator bound's lattice grows to 2^layers past depth 9
    pair = tmp_path / "k1l1.json"
    rep = tmp_path / "err.json"
    assert main(["design", "--K", "1", "--L", "1", "--out", str(pair)]) == 0
    code = main(["simulate", "--pair", str(pair), "--layers", "10",
                 "--N", "1024", "--report", str(rep)])
    assert code == 0, capsys.readouterr().err
    d = json.loads(rep.read_text())
    assert d["dominated"] is True
    assert d["constants"]["L_layers"] == 10
    assert 0 <= d["quad_error"] < 1e-6


def test_simulate_csv_reads_the_report_oracle(tmp_path, pair_file,
                                             monkeypatch):
    # the CSV's exact columns reuse the dispersion samples of the report:
    # the closed forms of the harmonic chains take none, the quadrature of
    # a gapped table its grid
    table = tmp_path / "m05.csv"
    k = kgrid(4096)
    np.savetxt(table, np.column_stack([k, Harmonic(0.5)(k)]), delimiter=",")
    points = []
    for omega in (Harmonic, Tabulated):
        monkeypatch.setattr(omega, "__call__",
                            lambda h, k, call=omega.__call__:
                            points.append(np.size(k)) or call(h, k))
    for dispersion in ("harmonic:m=0", "harmonic:m=0.5", f"tabulated:{table}"):
        counts = []
        for extra in ([], ["--csv", str(tmp_path / "c.csv")]):
            points.clear()
            assert main(["simulate", "--pair", pair_file, "--layers", "3",
                         "--N", "128", "--quad-points", "8192",
                         "--dispersion", dispersion] + extra) == 0
            counts.append(sum(points))
        assert counts[0] == counts[1] > 0


def test_simulate_deterministic(tmp_path, pair_file):
    outs = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        assert main(["simulate", "--pair", pair_file, "--layers", "2",
                     "--N", "64", "--csv", str(f),
                     "--quad-points", "4096"]) == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]


def test_cascade_csv(tmp_path, pair_file):
    out = tmp_path / "phi.csv"
    assert main(["cascade", "--pair", pair_file, "--J", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,phi_g,phi_h,psi_g,psi_h"
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    # grid spacing 2^-5 and phi integrates to about 1
    assert np.diff(data[:, 0])[0] == pytest.approx(2.0 ** -5)
    assert np.sum(data[:, 1]) * 2.0 ** -5 == pytest.approx(1.0, abs=1e-6)


def test_cascade_of_a_pair_off_root2_is_a_numerical_failure(tmp_path, capsys):
    # the m = 0.3 K2/L2 design pins g(0) h(0) = 2, and its g_s(0) misses
    # sqrt(2) by 4e-6: a well-formed pair the cascade cannot normalize
    pair = tmp_path / "m03.json"
    assert main(["design", "--dispersion", "harmonic:m=0.3", "--K", "2",
                 "--L", "2", "--out", str(pair)]) == 0
    capsys.readouterr()
    out = tmp_path / "phi.csv"
    assert main(["cascade", "--pair", str(pair), "--J", "8",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "NormalizationFailure"
    assert "a_s(0) = sqrt(2)" in err["message"]
    assert not out.exists()


def test_spectrum_verb(pair_file, capsys):
    assert main(["spectrum", "--pair", pair_file, "--K", "2"]) == 0
    txt = capsys.readouterr().out
    assert "scaling dimension 0" in txt
    assert "scaling dimension 1" in txt
    assert "scaling dimension 2" in txt  # descendant eigenvalue 1/4


def test_flow_verb(capsys):
    assert main(["flow", "--dispersion", "harmonic:m=0.5",
                 "--levels", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,omega_pi,omega_max,fitted_mass"
    masses = [float(l.split(",")[3]) for l in lines[1:4]]
    assert masses[1] == pytest.approx(2 * np.sqrt(0.25 + 0.0625), rel=1e-6)


def _flow_masses(capsys, spec, levels):
    assert main(["flow", "--dispersion", spec, "--levels", str(levels)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:levels + 2]
    return [line.split(",")[3] for line in lines]


def test_flow_masses_match_mass_flow(capsys):
    masses = _flow_masses(capsys, "harmonic:m=100", 3)
    np.testing.assert_allclose([float(x) for x in masses],
                               mass_flow(100.0, 3), rtol=1e-12)


def test_flow_large_mass(capsys):
    masses = _flow_masses(capsys, "harmonic:m=1e10", 1)
    assert float(masses[0]) == 1e10
    # a/b overflows once b is below 1e-308: the profile is flat
    masses = _flow_masses(capsys, "harmonic:m=1.8554027620846e+38", 4)
    assert masses[3:] == ["", ""]


def test_numerical_failure_exit_code(tmp_path, capsys):
    # nearly flat renormalized massive dispersion: factorization target
    # goes negative at this degree
    level2 = flow(Harmonic(0.5), 2)[2]
    k = np.linspace(-np.pi, np.pi, 4097)
    disp = tmp_path / "lvl2.csv"
    np.savetxt(disp, np.column_stack([k, np.asarray(level2(k))]),
               delimiter=",")
    code = main(["design", "--dispersion", f"tabulated:{disp}",
                 "--K", "2", "--L", "3", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NotNonnegative"
    assert "min_value" in err and "at_k" in err


def test_circuit_refuses_gauged_non_pr_pair(tmp_path, haar, capsys):
    # Haar with g x 1e20 and h x 1.1e-20: PR defect 0.1 at every gauge
    path = tmp_path / "bad.json"
    FilterPair(haar.g_s.scale(1e20), haar.h_s.scale(1.1e-20)).save(path)
    assert main(["circuit", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "DegenerateFactorization"
    assert err["message"].startswith("PR defect 1.000e-01 exceeds")


@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_nonfinite_mass_is_numerical_failure(mass, capsys):
    code = main(["flow", "--dispersion", f"harmonic:m={mass}",
                 "--levels", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "NegativeMass"


def test_flat_flow_is_closed_form(monkeypatch, capsys):
    start = time.perf_counter()
    assert main(["flow", "--dispersion", "flat:2.5", "--levels", "40"]) == 0
    elapsed = time.perf_counter() - start
    closed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(Flat, "harmonic_form", None)  # the product form
    assert main(["flow", "--dispersion", "flat:2.5", "--levels", "8"]) == 0
    product = capsys.readouterr().out.splitlines()
    # the product form costs 2^l evaluations per point at level l
    assert elapsed < 0.5
    assert len(closed) == 43
    assert closed[:10] + closed[-1:] == product


def test_flat_value_prefix(capsys):
    outs = []
    for spec in ("flat:c=1", "flat:1"):
        assert main(["flow", "--dispersion", spec, "--levels", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


PAIR_VERBS = [["circuit", "--in"], ["cascade", "--pair"], ["spectrum", "--pair"],
              ["simulate", "--layers", "1", "--N", "64", "--pair"]]


@pytest.mark.parametrize("verb", PAIR_VERBS)
@pytest.mark.parametrize("name, tap, value", [("g_s", 1, float("nan")),
                                              ("h_s", 0, float("inf"))])
def test_nonfinite_pair_tap_is_usage_error(verb, name, tap, value, designs,
                                           tmp_path, capsys):
    d = designs[1, 1][0].to_json()
    d[name]["coeffs"][tap] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(verb + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {name} tap {tap} is {value}; "
                            "filter taps must be finite\n")


TAPS = {"offset": 0, "coeffs": [0.5, 0.5]}
HOLD = " must hold an integer offset and a nonempty list of numbers as coeffs"


@pytest.mark.parametrize("verb", PAIR_VERBS)
@pytest.mark.parametrize("content, message", [
    ({}, "g_s" + HOLD),
    ({"g_s": 5, "h_s": 5}, "g_s" + HOLD),
    ({"g_s": TAPS}, "h_s" + HOLD),
    ({"g_s": TAPS, "h_s": {"coeffs": [1.0]}}, "h_s" + HOLD),
    ({"g_s": {"offset": "0", "coeffs": [1.0]}, "h_s": TAPS}, "g_s" + HOLD),
    ({"g_s": {"offset": True, "coeffs": [1.0]}, "h_s": TAPS}, "g_s" + HOLD),
    ({"g_s": TAPS, "h_s": {"offset": 0, "coeffs": "taps"}}, "h_s" + HOLD),
    ({"g_s": {"offset": 0, "coeffs": []}, "h_s": TAPS}, "g_s" + HOLD),
    ({"g_s": {"offset": 0, "coeffs": [[1.0]]}, "h_s": TAPS}, "g_s" + HOLD),
    ([TAPS, TAPS], "pair JSON must be an object with g_s and h_s, got list"),
])
@pytest.mark.parametrize("json_errors", [False, True])
def test_malformed_pair_json_is_usage_error(verb, content, message,
                                            json_errors, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    argv = verb + [str(path)] + ["--json-errors"] * json_errors
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if json_errors:
        assert json.loads(captured.err) == {"error": "ValueError",
                                            "message": message}
    else:
        assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_usage_error_missing_file(tmp_path, capsys):
    code = main(["cascade", "--pair", str(tmp_path / "nope.json")])
    assert code == 1


def test_usage_error_json_flag(tmp_path, capsys):
    for argv, error in [
            (["cascade", "--pair", str(tmp_path / "nope.json")],
             "FileNotFoundError"),
            # refused by the argument parser itself
            (["design", "--K", "x", "--L", "1"], "UsageError"),
            (["design", "--K", "1", "--L", "1", "--grid", "0"], "UsageError")]:
        assert main(argv + ["--json-errors"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert json.loads(last)["error"] == error


def test_parser_built_once_prints_what_fresh_parsers_print(capsys):
    # main reads one cached parser: a refused call leaves nothing in it
    # that changes a later call, and each call prints to the streams that
    # are current when it runs
    calls = [["flow", "--levels", "-1"], ["flow", "--levels", "2"],
             ["design", "--K", "x", "--L", "1", "--json-errors"]]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cached = [run(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [1, 0, 1]
    assert "usage: waverg flow" in cached[0][2]
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(calls[0]) == 1
    assert err.getvalue() == cached[0][2]


@pytest.mark.parametrize("argv, message", [
    (["design", "--K", "x", "--L", "1", "--json"],
     "error: argument --K: invalid int value: 'x'"),
    (["design", "--K", "1", "--L", "1", "--json"],
     "error: unrecognized arguments: --json"),
    (["flow", "--lev", "2"], "error: unrecognized arguments: --lev 2")])
def test_abbreviated_options_are_refused(argv, message, capsys):
    # --json is not --json-errors: a refusal prints the plain line, and on
    # its own it is an unknown argument, refused before any work
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == message


@pytest.mark.parametrize("argv", [
    ["cascade", "--pair", "PAIR", "--tol", "1e-3"],
    ["cascade", "--pair", "PAIR", "--quad-points", "8"],
    ["circuit", "--in", "PAIR", "--grid", "64"],
    ["spectrum", "--pair", "PAIR", "--tol", "1e-3"],
    ["flow", "--tol", "1e-3"],
    ["design", "--K", "1", "--L", "1", "--quad-points", "8"],
    ["simulate", "--pair", "PAIR", "--layers", "1", "--N", "64",
     "--grid", "64"],
])
def test_flag_of_another_verb_is_usage_error(argv, pair_file, capsys):
    argv = [pair_file if a == "PAIR" else a for a in argv]
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verb_flags_accepted(tmp_path, capsys):
    assert main(["flow", "--grid", "512", "--levels", "1"]) == 0
    assert main(["design", "--K", "1", "--L", "1", "--grid", "1024",
                 "--tol", "1e-10", "--out", str(tmp_path / "p.json")]) == 0


def test_tabulated_overflow_is_usage_error(tmp_path, capsys):
    k = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    disp = tmp_path / "big.csv"
    np.savetxt(disp, np.column_stack([k, np.full(8, 1e200)]), delimiter=",")
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "2"])
    assert code == 1
    assert "finite square" in capsys.readouterr().err


@pytest.mark.parametrize("rows, match", [
    ("0.5,1\n0.5,3\n0.5,2\n", "distinct k"),
    ("-3,1\n-1,2\n1,3\n3,4\n5,5\n", "more than one period"),
])
def test_tabulated_table_it_cannot_interpolate_is_usage_error(
        tmp_path, capsys, rows, match):
    disp = tmp_path / "bad.csv"
    disp.write_text(rows)
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and match in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--pair", "DIR"], ["circuit", "--in", "DIR"],
    ["design", "--K", "1", "--L", "1", "--out", "DIR"],
    ["sweep", "--K", "1", "--L", "1", "--out", "DIR"],
    ["simulate", "--pair", "PAIR", "--layers", "1", "--N", "64",
     "--quad-points", "4096", "--report", "DIR"],
    ["flow", "--dispersion", "tabulated:DIR"]])
@pytest.mark.parametrize("json_errors", [False, True])
def test_directory_path_is_usage_error(argv, json_errors, pair_file,
                                       tmp_path, capsys):
    argv = [pair_file if a == "PAIR" else a.replace("DIR", str(tmp_path))
            for a in argv] + ["--json-errors"] * json_errors
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if json_errors:
        assert json.loads(captured.err)["error"] == "IsADirectoryError"
    else:
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_one_column_tabulated_csv_is_usage_error(tmp_path, capsys):
    disp = tmp_path / "one.csv"
    disp.write_text("k,omega\n-3.0,1.0\n-1.0\n")
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "1"])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {disp}:3: expected two "
                                       "columns k, omega\n")


@pytest.mark.parametrize("text", ["k,omega\n", "# comment only\n", ""])
def test_empty_tabulated_csv_is_usage_error(tmp_path, capsys, text):
    disp = tmp_path / "empty.csv"
    disp.write_text(text)
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {disp}: no k, omega rows\n"


def test_non_numeric_tabulated_omega_is_usage_error(tmp_path, capsys):
    disp = tmp_path / "word.csv"
    disp.write_text("k,omega\n-3.0,1.0\n-1.0, x\n")
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {disp}:3: omega 'x' is not a number\n"


def test_flow_overflow_at_a_level_is_numerical_failure(tmp_path, capsys):
    # every square is finite, so Tabulated accepts the table, but level 1
    # has omega(pi) = 1e308 and level 2 would divide by its square
    k = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    omega = np.where(np.isclose(np.abs(k), np.pi / 2), 1e154, 1.0)
    disp = tmp_path / "spike.csv"
    np.savetxt(disp, np.column_stack([k, omega]), delimiter=",")
    code = main(["flow", "--dispersion", f"tabulated:{disp}", "--levels", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "FlowOutOfRange"
    assert err["level"] == 2


def test_unknown_verb_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


@given(st.sampled_from(["harmonic", "flat"]), st.floats())
@example("flat", float("nan"))
@example("flat", 0.0)
@example("flat", 1e-320)
@example("flat", 1e308)
@example("harmonic", 1e200)
@example("harmonic", 100.0)
@settings(deadline=None)
def test_flow_exit_code_contract(kind, x):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["flow", "--dispersion", f"{kind}:{x!r}", "--levels", "3"])
    assert code in (0, 1, 2)
    if code == 0:
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text, text
    if code == 2:
        json.loads(err.getvalue().strip().splitlines()[-1])


SIMULATE = ["simulate", "--layers", "1", "--N", "64", "--quad-points", "4096",
            "--report", "REPORT", "--csv", "CSV", "--pair", "PAIR"]
CASCADE = ["cascade", "--pair", "PAIR", "--out", "CSV", "--J"]
DESIGN = ["design", "--out", "CSV", "--report", "REPORT"]


@pytest.mark.parametrize("argv, message", [
    (["flow", "--levels", "-1"], "argument --levels: must be 0..62, got -1"),
    (["flow", "--grid", "-5"], "argument --grid: must be 1..1048576, got -5"),
    (["design", "--K", "1", "--L", "1", "--grid", "0"],
     "argument --grid: must be 1..1048576, got 0"),
    (["design", "--dispersion", "flat:1", "--K", "1", "--L", "1",
      "--grid", "3"], "grid_size must be >= 4, got 3"),
    (["sweep", "--grid", "0"], "argument --grid: must be 1..1048576, got 0"),
    (SIMULATE + ["--csv-range", "0"],
     "argument --csv-range: must be 1..inf, got 0"),
    (SIMULATE + ["--csv-range", "-3"],
     "argument --csv-range: must be 1..inf, got -3"),
    (SIMULATE + ["--layers", "0"], "argument --layers: must be 1..19, got 0"),
    (SIMULATE + ["--layers", str(10 ** 11)],
     "argument --layers: must be 1..19"),
    (CASCADE + ["-1"], "argument --J: must be 1..20, got -1"),
    (CASCADE + ["21"], "argument --J: must be 1..20, got 21"),
    (CASCADE + [str(10 ** 11)], "argument --J: must be 1..20"),
    (SIMULATE + ["--N", "0"], "argument --N: must be 1..1048575, got 0"),
    (SIMULATE + ["--N", "-256"],
     "argument --N: must be 1..1048575, got -256"),
    # design orders past the double range: C(2K, K) at L = 1, the all-pass
    # self-convolution at K = 1
    (DESIGN + ["--K", "514", "--L", "1"],
     "argument --K: must be 1..513, got 514"),
    (DESIGN + ["--K", "1030", "--L", "1"],
     "argument --K: must be 1..513, got 1030"),
    (DESIGN + ["--K", "100000", "--L", "1"],
     "argument --K: must be 1..513, got 100000"),
    (DESIGN + ["--dispersion", "harmonic:m=0.5", "--K", "514", "--L", "1"],
     "argument --K: must be 1..513, got 514"),
    (DESIGN + ["--K", "0", "--L", "1"], "argument --K: must be 1..513, got 0"),
    (DESIGN + ["--K", "1", "--L", "262"],
     "argument --L: must be 1..261, got 262"),
    (DESIGN + ["--K", "1", "--L", "-1"],
     "argument --L: must be 1..261, got -1"),
])
def test_bad_integer_flag_is_usage_error(argv, message, pair_file, tmp_path,
                                         capsys):
    files = {"PAIR": pair_file, "REPORT": str(tmp_path / "r.json"),
             "CSV": str(tmp_path / "c.csv")}
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []  # refused before any work


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--pair", "PAIR", "--K", "0"],
     "argument --K: must be 1..inf, got 0"),
    (["spectrum", "--pair", "PAIR", "--K", "-1"],
     "argument --K: must be 1..inf, got -1"),
    (["sweep", "--K", "3..1", "--L", "1", "--out", "CSV"],
     "--K: empty range '3..1'"),
    (["sweep", "--K", "1", "--L", "1,4..2", "--out", "CSV"],
     "--L: empty range '4..2'"),
    (["sweep", "--sweep", "K=3..1,L=1", "--out", "CSV"],
     "--sweep: empty range '3..1'"),
    (["design", "--K", "1", "--L", "1", "--tol", "nan", "--out", "PAIR_OUT",
      "--report", "REPORT"], "argument --tol: must be a finite number >= 0"),
    (["design", "--K", "1", "--L", "1", "--tol", "-1", "--out", "PAIR_OUT"],
     "argument --tol: must be a finite number >= 0, got -1"),
    (["sweep", "--K", "1", "--L", "1", "--tol", "inf", "--out", "CSV"],
     "argument --tol: must be a finite number >= 0, got inf"),
    (["sweep", "--K", "x", "--L", "1", "--out", "CSV"],
     "--K: expected an integer or a range lo..hi, got 'x'"),
    (["sweep", "--K", "1", "--L", "1..2..3", "--out", "CSV"],
     "--L: expected an integer or a range lo..hi, got '1..2..3'"),
    (["sweep", "--sweep", "K=1..x,L=1", "--out", "CSV"],
     "--sweep: expected an integer or a range lo..hi, got '1..x'"),
    (["sweep", "--K", "1..514", "--L", "1", "--out", "CSV"],
     "--K: '1..514' leaves 1..513"),
    (["sweep", "--K", "0..2", "--L", "1", "--out", "CSV"],
     "--K: '0..2' leaves 1..513"),
    (["sweep", "--K", "1", "--L", "1,262", "--out", "CSV"],
     "--L: '262' leaves 1..261"),
    (["sweep", "--K", "1", "--L", "1..100000000000", "--out", "CSV"],
     "--L: '1..100000000000' leaves 1..261"),
    (["sweep", "--sweep", "K=1,L=1..262", "--out", "CSV"],
     "--sweep: '1..262' leaves 1..261"),
    (["sweep", "--sweep", "K=514,L=1", "--out", "CSV"],
     "--sweep: '514' leaves 1..513"),
])
def test_refusal_before_any_work(argv, message, pair_file, tmp_path, capsys):
    files = {"PAIR": pair_file, "PAIR_OUT": str(tmp_path / "p.json"),
             "REPORT": str(tmp_path / "r.json"),
             "CSV": str(tmp_path / "c.csv")}
    assert main([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error, stage", [
    # the joint case: each order is in range, the rational fit overflows
    (["design", "--K", "513", "--L", "261"], "NonFiniteFilter",
     "rational approximation a/b of degree 261"),
    (["design", "--K", "1", "--L", "261"], "NonFiniteFilter",
     "rational approximation a/b of degree 261"),
    (["design", "--K", "513", "--L", "1"], "NoSolution", None),
    (["design", "--dispersion", "harmonic:m=0.5", "--K", "513", "--L", "1"],
     "NoSolution", None),
])
@pytest.mark.parametrize("json_errors", [False, True])
def test_design_at_the_order_caps_is_a_typed_failure(argv, error, stage,
                                                      json_errors, capfd):
    # capfd: a LAPACK message would be written to the process's stderr
    argv = argv + ["--json-errors"] * json_errors
    assert main(argv) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == error
    assert payload.get("stage") == stage


def _shifted_pair(tmp_path, pair_file, **offsets):
    d = json.loads(open(pair_file).read())
    for name, offset in offsets.items():
        d[name]["offset"] = offset
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.mark.parametrize("shift", [24, 26, 100, -40])
def test_spectrum_refuses_a_support_outside_its_window(shift, pair_file,
                                                       tmp_path, capsys):
    # the K2/L2 pair sits on [-5, 6] and the window is [-24, 24]; the
    # ascent's eigenvectors live on [-b, -a], and a shifted pair whose
    # support leaves the window printed wrong eigenvalues with exit 0
    path = _shifted_pair(tmp_path, pair_file, g_s=shift - 5, h_s=shift - 5)
    assert main(["spectrum", "--pair", path, "--K", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: filter support [{shift - 5}, "
                            f"{shift + 6}] does not fit the spectrum window "
                            "[-24, 24]\n")


def test_spectrum_of_a_shifted_pair_inside_its_window(pair_file, tmp_path,
                                                      capsys):
    assert main(["spectrum", "--pair", pair_file, "--K", "2"]) == 0
    want = capsys.readouterr().out
    path = _shifted_pair(tmp_path, pair_file, g_s=-5 + 18, h_s=-5 + 18)
    assert main(["spectrum", "--pair", path]) == 0
    got = capsys.readouterr().out
    # the same spectra, up to the rounding of another block
    for line in (0, 2):
        head, _, values = got.splitlines()[line].partition(":")
        assert head == want.splitlines()[line].partition(":")[0]
        np.testing.assert_allclose(
            np.array(values.split(), dtype=float),
            np.array(want.splitlines()[line].split(":")[1].split(),
                     dtype=float), rtol=0, atol=1e-12)
    assert "scaling dimension 0" in got and "scaling dimension 1" in got


@pytest.mark.parametrize("offsets, name", [
    ({"g_s": 10 ** 30}, "g_s"), ({"g_s": 2 ** 62, "h_s": 2 ** 62}, "g_s"),
    ({"h_s": -(2 ** 31)}, "h_s")])
@pytest.mark.parametrize("verb", PAIR_VERBS)
def test_pair_offset_past_2_31_is_usage_error(offsets, name, verb, pair_file,
                                              tmp_path, capsys):
    path = _shifted_pair(tmp_path, pair_file, **offsets)
    assert main(verb + [path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {name} offset {offsets[name]} is out of "
                            "range; |offset| must be below 2^31\n")


@pytest.mark.parametrize("shift, span", [
    (2 ** 30, "[-5, 1073741830], 17179869361 grid points"),
    (100, "[-5, 106], 1777 grid points"), (10, None)])
def test_cascade_refuses_a_grid_past_its_samples(shift, span, pair_file,
                                                 tmp_path, capsys):
    # phi moves with the pair's shift and psi does not: the 2^30 shift
    # asked for a 128 GiB grid
    path = _shifted_pair(tmp_path, pair_file, g_s=shift - 5, h_s=shift - 5)
    out = tmp_path / "c.csv"
    code = main(["cascade", "--pair", path, "--J", "4", "--out", str(out)])
    captured = capsys.readouterr()
    if span is None:
        assert code == 0 and captured.err == ""
        assert out.read_text().startswith("x,phi_g,phi_h,psi_g,psi_h\n")
        return
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == (f"error: the phi and psi supports span {span} "
                            "at J = 4, more than the 708 samples of the four "
                            "functions; shift the pair toward the origin\n")


def test_spectrum_failure_prints_no_partial_output(pair_file, capsys):
    # the K=2 pair carries two moment factors, not five
    assert main(["spectrum", "--pair", pair_file, "--K", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NotDivisible"


@pytest.mark.parametrize("argv, flag", [
    (["flow"], "--levels"),
    (["flow", "--dispersion", "harmonic:m=0.3"], "--grid"),
    (["design", "--K", "1", "--L", "1"], "--grid"),
    (["design", "--dispersion", "harmonic:m=0.3", "--K", "1", "--L", "1"],
     "--grid"),
    (["design", "--L", "1"], "--K"),
    (["design", "--K", "1"], "--L"),
    (["sweep", "--K", "1", "--L", "1"], "--grid"),
    (["simulate", "--layers", "1", "--N", "64", "--quad-points", "4096",
      "--csv", "CSV", "--pair"], "--csv-range"),
    (["simulate", "--N", "64", "--quad-points", "4096", "--pair"],
     "--layers"),
    (["spectrum", "--pair"], "--K"),
    (["simulate", "--layers", "1", "--quad-points", "4096", "--pair"],
     "--N"),
])
@settings(deadline=None, max_examples=40)
@given(value=st.integers())
@example(value=0)
@example(value=-1)
@example(value=3)
@example(value=4)
def test_integer_flag_exit_code_contract(argv, flag, value, pair_file,
                                         tmp_path_factory):
    csv = tmp_path_factory.mktemp("contract") / "c.csv"
    argv = [str(csv) if a == "CSV" else a for a in argv]
    if argv[-1] == "--pair":
        argv.append(pair_file)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [flag, str(value)])
    assert code in (0, 1, 2)
    if code == 0:
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text, text
    if code == 2:
        json.loads(err.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("verb", ["simulate", "design", "sweep"])
def test_degenerate_input_is_refused_without_library_text(verb, tmp_path,
                                                          capfd):
    # a zero-mean scaling filter, and a dispersion with omega(pi) = 0: the
    # refusal is the package's own, with no numpy warning or LAPACK message
    # on the process's own streams (capfd reads the file descriptors)
    if verb == "simulate":
        r = 0.5 ** 0.5
        pair = tmp_path / "zero_mean.json"
        FilterPair(FirFilter(0, np.array([r, -r])),
                   FirFilter(0, np.array([r, r]))).save(pair)
        argv = ["simulate", "--pair", str(pair), "--layers", "2", "--N",
                "64", "--quad-points", "4096"]
    else:
        table = tmp_path / "zero.csv"
        table.write_text("k,omega\n" + "".join(
            f"{k!r},0.0\n" for k in kgrid(16).tolist()))
        argv = [verb, "--dispersion", f"tabulated:{table}", "--K", "1",
                "--L", "1"]
    code = main(argv)
    captured = capfd.readouterr()
    for text in (captured.out, captured.err):
        assert "** On entry to" not in text and "RuntimeWarning" not in text
    assert captured.out == ""
    [line] = captured.err.splitlines()
    if verb == "simulate":
        assert code == 2
        payload = json.loads(line)
        assert payload["error"] == "NormalizationFailure"
        assert payload["layer"] == 0
    else:
        assert code == 1
        assert line.startswith("error: ") and "omega(pi) = 0" in line


def test_overflowing_gram_is_refused_without_library_text(tmp_path, capfd):
    # taps that normalize (a_s(0) = 2e200, so the amplitude bound passes)
    # but whose Gram overflows: the walk printed numpy warnings, and eigvalsh
    # then failed with "Eigenvalues did not converge" as a usage error
    r = 0.5 ** 0.5
    pair = tmp_path / "gram_overflow.json"
    FilterPair(FirFilter(0, np.array([1e200, 1e200])),
               FirFilter(0, np.array([r, r]))).save(pair)
    code = main(["simulate", "--pair", str(pair), "--layers", "2", "--N",
                 "64", "--quad-points", "4096"])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NonFiniteFilter"
    assert payload["stage"].endswith("-channel Gram walk")


@pytest.mark.parametrize("verb", ["cascade", "simulate", "circuit"])
def test_overflowing_scaling_filter_is_refused_without_warnings(verb,
                                                                tmp_path,
                                                                capfd):
    # finite taps whose sum a_s(0) overflows: the typed refusal comes before
    # any numpy warning (the cascade's sqrt(2) check, or the amplitude
    # bound's before the Gram walk would overflow on the taps); the circuit
    # peel's PR defect of taps 1e200 overflows, and was an OverflowError
    r = 0.5 ** 0.5
    pair = tmp_path / "overflow.json"
    g, h = ([1e200, 1e200],) * 2 if verb == "circuit" else \
        ([1e308, 1e308], [r, r])
    FilterPair(FirFilter(0, np.array(g)), FirFilter(0, np.array(h))).save(pair)
    argv = {"cascade": ["cascade", "--pair", str(pair), "--J", "4"],
            "simulate": ["simulate", "--pair", str(pair), "--layers", "2",
                         "--N", "64", "--quad-points", "4096"],
            "circuit": ["circuit", "--in", str(pair)]}[verb]
    assert main(argv) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    payload = json.loads(line)
    if verb == "circuit":
        assert payload["error"] == "DegenerateFactorization"
        assert payload["message"].startswith("PR defect inf exceeds")
    elif verb == "cascade":
        assert payload["error"] == "NormalizationFailure"
        assert payload["message"].endswith("got inf+nanj")
    else:
        assert payload["error"] == "NormalizationFailure"
        assert payload["layer"] == 0
        assert "a_s(0) = inf" in payload["message"]
