import csv
import hashlib
import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from lapsewalk import cli, ensemble, exact, experiments
from lapsewalk.cli import build_parser, main
from lapsewalk.errors import InvalidState, OutOfDomain
from lapsewalk.exact import distribution_dp
from lapsewalk.model import ModelParams
from lapsewalk.report import csv_lines, emit_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_predict_text(capsys):
    code, out, _ = run_cli(capsys, "predict", "-p", "0.6", "-q", "0.2",
                           "-r", "0.2", "--theta", "0.5")
    assert code == 0
    assert "regime = diffusive" in out
    assert "lln_limit = 0.2499999999" in out  # 17-significant-digit floats
    assert "phi = 0.604166666" in out


def test_predict_json_superdiffusive(capsys):
    code, out, _ = run_cli(capsys, "predict", "-p", "0.95", "-q", "0.05",
                           "-r", "0", "--theta", "0.9", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["derived"]["regime"] == "superdiffusive"
    assert rep["predictions"]["v_limit"] > 1.0


def super_flags(alpha):
    """p = 0.9, q = 0, r = 0.1 and theta solved from alpha = (p - q) theta."""
    return ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(alpha / 0.9)]


def test_predict_json_bytes_pinned(tmp_path):
    # the direct v_limit route keeps its bits: this digest is the one the
    # benchmark's bench/golden.json records for the same invocation
    out = tmp_path / "predict.json"
    assert main(["predict", *super_flags(0.6), "--format", "json",
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c52aa4b80dfd2eb2a21562fc74449c820c7428a28e8d552ae6301417ace2a020")


def test_predict_near_transition(capsys):
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run_cli(capsys, "predict", *super_flags(0.505),
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)
    alpha = rep["derived"]["alpha"]
    with mpmath.workdps(30):
        a1 = mpmath.mpf(alpha) + 1
        want = float(mpmath.hyp3f2(1, 1, 1, a1, a1, 1))
    assert abs(rep["predictions"]["v_limit"] - want) / want <= 1e-13


def test_experiment_superdiffusive_near_transition(tmp_path):
    out = tmp_path / "sd.json"
    code = main(["experiment", "superdiffusive", *super_flags(0.55),
                 "-n", "64", "-t", "200", "--seed", "3", "-o", str(out)])
    assert code in (0, 1)  # gates may fail at this size; the run completes
    rep = json.loads(out.read_text())
    assert rep["results"]["v_limit"] > 1.0


def test_predict_simplex_violation_exit_2(capsys):
    code, _, err = run_cli(capsys, "predict", "-p", "0.5", "-q", "0.2",
                           "-r", "0.2", "--theta", "0.5")
    assert code == 2
    assert "simplex" in err


def test_predict_negative_alpha_exit_2(capsys):
    code, _, err = run_cli(capsys, "predict", "-p", "0.2", "-q", "0.6",
                           "-r", "0.2", "--theta", "0.5")
    assert code == 2


def test_predict_degenerate_exit_2(capsys):
    code, _, err = run_cli(capsys, "predict", "-p", "1", "-q", "0", "-r", "0",
                           "--theta", "0.3")
    assert code == 2
    assert "phi" in err


def test_simulate_csv_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "-n", "300", "-t", "400", "--seed", "9",
            "--snapshots", "100,300")
    assert main([*args, "-o", str(f1)]) == 0
    assert main([*args, "--workers", "4", "-o", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    head = b1.split(b"\r\n")[0].decode()
    assert head.startswith("n,count,mean_s")


def test_exact_csv_and_cap(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "exact", "-n", "64")
    assert code == 0
    assert out.splitlines()[0].startswith("n,mean_s,var_s,mean_z")
    code, _, err = run_cli(capsys, "exact", "-n", "500", "--distribution")
    assert code == 2
    assert "cap" in err.lower()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exact_first_row_has_no_scale(tmp_path, fmt):
    # the n = 1 row carries no variance scale (the critical n log n is 0
    # there): null in JSON, an empty field in CSV; every later row has one
    out = tmp_path / f"exact.{fmt}"
    assert main(["exact", "-n", "64", "--format", fmt, "-o", str(out)]) == 0
    if fmt == "json":
        rows, blank = json.loads(out.read_text())["results"]["moments"], None
    else:
        rows, blank = list(csv.DictReader(out.read_text().splitlines())), ""
    first, *later = rows
    assert str(first["n"]) == "1"
    assert first["predicted_scale"] == first["var_over_scale"] == blank
    assert later and all(row[key] not in (None, "") for row in later
                         for key in ("predicted_scale", "var_over_scale"))


# r = 0.2 + 9e-13: p + q + r is inside SIMPLEX_TOL of 1, so ModelParams
# accepts it, and 400 steps drift the DP's mass by 3.6e-10
EDGE_FLAGS = ["-p", "0.6", "-q", "0.2", "-r", "0.2000000000009", "-n", "400"]


@pytest.mark.parametrize("argv", [
    ["exact", *EDGE_FLAGS, "--distribution"],
    ["experiment", "clt", *EDGE_FLAGS, "-t", "0"],
])
def test_exact_law_at_the_simplex_edge_exit_0(tmp_path, argv):
    assert main([*argv, "-o", str(tmp_path / "out")]) == 0


def test_dp_cap_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "-n", "400", "--dp-cap", "500"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dp-cap 500" in capsys.readouterr().err


def test_exact_oversized_n_exit_2(capsys):
    # above exact.MOMENT_CAP, so refused before any work
    code, _, err = run_cli(capsys, "exact", "-n", str(10 ** 12))
    assert code == 2
    assert err.startswith("lapsewalk: error:")
    assert "1000000000000" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_distribution_above_dp_cap_refused_before_moments(
        capsys, monkeypatch, tmp_path, fmt):
    monkeypatch.setattr(cli, "exact_moments", _refuse_moments)
    out = tmp_path / "law"
    code, _, err = run_cli(capsys, "exact", "-n", str(exact.DP_CAP + 1),
                           "--distribution", "--format", fmt, "-o", str(out))
    assert code == 2
    assert err == (f"lapsewalk: error: n = {exact.DP_CAP + 1} above the DP cap "
                   f"{exact.DP_CAP} (O(n^3) cost)\n")
    assert not out.exists()


def test_exact_distribution_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "-n", "3", "--distribution",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)
    masses = {(d["s"], d["z"]): d["probability"]
              for d in rep["results"]["distribution"]}
    assert abs(sum(masses.values()) - 1.0) < 1e-12
    assert (3, 3) in masses


# two points of the GRID in test_exact.py
LAW_POINTS = [ModelParams(0.5, 0.5, 0.0, 0.3), ModelParams(0.3, 0.3, 0.4, 0.7)]


@pytest.mark.parametrize("params", LAW_POINTS)
@pytest.mark.parametrize("n", [1, 2, 37, 400])
def test_exact_distribution_matches_dict_route_bytes(tmp_path, params, n):
    """The row-formatted law has the bytes of the list of dicts it replaced."""
    flags = ["exact", "-p", repr(params.p), "-q", repr(params.q),
             "-r", repr(params.r), "--theta", repr(params.theta), "-n", str(n)]
    d = distribution_dp(params, n)
    cells = sorted(zip(d.s.tolist(), d.z.tolist(), d.probability.tolist()))
    for fmt in ("json", "csv"):
        base, law = tmp_path / f"base.{fmt}", tmp_path / f"law.{fmt}"
        assert main([*flags, "--format", fmt, "-o", str(base)]) == 0
        assert main([*flags, "--distribution", "--format", fmt,
                     "-o", str(law)]) == 0
        if fmt == "json":
            rep = json.loads(base.read_text())
            rep["results"]["distribution"] = [
                {"s": s, "z": z, "probability": w} for s, z, w in cells]
            want = emit_json(rep)
        else:
            want = base.read_bytes().decode() + "\r\n".join(csv_lines(
                ["s", "z", "probability"],
                [list(cell) for cell in cells])) + "\r\n"
        assert law.read_bytes() == want.encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exact_distribution_streams_its_rows(tmp_path, fmt):
    # the n = 400 law is 80,601 rows and 6.4 MB of JSON text; written a batch
    # at a time, the peak is the DP grid, the law's columns and one batch
    argv = ["exact", "-n", "400", "--distribution", "--format", fmt,
            "-o", str(tmp_path / "law")]
    assert main(argv) == 0  # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


def test_exact_distribution_non_finite_report_exit_2_and_no_file(
        capsys, monkeypatch, tmp_path):
    def nan_moments(params, n_max, ns):
        return [exact.ExactMoments(n=k, mean_s=float("nan"), mean_z=0.0,
                                   var_s=1.0, mean_sz=0.0) for k in ns]

    monkeypatch.setattr(cli, "exact_moments", nan_moments)
    out = tmp_path / "law.json"
    code, _, err = run_cli(capsys, "exact", "-n", "40", "--distribution",
                           "--format", "json", "-o", str(out))
    assert code == 2
    assert err.startswith("lapsewalk: error: report not written:")
    assert not out.exists()


def test_experiment_lln_report(tmp_path):
    out = tmp_path / "lln.json"
    code = main(["experiment", "lln", "-n", "1000", "-t", "400", "--seed",
                 "21", "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "lln"
    assert abs(rep["results"]["predicted"] - 0.25) < 1e-12
    assert abs(rep["results"]["z_predicted"] - 2.0 / 3.0) < 1e-12
    assert rep["pass"] is True
    # byte-identical rerun
    out2 = tmp_path / "lln2.json"
    main(["experiment", "lln", "-n", "1000", "-t", "400", "--seed", "21",
          "-o", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_experiment_gate_failure_exit_1(tmp_path):
    # at n = 5 the exact law is still far from normal: KS 0.112 against 0.03
    out = tmp_path / "clt.json"
    code = main(["experiment", "clt", "-n", "5", "-t", "0", "-o", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert [g["name"] for g in rep["gates"] if not g["pass"]] == ["exact_cdf_ks"]


@pytest.mark.parametrize("flag", [["--gate", "0.5"], ["--horizon-factor", "32"]])
def test_gate_and_horizon_flags_are_gone(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "superdiffusive", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_experiment_wrong_regime_exit_2(capsys):
    code, _, err = run_cli(capsys, "experiment", "critical", "-p", "0.6",
                           "-q", "0.2", "-r", "0.2", "--theta", "0.5",
                           "-n", "100", "-t", "50", "--seed", "1")
    assert code == 2
    assert "alpha" in err


def test_experiment_zero_workers_exit_2(capsys, tmp_path):
    out = tmp_path / "lln.json"
    code, _, err = run_cli(capsys, "experiment", "lln", "-n", "100", "-t", "50",
                           "--seed", "1", "--workers", "0", "-o", str(out))
    assert code == 2
    assert err.startswith("lapsewalk: error:") and "workers" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_superdiffusive_series_fails_before_sampling(capsys,
                                                                  monkeypatch):
    def series_fails(alpha):
        raise OutOfDomain(f"no convergence (alpha = {alpha!r})")

    def sampled(*args, **kwargs):
        raise AssertionError("trajectories simulated before v_limit failed")

    monkeypatch.setattr(experiments, "v_limit_superdiffusive", series_fails)
    monkeypatch.setattr(experiments, "residual_clt_sample", sampled)
    code, _, err = run_cli(capsys, "experiment", "superdiffusive", "-p", "0.9",
                           "-q", "0", "-r", "0.1", "--theta", "0.8",
                           "-n", "100", "-t", "50", "--seed", "1")
    assert code == 2
    assert "no convergence" in err


@pytest.mark.parametrize("kind, flags, why", [
    ("superdiffusive", [*super_flags(0.75), "-n", "100", "-t", "1"],
     "trajectories >= 10, got 1"),
    ("superdiffusive", [*super_flags(0.75), "-n", "100", "-t", "9"],
     "trajectories >= 10, got 9"),
    ("clt", ["-n", "100", "-t", "1"], "trajectories >= 10, got 1"),
    ("clt", ["-n", "100", "-t", "9"], "trajectories >= 10, got 9"),
    ("critical", [*super_flags(0.5), "-n", "100", "-t", "1"],
     "trajectories >= 10, got 1"),
    ("critical", [*super_flags(0.5), "-n", "100", "-t", "9"],
     "trajectories >= 10, got 9"),
    ("critical", [*super_flags(0.5), "-n", "1", "-t", "50"], "n >= 2"),
    ("clt", ["-n", "100", "-t", "-5"], "trajectories >= 10, got -5"),
    ("critical", [*super_flags(0.5), "-n", "50", "-t", "-1"],
     "trajectories >= 10, got -1"),
    ("clt", ["-p", "0", "-q", "0", "-r", "1"], "phi = 0"),
    ("critical", ["-p", "1", "-q", "0", "-r", "0", "--theta", "0.5"], "phi = 0"),
    ("superdiffusive", ["-p", "1", "-q", "0", "-r", "0", "--theta", "0.8"],
     "phi = 0"),
    ("lln", ["-n", "100", "-t", "1"], "trajectories >= 2, got 1"),
    ("superdiffusive", [*super_flags(0.75), "-n", "100", "-t", "50",
                        "--workers", "0"], "workers must be >= 1, got 0"),
    ("clt", ["-n", "100", "-t", "0", "--workers", "0"],
     "workers must be >= 1, got 0"),
    ("clt", ["-n", "1000", "-t", "0"], "n = 1000 above the DP cap 400"),
], ids=["superdiffusive-t1", "superdiffusive-t9", "clt-t1", "clt-t9",
        "critical-t1", "critical-t9", "critical-n1", "clt-t-5", "critical-t-1",
        "clt-phi0", "critical-phi0", "superdiffusive-phi0", "lln-t1",
        "superdiffusive-workers0", "clt-t0-workers0", "clt-t0-above-dp-cap"])
def test_experiment_refused_before_any_work(capsys, monkeypatch, tmp_path,
                                            kind, flags, why):
    monkeypatch.setattr(ensemble, "run_ensemble", _refuse_moments)
    monkeypatch.setattr(experiments, "run_ensemble", _refuse_moments)
    monkeypatch.setattr(exact, "exact_moments", _refuse_moments)
    monkeypatch.setattr(experiments, "exact_moments", _refuse_moments)
    monkeypatch.setattr(experiments, "v_limit_superdiffusive", _refuse_moments)
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "experiment", kind, *flags, "--seed", "1",
                           "-o", str(out))
    assert code == 2
    assert err.startswith("lapsewalk: error:") and why in err
    assert "Traceback" not in err
    assert not out.exists()


def test_regime_scan_below_first_fitted_n_exit_2(capsys):
    code, _, err = run_cli(capsys, "experiment", "regime-scan",
                           "--n-max", "512")
    assert code == 2
    assert err.startswith("lapsewalk: error:")
    assert "--n-max" in err and "1024" in err
    assert "Traceback" not in err


def test_regime_scan_at_p_equal_q_exit_2(capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("moments computed before p = q was refused")

    monkeypatch.setattr(experiments, "exact_moments", computed)
    code, _, err = run_cli(capsys, "experiment", "regime-scan", "-p", "0.5",
                           "-q", "0.5", "-r", "0", "--alphas", "0.2")
    assert code == 2
    assert err.startswith("lapsewalk: error:") and "p = q" in err
    assert "Traceback" not in err


def _refuse_moments(*args, **kwargs):
    raise AssertionError("moments computed before the input was refused")


@pytest.mark.parametrize("n_max, points", [("1024", 1), ("2048", 2), ("4095", 2)])
def test_regime_scan_below_three_fit_points_exit_2(tmp_path, capsys,
                                                    monkeypatch, n_max, points):
    monkeypatch.setattr(experiments, "exact_moments", _refuse_moments)
    out = tmp_path / "scan.json"
    code, _, err = run_cli(capsys, "experiment", "regime-scan",
                           "--n-max", n_max, "-o", str(out))
    assert code == 2
    assert err == (f"lapsewalk: error: --n-max = {n_max} leaves {points} dyadic "
                   "n from 1024 up; the log-log fit needs 3, so n_max >= 4096\n")
    assert not out.exists()


@pytest.mark.parametrize("plot", [False, True])
def test_regime_scan_empty_alphas_exit_2(tmp_path, capsys, monkeypatch, plot):
    monkeypatch.setattr(experiments, "exact_moments", _refuse_moments)
    out, svg = tmp_path / "scan.json", tmp_path / "scan.svg"
    argv = ["experiment", "regime-scan", "--alphas", ",", "-o", str(out)]
    code, _, err = run_cli(capsys, *argv, *(["--plot", str(svg)] if plot else []))
    assert code == 2
    assert err == "lapsewalk: error: --alphas: no alpha values to scan\n"
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("pq, alphas, alpha, beta", [
    (("0.6", "0.2"), "0.1,0.5", "0.5", "0.39999999999999997"),  # theta > 1
    (("0.6", "0.2"), "0.1,-0.1", "-0.1", "0.39999999999999997"),  # theta < 0
    (("0.2", "0.6"), "0.1", "0.1", "-0.39999999999999997"),  # p < q
])
def test_regime_scan_unreachable_alpha_exit_2(tmp_path, capsys, monkeypatch,
                                              pq, alphas, alpha, beta):
    # refused before the first alpha's moments, naming the alpha and p - q
    monkeypatch.setattr(experiments, "exact_moments", _refuse_moments)
    out = tmp_path / "scan.json"
    code, _, err = run_cli(capsys, "experiment", "regime-scan", "-p", pq[0],
                           "-q", pq[1], f"--alphas={alphas}", "--n-max", "4096",
                           "-o", str(out))
    assert code == 2
    assert err == (f"lapsewalk: error: --alphas: no theta in [0, 1) gives alpha "
                   f"= {alpha} = (p - q) theta at p - q = {beta}\n")
    assert not out.exists()


def test_regime_scan_defaults_run(tmp_path):
    # the default --alphas are all reachable at the default p - q = 0.4
    out = tmp_path / "scan.json"
    assert main(["experiment", "regime-scan", "--n-max", "4096", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert [g["name"] for g in rep["gates"]] == [
        "slope_alpha_0.1", "slope_alpha_0.25", "slope_alpha_0.35"]


def test_regime_scan_repeated_alpha_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "exact_moments", _refuse_moments)
    out = tmp_path / "scan.json"
    code, _, err = run_cli(capsys, "experiment", "regime-scan", "--alphas",
                           "0.1,0.2,0.2", "--n-max", "4096", "-o", str(out))
    assert code == 2
    assert err == "lapsewalk: error: --alphas: 0.2 is listed more than once\n"
    assert not out.exists()


def test_regime_scan_gate_names_tell_close_alphas_apart(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["experiment", "regime-scan", "--alphas", "0.2,0.2000001",
                 "--n-max", "4096", "-o", str(out)]) == 0
    names = [g["name"] for g in json.loads(out.read_text())["gates"]]
    assert names == ["slope_alpha_0.2", "slope_alpha_0.2000001"]


def test_malformed_alphas_exit_2(capsys):
    code, _, err = run_cli(capsys, "experiment", "regime-scan",
                           "--alphas", "0.1,abc", "--n-max", "1024")
    assert code == 2
    assert err == "lapsewalk: error: --alphas: 'abc' is not a valid float\n"


def test_malformed_snapshots_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "-n", "10", "-t", "5",
                           "--snapshots", "1,x")
    assert code == 2
    assert err == "lapsewalk: error: --snapshots: 'x' is not a valid int\n"
    # no times at all is refused, not read as the dyadic default
    code, out, err = run_cli(capsys, "simulate", "-n", "10", "-t", "5",
                             "--snapshots", ",")
    assert (code, out) == (2, "")
    assert err == ("lapsewalk: error: snapshots must be one or more times in "
                   "[1, n_steps]\n")


def test_experiment_csv_and_plot(tmp_path):
    rep = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    code = main(["experiment", "lln", "-n", "512", "-t", "200", "--seed", "2",
                 "-o", str(rep), "--csv", str(csv), "--plot", str(svg)])
    assert code == 0
    assert csv.read_text().startswith("n,")
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "polyline" in text


def test_experiment_driver_looked_up_when_called(monkeypatch, tmp_path):
    # a driver replaced on the experiments module (as tracing does) must run
    calls = []
    real = experiments.lln_experiment

    def spy(*args, **kwargs):
        calls.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "lln_experiment", spy)
    assert main(["experiment", "lln", "-n", "512", "-t", "200", "--seed", "2",
                 "-o", str(tmp_path / "r.json")]) == 0
    assert calls == [(512, 200, 2)]


@pytest.mark.parametrize("kind, driver, flags", [
    ("lil-diagnostic", "lil_experiment", ["--n-max", "64"]),
    ("clt", "clt_experiment", ["-n", "64"]),
])
def test_experiment_csv_without_table_exit_2(capsys, monkeypatch, tmp_path,
                                              kind, driver, flags):
    def sampled(*args, **kwargs):
        raise AssertionError("experiment ran before --csv was refused")

    monkeypatch.setattr(experiments, driver, sampled)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", kind, *flags, "-t", "10", "-o", str(out),
              "--csv", str(csv)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --csv {csv}" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


# experiment kind -> the flags it reads besides --plot and -o, and
# the flags of other kinds that it refuses
KIND_FLAGS = {
    "lln": ("-p -q -r --theta -n -t --seed --workers --csv",
            "--snapshots --alphas --n-max"),
    "clt": ("-p -q -r --theta -n -t --seed --workers",
            "--snapshots --alphas --n-max --csv"),
    "critical": ("-p -q -r --theta -n -t --seed --workers",
                 "--snapshots --alphas --n-max --csv"),
    "superdiffusive": ("-p -q -r --theta -n -t --seed --workers",
                       "--snapshots --alphas --n-max --csv"),
    "regime-scan": ("-p -q -r --alphas --n-max --csv",
                    "--theta -n -t --seed --snapshots --workers"),
    "lil-diagnostic": ("-p -q -r --theta -t --seed --workers --n-max",
                       "-n --snapshots --alphas --csv"),
}
REFUSED = [(kind, flag) for kind, (_, refused) in KIND_FLAGS.items()
           for flag in refused.split()]


@pytest.mark.parametrize("kind", KIND_FLAGS)
def test_experiment_kind_takes_the_flags_it_reads(kind):
    flags = [*KIND_FLAGS[kind][0].split(), "--plot", "-o"]
    args = build_parser().parse_args(
        ["experiment", kind, *(tok for flag in flags for tok in (flag, "1"))])
    assert args.kind == kind


@pytest.mark.parametrize("kind, flag", REFUSED,
                         ids=[f"{kind}{flag}" for kind, flag in REFUSED])
def test_experiment_flag_the_kind_does_not_read_exit_2(capsys, monkeypatch,
                                                       tmp_path, kind, flag):
    def ran(*args, **kwargs):
        raise AssertionError(f"experiment ran before {flag} was refused")

    for driver in ("lln_experiment", "clt_experiment", "critical_experiment",
                   "superdiffusive_experiment", "regime_scan_experiment",
                   "lil_experiment"):
        monkeypatch.setattr(experiments, driver, ran)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", kind, flag, "1", "-o", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, driver, flags, why", [
    ("clt", "clt_experiment", ["-n", "100", "-t", "0"],
     "no Monte Carlo ECDF at trajectories = 0"),
    ("critical", "critical_experiment",
     ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.5 / 0.9),
      "-n", "100", "-t", "0"],
     "no Monte Carlo ECDF at trajectories = 0"),
    ("superdiffusive", "superdiffusive_experiment",
     ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.75 / 0.9),
      "-n", "32", "-t", "10"],
     "fewer than 4 dyadic n in [1024, horizon_factor * n = 512] for the "
     "slope fit"),
])
def test_experiment_plot_with_nothing_to_draw_exit_2(capsys, monkeypatch,
                                                     tmp_path, kind, driver,
                                                     flags, why):
    def sampled(*args, **kwargs):
        raise AssertionError("experiment ran before --plot was refused")

    monkeypatch.setattr(experiments, driver, sampled)
    out, svg = tmp_path / "r.json", tmp_path / "r.svg"
    code, _, err = run_cli(capsys, "experiment", kind, *flags,
                           "-o", str(out), "--plot", str(svg))
    assert code == 2
    assert err == (f"lapsewalk: error: --plot: experiment {kind} has nothing "
                   f"to draw: {why}\n")
    assert not out.exists() and not svg.exists()


def test_experiment_superdiffusive_plot_at_four_dyadic_points(tmp_path):
    # 16 * 256 = 4096 reaches 1024, 2048 and 4096 only: refused; 16 * 512
    # adds 8192, the fourth point, and the plot is written
    args = ["experiment", "superdiffusive", "-p", "0.9", "-q", "0", "-r", "0.1",
            "--theta", repr(0.75 / 0.9), "-t", "50", "-o", str(tmp_path / "r.json")]
    svg = tmp_path / "r.svg"
    assert main([*args, "-n", "256", "--plot", str(svg)]) == 2
    assert not svg.exists()
    assert main([*args, "-n", "512", "--plot", str(svg)]) in (0, 1)
    assert "polyline" in svg.read_text()


def test_simulate_oversized_n_exit_2(capsys):
    # above ensemble.STEPS_CAP = 2**53, so refused before any step is walked
    code, out, err = run_cli(capsys, "simulate", "-n", str(10 ** 20), "-t", "1")
    assert code == 2
    assert out == ""
    assert err == ("lapsewalk: error: n_steps = 100000000000000000000 above "
                   "the step cap 9007199254740992 (float64 step counts)\n")


def run_refused(capsys, *argv):
    """Exit code and stderr of a command line argparse or main refuses."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_config_file_precedence(tmp_path, capsys):
    # an argument file is read in its place: a later -n wins either way
    args = tmp_path / "base.args"
    args.write_text("# small lln run\n-n 64 -t 10  # n and t\n\n   \n--seed 3\n")
    for argv, n in ([f"@{args}", "-n", "500"], 500), (["-n", "500", f"@{args}"], 64):
        code, out, _ = run_cli(capsys, "experiment", "lln", *argv)
        assert code == 0
        assert json.loads(out)["config"] == {"n_steps": n, "n_traj": 10,
                                             "master_seed": 3, "workers": 1}


@pytest.mark.parametrize("command, allowed", [("predict", "text, json"),
                                              ("simulate", "csv, json")])
def test_config_format_outside_choices_exit_2(tmp_path, capsys, command,
                                              allowed):
    args = tmp_path / "run.args"
    args.write_text("--theta 0.3\n--format xml\n")
    out = tmp_path / "out"
    code, err = run_refused(capsys, command, f"@{args}", "-o", str(out))
    assert code == 2
    assert "argument --format: invalid choice: 'xml'" in err
    assert all(choice in err for choice in allowed.split(", "))
    assert not out.exists()


@pytest.mark.parametrize("lines, why", [
    ("--seed 3\n-n abc\n", "argument -n/--steps: invalid int value: 'abc'"),
    ("-n 10\n--trajectoris 10\n", "unrecognized arguments: --trajectoris 10"),
    (None, "No such file or directory"),
    ("--snapshots '10,20\n", "No closing quotation"),
], ids=["bad-value", "unknown-flag", "missing-file", "unclosed-quote"])
def test_argument_file_refused_exit_2(tmp_path, capsys, monkeypatch, lines, why):
    monkeypatch.setattr(experiments, "run_ensemble", _refuse_moments)
    args, out = tmp_path / "run.args", tmp_path / "out.csv"
    if lines is not None:
        args.write_text(lines)
    code, err = run_refused(capsys, "simulate", f"@{args}", "-o", str(out))
    assert code == 2
    assert "lapsewalk" in err and why in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind, line", [("lln", "--n-max 5"),
                                        ("lln", "--format json"),
                                        ("regime-scan", "--seed 3")],
                         ids=["lln-n-max", "lln-format", "regime-scan-seed"])
def test_argument_file_flag_the_kind_does_not_read_exit_2(tmp_path, capsys,
                                                          kind, line):
    # per-kind refusal holds for a file's words as for typed flags
    args, out = tmp_path / "run.args", tmp_path / "r.json"
    args.write_text(f"-p 0.6\n{line}\n")
    code, err = run_refused(capsys, "experiment", kind, f"@{args}", "-o", str(out))
    assert code == 2
    assert f"unrecognized arguments: {line}" in err
    assert not out.exists()


def test_readme_command_lines_parse(tmp_path):
    # every example in README's Command line block names flags that exist;
    # its argument file is written out first, and @NAME points at the copy
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    sample = section.split("```text\n", 1)[1].split("```", 1)[0]
    name = sample.splitlines()[0].removeprefix("# ")
    (tmp_path / name).write_text(sample)
    lines = [line for line in block.splitlines() if line.startswith("lapsewalk ")]
    assert f"@{name}" in lines[-1]
    for line in lines:
        argv = [f"@{tmp_path}/{tok[1:]}" if tok.startswith("@") else tok
                for tok in shlex.split(line)[1:]]
        assert build_parser().parse_args(argv).command == argv[0]


def test_json_roundtrip():
    obj = {"schema_version": "1", "x": 0.1 + 0.2, "nested": {"k": [1, 2.5]}}
    assert json.loads(emit_json(obj)) == obj


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_emit_json_refuses_non_finite(value):
    with pytest.raises(InvalidState):
        emit_json({"results": {"nested": [1.0, value]}})


def test_bare_value_error_in_an_experiment_is_not_exit_2(monkeypatch, tmp_path):
    # only typed failures exit 2: a ValueError from a bug stays a traceback
    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(experiments, "lln_experiment", broken)
    out = tmp_path / "r.json"
    with pytest.raises(ValueError, match="math domain error"):
        main(["experiment", "lln", "-o", str(out)])
    assert not out.exists()


def test_non_finite_report_exit_2_and_no_file(capsys, monkeypatch, tmp_path):
    def nan_report(*args, **kwargs):
        return {"kind": "lln", "results": {"mean_s_over_n": float("nan")},
                "gates": [], "pass": True}

    monkeypatch.setattr(experiments, "lln_experiment", nan_report)
    out = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "experiment", "lln", "-o", str(out))
    assert code == 2
    assert err.startswith("lapsewalk: error:") and "Traceback" not in err
    assert not out.exists()


def test_regime_scan_at_two_alpha_minus_one(tmp_path):
    # the Var S recursion's n = 1 factor 1 + 2 alpha is exactly 0 here
    out = tmp_path / "scan.json"
    assert main(["experiment", "regime-scan", "-p", "0", "-q", "1", "-r", "0",
                 "--alphas=-0.5", "--n-max", "4096", "-o", str(out)]) == 0
    (gate,) = json.loads(out.read_text())["gates"]
    assert gate["pass"] is True and abs(gate["value"] - 1.0) < 1e-4


def test_regime_scan_cli(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["experiment", "regime-scan", "-p", "0.9", "-q", "0.05",
                 "-r", "0.05", "--alphas", "0.2,0.75", "--n-max", "16384",
                 "-o", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    rows = rep["results"]["scan"]
    assert [row["regime"] for row in rows] == ["diffusive", "superdiffusive"]
    assert rep["pass"] is True
