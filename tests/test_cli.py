import hashlib
import json

import pytest

from lapsewalk import experiments
from lapsewalk.cli import main
from lapsewalk.errors import TooSlowConvergence
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


def test_exact_oversized_n_exit_2(capsys):
    # above exact.MOMENT_CAP, so refused before any work
    code, _, err = run_cli(capsys, "exact", "-n", str(10 ** 12))
    assert code == 2
    assert err.startswith("lapsewalk: error:")
    assert "1000000000000" in err


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
    cells = sorted(distribution_dp(params, n).mass.items())
    for fmt in ("json", "csv"):
        base, law = tmp_path / f"base.{fmt}", tmp_path / f"law.{fmt}"
        assert main([*flags, "--format", fmt, "-o", str(base)]) == 0
        assert main([*flags, "--distribution", "--format", fmt,
                     "-o", str(law)]) == 0
        if fmt == "json":
            rep = json.loads(base.read_text())
            rep["results"]["distribution"] = [
                {"s": s, "z": z, "probability": w} for (s, z), w in cells]
            want = emit_json(rep)
        else:
            want = base.read_bytes().decode() + "\r\n".join(csv_lines(
                ["s", "z", "probability"],
                [[s, z, w] for (s, z), w in cells])) + "\r\n"
        assert law.read_bytes() == want.encode()


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
    out = tmp_path / "clt.json"
    code = main(["experiment", "clt", "-n", "200", "-t", "300", "--seed",
                 "4", "--gate", "1e-9", "-o", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False


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
    def series_fails(alpha, tol):
        raise TooSlowConvergence(f"no convergence (alpha = {alpha!r})")

    def sampled(*args, **kwargs):
        raise AssertionError("trajectories simulated before v_limit failed")

    monkeypatch.setattr(experiments, "v_limit_superdiffusive", series_fails)
    monkeypatch.setattr(experiments, "estimate_w", sampled)
    code, _, err = run_cli(capsys, "experiment", "superdiffusive", "-p", "0.9",
                           "-q", "0", "-r", "0.1", "--theta", "0.8",
                           "-n", "100", "-t", "50", "--seed", "1")
    assert code == 2
    assert "no convergence" in err


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
    code, _, err = run_cli(capsys, "experiment", kind, *flags, "-t", "10",
                           "-o", str(out), "--csv", str(csv))
    assert code == 2
    assert err == (f"lapsewalk: error: --csv: experiment {kind} has no "
                   "per-row table\n")
    assert not out.exists() and not csv.exists()


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


@pytest.mark.parametrize("command, allowed", [("predict", "text, json"),
                                              ("simulate", "csv, json")])
def test_config_format_outside_choices_exit_2(tmp_path, capsys, command,
                                              allowed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 10\nformat = xml\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "-o", str(out))
    assert code == 2
    assert err == (f"lapsewalk: error: {cfg}:2: format = 'xml' is not one of "
                   f"{allowed} for {command}\n")
    assert not out.exists()


def test_config_format_read_when_valid_and_ignored_by_experiment(tmp_path,
                                                                 capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, out, _ = run_cli(capsys, "predict", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["command"] == "predict"
    cfg.write_text("format = text\n")  # experiment has no --format to check
    code, out, _ = run_cli(capsys, "experiment", "lln", "--config", str(cfg),
                           "-n", "64", "-t", "10")
    assert code == 0
    assert json.loads(out)["kind"] == "lln"


def test_config_bad_value_names_file_key_and_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nsteps = abc\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "-t", "5")
    assert code == 2
    assert err == (f"lapsewalk: error: {cfg}:2: steps = 'abc' is not a "
                   "valid int\n")


def test_config_unknown_key_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# shared by every subcommand\nsteps = 10\n"
                   "trajectoris = 10\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert err == f"lapsewalk: error: {cfg}:3: unknown key 'trajectoris'\n"


def test_config_keys_of_other_subcommands_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alphas = 0.2,0.75\nn-max = 1024\nhorizon_factor = 32\n"
                   "steps = 100\ntrajectories = 7\n")
    code, out, _ = run_cli(capsys, "predict", "--config", str(cfg),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["derived"]["regime"] == "diffusive"


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "p = 0.95\nq = 0.05\nr = 0\ntheta = 0.9\n"
        "steps = 123\n"
    )
    code, out, _ = run_cli(capsys, "predict", "--config", str(cfg),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["derived"]["regime"] == "superdiffusive"
    # flag beats config
    code, out, _ = run_cli(capsys, "predict", "--config", str(cfg),
                           "--theta", "0.2", "--format", "json")
    assert code == 0
    assert json.loads(out)["derived"]["regime"] == "diffusive"


def test_json_roundtrip():
    obj = {"schema_version": "1", "x": 0.1 + 0.2, "nested": {"k": [1, 2.5]}}
    assert json.loads(emit_json(obj)) == obj


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
