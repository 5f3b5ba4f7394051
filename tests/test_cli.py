import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from bestarm import cli, presets
from bestarm.cli import build_instance, main, parse_grid
from bestarm.errors import BestArmError
from bestarm.fc_algos import ExplorationRate, eval_rate
from bestarm.harness import AlgorithmSpec, ExperimentConfig, ExperimentRecord, run_fb_experiment
from bestarm.instances import two_armed_bernoulli
from bestarm.records_io import (
    CSV_HEADER,
    read_records,
    records_to_csv,
    write_records,
)
from bestarm.rng import make_rng, row_states


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "bestarm", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def parse_row(line):
    return {k: v for k, v in (item.split("=", 1) for item in line.split())}


# --- parsing helpers -----------------------------------------------------------

def test_parse_grid_range_inclusive():
    grid = parse_grid("100:1000:100", integer=True)
    assert grid == tuple(float(v) for v in range(100, 1001, 100))
    assert len(grid) == 10
    assert parse_grid("20:200:20", integer=True) == tuple(float(v) for v in range(20, 201, 20))


def test_parse_grid_comma_list():
    assert parse_grid("0.1,0.01,0.001") == (0.1, 0.01, 0.001)
    assert parse_grid("1e5", integer=True) == (100000.0,)
    assert parse_grid(f"10,20,{2**53}", integer=True) == (10.0, 20.0, float(2**53))


def test_parse_grid_rejects_bad_input():
    with pytest.raises(BestArmError):
        parse_grid("")
    with pytest.raises(BestArmError):
        parse_grid("10:1:5")
    # budgets are read exactly: 2**53 + 1 has no float of its own, and a
    # fraction just above 2**52 rounds to an integer float
    for text in ("1.5,2.5", "9007199254740993", "4503599627370496.6",
                 "1:9007199254740993:1", "0:10:2.5", "nan"):
        with pytest.raises(BestArmError):
            parse_grid(text, integer=True)


def test_build_instance_families():
    inst = build_instance("exponential", [2.0, 1.0], None)
    assert inst.means == pytest.approx((2.0, 1.0))
    with pytest.raises(BestArmError):
        build_instance("gaussian", [0.5, 0.0], None)  # missing variances
    with pytest.raises(BestArmError):
        build_instance("laplace", [0.5, 0.0], None)


# --- complexity / bound ----------------------------------------------------------

def test_cli_complexity_easy_kappa():
    code, out, _ = run_cli("complexity", "--family", "gaussian",
                           "--means", "0.5,0", "--variances", "0.25,0.25")
    assert code == 0
    row = parse_row(out.strip())
    assert float(row["kappa_C_lower"]) == 8.0
    assert float(row["c_star_fc"]) == 0.125


def test_cli_complexity_hard_kappa():
    code, out, _ = run_cli("complexity", "--family", "gaussian",
                           "--means", "0.01,0", "--variances", "0.25,0.25")
    assert code == 0
    assert float(parse_row(out.strip())["kappa_C_lower"]) == 20000.0


def test_cli_bound_exit_code_on_domain_error():
    code, out, err = run_cli("bound", "--family", "gaussian", "--means", "0.5,0",
                             "--variances", "0.25,0.25", "--delta", "0.5")
    assert code == 2
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_cli_bound_values():
    code, out, _ = run_cli("bound", "--family", "gaussian", "--means", "0.5,0",
                           "--variances", "0.25,0.25", "--delta", "0.05",
                           "--budget", "50")
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(rows["fc_general"]) == pytest.approx(9.21034037198, rel=1e-9)
    assert float(rows["fb_error_m1"]) > 0


def test_cli_unknown_family_is_usage_error():
    code, _, _ = run_cli("complexity", "--family", "cauchy", "--means", "1,0")
    assert code == 2


# --- CSV persistence ---------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(two_armed_bernoulli(0.2, 0.1),
                           AlgorithmSpec("static", allocation="uniform"),
                           (50.0, 100.0), 300, 77)
    records = run_fb_experiment(cfg)
    path = tmp_path / "records.csv"
    write_records(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    parsed = read_records(str(path))
    assert len(parsed) == len(records)
    for a, b in zip(parsed, records):
        assert (a.algorithm, a.instance, a.family, a.param) == (
            b.algorithm, b.instance, b.family, b.param)
        assert a.replications == b.replications
        assert a.exhausted_count == b.exhausted_count
        assert a.master_seed == b.master_seed
    # round-trip is exact at the serialized 12-significant-digit precision
    assert records_to_csv(parsed) == text


def test_csv_columns_are_the_record_fields_in_order():
    names = [f.name for f in dataclasses.fields(ExperimentRecord)]
    header = CSV_HEADER.split(",")
    assert len(header) == len(names)
    renamed = {"grid_value": "metric_grid_value", "master_seed": "seed"}
    assert header == [renamed.get(name, name) for name in names]


@pytest.mark.parametrize("row", [
    "a,b,c", "a,b,c,d,0.1,5,0,0,x,0,0,1", "a,b,c,d,0.1,5.5,0,0,2,0,0,1",
], ids=["width", "float-cell", "int-cell"])
def test_read_records_rejects_a_malformed_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    with pytest.raises(BestArmError, match="malformed record row"):
        read_records(str(path))


def test_figure_presets_keep_their_order():
    assert presets.FIGURE_PRESETS == ("fig3-easy", "fig3-hard", "fig4-left", "fig4-right")
    with pytest.raises(ValueError, match="unknown figure preset"):
        presets.figure_configs("fig5", 1, 0)


def test_simulate_fb_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1",
            "--alloc", "uniform", "--budgets", "100:300:100",
            "--reps", "200", "--seed", "7"]
    assert run_cli(*args, "--out", str(out1))[0] == 0
    assert run_cli(*args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(read_records(str(out1))) == 3


def test_simulate_fc_cli(tmp_path):
    out = tmp_path / "fc.csv"
    code, _, _ = run_cli("simulate-fc", "--family", "gaussian",
                         "--means", "0.5,0", "--variances", "0.25,0.25",
                         "--algo", "elimination", "--rate", "plain-log",
                         "--deltas", "0.1,0.05", "--reps", "150",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    records = read_records(str(out))
    assert [r.grid_value for r in records] == [0.1, 0.05]
    assert all(r.algorithm == "elimination[plain-log]" for r in records)


def test_simulate_missing_required_is_error(tmp_path):
    code, _, err = run_cli("simulate-fb", "--family", "bernoulli",
                           "--means", "0.2,0.1", "--reps", "10")
    assert code == 2
    assert "missing required" in err


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "instance": {"family": "bernoulli", "means": [0.2, 0.1]},
        "algorithm": {"kind": "static", "allocation": "uniform"},
        "grid": [100, 200],
        "replications": 100,
        "master_seed": 5,
    }))
    out1 = tmp_path / "from_config.csv"
    code, _, _ = run_cli("simulate-fb", "--config", str(cfg_path), "--out", str(out1))
    assert code == 0
    records = read_records(str(out1))
    assert [r.grid_value for r in records] == [100.0, 200.0]
    assert records[0].master_seed == 5
    # a flag overrides the config value
    out2 = tmp_path / "override.csv"
    code, _, _ = run_cli("simulate-fb", "--config", str(cfg_path),
                         "--seed", "9", "--out", str(out2))
    assert code == 0
    assert read_records(str(out2))[0].master_seed == 9


def test_lil_check_cli():
    code, out, _ = run_cli("lil-check", "--x", "3", "--beta", "1.5",
                           "--horizon", "200", "--paths", "200", "--seed", "1")
    assert code == 0
    row = parse_row(out.strip())
    assert float(row["empirical_frequency"]) <= 1.0
    assert float(row["deviation_bound"]) > 0


def test_reproduce_figure_smoke(tmp_path):
    out = tmp_path / "fig.csv"
    code, _, _ = run_cli("reproduce-figure", "fig3-easy", "--reps", "5",
                         "--seed", "1", "--out", str(out))
    assert code == 0
    records = read_records(str(out))
    algorithms = {r.algorithm for r in records}
    assert "sprt[exact]" in algorithms
    assert "static[uniform]" in algorithms
    assert any(a.startswith("elimination[") for a in algorithms)


def test_reproduce_figure_all_matches_single_runs(tmp_path, capsys):
    assert main(["reproduce-figure", "all", "--reps", "3", "--seed", "5",
                 "--out", str(tmp_path / "{figure}.csv")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(presets.FIGURE_PRESETS)
    for name in presets.FIGURE_PRESETS:
        single = tmp_path / f"single-{name}.csv"
        assert main(["reproduce-figure", name, "--reps", "3", "--seed", "5",
                     "--out", str(single)]) == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == single.read_bytes()


def test_reproduce_figure_runs_a_repeated_name_once(tmp_path, capsys):
    out = tmp_path / "once.csv"
    assert main(["reproduce-figure", "fig3-easy", "fig3-easy", "--reps", "3",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {len(read_records(str(out)))} records to {out}\n"


def test_several_figures_need_figure_in_out(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["reproduce-figure", "fig3-easy", "fig4-left", "--reps", "3",
                 "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "--out" in err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_FB_BERNOULLI = ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1",
                 "--budgets", "100", "--reps", "3", "--seed", "4"]


@pytest.mark.parametrize("argv, path", [
    (["reproduce-figure", "fig3-easy", "fig3-hard", "--reps", "3", "--out", "{figure}/r.csv"],
     "fig3-hard/r.csv"),
    ([*_FB_BERNOULLI, "--out", "fig3-hard/r.csv"], "fig3-hard/r.csv"),
    ([*_FB_BERNOULLI, "--out", "fig3-easy"], "fig3-easy"),
], ids=["reproduce-figure", "simulate-fb", "out-is-a-directory"])
def test_missing_out_directory_fails_before_any_run(tmp_path, monkeypatch, capsys, argv,
                                                    path):
    # fig3-easy's directory exists and fig3-hard's does not: no figure runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3-easy").mkdir()

    def run_experiments(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli.harness, "run_experiments", run_experiments)
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(path) in err
    assert captured.out == ""
    assert [p.name for p in tmp_path.rglob("*")] == ["fig3-easy"]


def test_lil_check_lists_print_each_pair_in_x_major_order(capsys):
    run = ["--horizon", "200", "--paths", "200", "--seed", "1"]
    assert main(["lil-check", "--x", "3,5", "--beta", "1.5,2", *run]) == 0
    lines = capsys.readouterr().out
    singles = ""
    for x in ("3", "5"):
        for beta in ("1.5", "2"):
            assert main(["lil-check", "--x", x, "--beta", beta, *run]) == 0
            singles += capsys.readouterr().out
    assert lines == singles and len(lines.splitlines()) == 4


def test_lil_check_with_an_envelope_past_the_doubles_warns_nothing(capsys):
    # x = 1e308 makes 2 t (x + ...) overflow: an infinite envelope, never crossed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lil-check", "--x", "1e308", "--beta", "1.5", "--horizon", "100",
                     "--paths", "5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "empirical_frequency=0\n" in captured.out


def test_readme_commands_parse():
    # every bestarm command line of README's sh blocks parses, unrun
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("bestarm ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_workers_env_fallback(tmp_path):
    out = tmp_path / "env.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bestarm", "simulate-fb", "--family", "bernoulli",
         "--means", "0.2,0.1", "--budgets", "100", "--reps", "120",
         "--seed", "4", "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "BAI_WORKERS": "2"})
    assert proc.returncode == 0
    assert len(read_records(str(out))) == 1


def test_cli_run_leaves_no_worker_behind(tmp_path):
    out = tmp_path / "fig3.csv"
    with subprocess.Popen(
            [sys.executable, "-m", "bestarm", "reproduce-figure", "fig3-easy", "--reps", "4",
             "--workers", "2", "--out", str(out)],
            stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert read_records(str(out))
    # the run led its own process group; not one of its workers is left in it
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("flags, env", [
    (["--workers", "0"], None),
    (["--workers", "-2"], "3"),
    ([], "abc"),
    ([], "0"),
])
def test_bad_worker_count_is_usage_error(tmp_path, monkeypatch, capsys, flags, env):
    if env is None:
        monkeypatch.delenv("BAI_WORKERS", raising=False)
    else:
        monkeypatch.setenv("BAI_WORKERS", env)
    out = tmp_path / "w.csv"
    code = main(["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1",
                 "--budgets", "100", "--reps", "10", "--seed", "4",
                 "--out", str(out), *flags])
    err = capsys.readouterr().err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_import_defers_what_few_commands_use():
    # importing the CLI loads none of these; the paths that do stay covered:
    # the pool by test_cli_run_leaves_no_worker_behind, test_workers_env_fallback
    # and the pool tests in tests/test_harness.py, bounds by test_cli_bound_values,
    # json by test_config_file_with_flag_override and
    # test_malformed_config_is_usage_error, and fractions (with decimal) by
    # test_parse_grid_comma_list and test_parse_grid_rejects_bad_input
    deferred = ("concurrent.futures", "multiprocessing", "fractions", "decimal", "json",
                "bestarm.bounds")
    code = ("import sys; before = set(sys.modules); import bestarm.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "bestarm.cli" in loaded
    assert loaded.isdisjoint(deferred)


_NEAR_TIE = ["--means", "0.5,0.4999999999"]


@pytest.mark.parametrize("argv", [
    ["--family", "gaussian", *_NEAR_TIE, "--variances", "0.25,0.25", "--algo", "sprt"],
    ["--family", "gaussian", *_NEAR_TIE, "--variances", "0.25,0.25",
     "--algo", "elimination", "--rate", "robbins"],
    ["--family", "gaussian", *_NEAR_TIE, "--variances", "0.25,0.25",
     "--algo", "alpha-elimination", "--rate", "alpha-elim"],
    ["--family", "bernoulli", *_NEAR_TIE, "--algo", "sglrt", "--rate", "sglrt"],
    ["--family", "gaussian", "--means", "0.5,0", "--variances", "0.25,0.25",
     "--algo", "sprt", "--tau-max", "99999999999999999999"],
], ids=["sprt", "elimination", "alpha-elimination", "sglrt", "given-cap"])
def test_cap_above_2_53_is_usage_error_at_once(tmp_path, argv):
    # a near tie's default cap is about 1e22 draws: such a run would never end
    out = tmp_path / "tie.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bestarm", "simulate-fc", *argv, "--deltas", "0.1",
         "--reps", "2", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=30)
    err = proc.stderr.strip()
    assert proc.returncode == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "tau_max" in err and "--tau-max" in err
    assert not out.exists()


def test_seed_outside_64_bits_is_usage_error(tmp_path, capsys):
    # make_rng reads a seed mod 2**64: 5 + 2**64 and 5 - 2**65 would write
    # seed 5's statistics under their own seeds
    assert main(["reproduce-figure", "fig3-easy", "--reps", "3", "--seed", "5",
                 "--out", str(tmp_path / "5.csv")]) == 0
    capsys.readouterr()
    for seed in ("18446744073709551621", "-18446744073709551611"):
        out = tmp_path / f"{seed}.csv"
        code = main(["reproduce-figure", "fig3-easy", "--reps", "3", "--seed", seed,
                     "--out", str(out)])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "seed" in err
        assert not out.exists()
    assert main(["lil-check", "--x", "3", "--beta", "1.5", "--horizon", "50",
                 "--paths", "10", "--seed", "-1"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "seed" in err


def test_main_returns_int():
    assert main(["complexity", "--family", "bernoulli", "--means", "0.2,0.1"]) == 0


def test_simulate_fc_sprt_and_alpha_cli(tmp_path):
    out = tmp_path / "sprt.csv"
    code, _, _ = run_cli("simulate-fc", "--family", "gaussian",
                         "--means", "1,0", "--variances", "0.25,0.25",
                         "--algo", "sprt", "--sprt-paper-statistic",
                         "--deltas", "0.01", "--reps", "100",
                         "--seed", "2", "--out", str(out))
    assert code == 0
    rec, = read_records(str(out))
    assert rec.algorithm == "sprt[paper]"
    out2 = tmp_path / "alpha.csv"
    code, _, _ = run_cli("simulate-fc", "--family", "gaussian",
                         "--means", "1,0", "--variances", "1,0.25",
                         "--algo", "alpha-elimination", "--rate", "alpha-elim",
                         "--alpha", "0.6", "--deltas", "0.05", "--reps", "100",
                         "--seed", "2", "--out", str(out2))
    assert code == 0
    rec2, = read_records(str(out2))
    assert rec2.algorithm == "alpha-elimination[alpha-elim]"


def test_simulate_fb_ten_row_grid(tmp_path):
    out = tmp_path / "ten.csv"
    code, _, _ = run_cli("simulate-fb", "--family", "bernoulli",
                         "--means", "0.2,0.1", "--alloc", "uniform",
                         "--budgets", "100:1000:100", "--reps", "50",
                         "--seed", "7", "--out", str(out))
    assert code == 0
    assert len(read_records(str(out))) == 10


def test_simulate_fb_optimal_near_tie(tmp_path):
    # alpha* = 0.5000000017 for means 1e-4 apart
    out = tmp_path / "tie.csv"
    code, _, err = run_cli("simulate-fb", "--family", "bernoulli",
                           "--means", "0.5,0.4999", "--alloc", "optimal",
                           "--budgets", "100", "--reps", "10", "--seed", "1",
                           "--out", str(out))
    assert code == 0, err
    assert len(read_records(str(out))) == 1


def test_simulate_fb_optimal_exponential_near_tie(tmp_path):
    # means 2e-8 apart in relative terms: the exponential divergence keeps its
    # sign where the Bregman form's terms cancelled, so alpha* is found
    out = tmp_path / "tie.csv"
    code, _, err = run_cli("simulate-fb", "--family", "exponential",
                           "--means", "9.958417606645,9.958417392758204", "--alloc", "optimal",
                           "--budgets", "100", "--reps", "10", "--seed", "1",
                           "--out", str(out))
    assert code == 0, err
    rec, = read_records(str(out))
    assert rec.replications == 10 and rec.mean_tau == 100.0


_FB_ARGS = ["--budgets", "100", "--reps", "10", "--seed", "4"]
_FC_ARGS = ["--family", "gaussian", "--means", "0.5,0", "--variances", "0.25,0.25",
            "--algo", "elimination", "--rate", "robbins", "--deltas", "0.1",
            "--reps", "10", "--seed", "4"]


@pytest.mark.parametrize("argv", [
    ["simulate-fb", "--family", "exponential", "--means", "0,1", *_FB_ARGS],
    ["simulate-fb", "--family", "exponential", "--means=-1,1", *_FB_ARGS],
    ["simulate-fb", "--family", "exponential", "--means", "nan,1", *_FB_ARGS],
    ["lil-check", "--x", "3", "--beta", "1.5", "--sigma", "nan", "--horizon", "50",
     "--paths", "10"],
    ["lil-check", "--x", "3", "--beta", "1.5", "--sigma", "-1", "--horizon", "50",
     "--paths", "10"],
    ["lil-check", "--x", "3", "--beta", "1.5", "--sigma", "inf", "--horizon", "50",
     "--paths", "10"],
    ["lil-check", "--x", "3", "--beta", "1.5", "--sigma", "0", "--horizon", "50",
     "--paths", "10"],
    ["simulate-fc", *_FC_ARGS, "--tau-max", "-5"],
    ["simulate-fc", *_FC_ARGS, "--tau-max", "-1"],
    ["lil-check", "--x", "inf", "--beta", "1.5", "--horizon", "50", "--paths", "10"],
    ["lil-check", "--x", "3", "--beta", "inf", "--horizon", "50", "--paths", "10"],
    ["lil-check", "--x", "3", "--beta", "1e300", "--horizon", "50", "--paths", "10"],
    ["simulate-fc", *_FC_ARGS, "--sigma", "inf"],
    # knobs the algorithm does not take
    ["simulate-fc", "--family", "gaussian", "--means", "0.5,0", "--variances", "0.25,0.25",
     "--algo", "sprt", "--rate", "robbins", "--sigma", "3", "--alpha", "0.9",
     "--deltas", "0.1", "--reps", "10", "--seed", "4"],
    ["simulate-fc", "--family", "bernoulli", "--means", "0.2,0.1", "--algo", "sglrt",
     "--rate", "sglrt", "--sigma", "0.5", "--deltas", "0.1", "--reps", "10", "--seed", "4"],
    # counts the harness cannot represent exactly
    ["simulate-fc", *_FC_ARGS, "--reps", "10000000000000000000"],
    ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1", *_FB_ARGS,
     "--reps", str(2**53 + 1)],
    ["simulate-fb", "--family", "gaussian", "--means", "0.5,0", "--variances", "0.25,0.25",
     *_FB_ARGS, "--budgets", "1e30"],
    ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1", *_FB_ARGS,
     "--budgets", "1e30"],
    ["simulate-fb", "--family", "exponential", "--means", "2,1", *_FB_ARGS,
     "--budgets", str(2**53 + 2)],
    ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1", *_FB_ARGS,
     "--budgets", "9007199254740993"],
    ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1", *_FB_ARGS,
     "--budgets", "4503599627370496.6"],
    # the fixed-budget bounds need gaussian arms of one common variance
    ["bound", "--family", "gaussian", "--means", "0.5,0", "--variances", "1,0.25",
     "--delta", "0.1", "--budget", "100"],
    ["bound", "--family", "bernoulli", "--means", "0.2,0.1", "--delta", "0.1",
     "--budget", "100"],
    # 2 sigma^2 overflows: the elimination thresholds would raise OverflowError
    ["simulate-fc", "--family", "bernoulli", "--means", "0.2,0.1", "--algo", "elimination",
     "--rate", "robbins", "--sigma", "1e200", "--deltas", "0.1", "--reps", "10", "--seed", "4"],
    # every (x, beta) pair is checked before the first walk prints its line
    ["lil-check", "--x", "3,5", "--beta", "1.5,0.5", "--horizon", "50", "--paths", "10"],
    ["lil-check", "--x", "3,nan", "--beta", "1.5", "--horizon", "50", "--paths", "10"],
    ["lil-check", "--x", ",", "--beta", "1.5", "--horizon", "50", "--paths", "10"],
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "bad.csv"
    if argv[0].startswith("simulate-"):
        argv = [*argv, "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    if "--budget" in argv:
        assert "--budget" in err
    assert captured.out == ""
    assert not out.exists()


_TINY_GAP = ["--family", "gaussian", "--means", "1e-170,0", "--variances", "0.25,0.25"]
_ULP_BERNOULLI = ["--family", "bernoulli", "--means", "0.5,0.5000000000000001"]
_ULP_EXPONENTIAL = ["--family", "exponential", "--means", "1,1.0000000000000002"]
_HUGE_GAP = ["--family", "gaussian", "--means", "1e300,-1e300", "--variances", "1,1"]
_PAIRED_SUM_OVERFLOW = ["simulate-fc", "--family", "gaussian", "--means", "1e307,-1e307",
                        "--variances", "1,1", "--algo", "elimination", "--rate", "robbins",
                        "--deltas", "0.1", "--reps", "2", "--seed", "0", "--tau-max", "200"]
_ALPHA_THRESHOLD_OVERFLOW = ["simulate-fc", "--family", "gaussian", "--means", "1,0",
                             "--variances", "1e308,1e308", "--algo", "alpha-elimination",
                             "--rate", "alpha-elim", "--deltas", "0.1", "--reps", "2",
                             "--seed", "0", "--tau-max", "20"]

_ROBBINS_RATE_OVERFLOW = ["simulate-fc", "--family", "gaussian", "--means", "1,0",
                          "--variances", "1,1", "--algo", "elimination", "--rate", "robbins",
                          "--deltas", "1e-300", "--reps", "2", "--seed", "0",
                          "--tau-max", "2000000000"]
_ALPHA_RATE_OVERFLOW = ["simulate-fc", "--family", "gaussian", "--means", "1,0",
                        "--variances", "1,1", "--algo", "alpha-elimination", "--rate",
                        "alpha-elim", "--deltas", "1e-300", "--reps", "2", "--seed", "0",
                        "--tau-max", "20000000000"]


@pytest.mark.parametrize("argv", [
    # c_* underflows (Gaussian) or the crossing has no double between the means
    ["complexity", *_TINY_GAP],
    ["bound", *_TINY_GAP, "--delta", "0.1"],
    ["complexity", *_ULP_BERNOULLI],
    ["bound", *_ULP_BERNOULLI, "--delta", "0.1"],
    ["complexity", *_ULP_EXPONENTIAL],
    ["bound", *_ULP_EXPONENTIAL, "--delta", "0.1"],
    # the squared gap overflows
    ["complexity", *_HUGE_GAP],
    ["bound", *_HUGE_GAP, "--delta", "0.1"],
    ["simulate-fc", "--family", "gaussian", "--means", "1e200,0", "--variances", "1,1",
     "--algo", "elimination", "--rate", "robbins", "--deltas", "0.1", "--reps", "2",
     "--seed", "0"],
    # mu_[1] - eps rounds to mu_[1]
    ["bound", "--family", "bernoulli", "--means", "0.5,0.4", "--delta", "0.1",
     "--eps", "1e-300"],
    # the SPRT's Delta/sigma^2 rounds to 0: every row would run to the cap
    ["simulate-fc", "--family", "gaussian", "--means", "5e-324,0", "--variances", "2,2",
     "--algo", "sprt", "--deltas", "0.1", "--reps", "50", "--seed", "3", "--tau-max", "10"],
    # an arm's sum n mu overflows, and the tie would go to arm 0
    ["simulate-fb", "--family", "gaussian", "--means", "9e307,1e308", "--variances", "1,1",
     "--alloc", "uniform", "--budgets", "20", "--reps", "50", "--seed", "0"],
    ["simulate-fb", "--family", "exponential", "--means", "1.6e308,1.7e308",
     "--alloc", "uniform", "--budgets", "20", "--reps", "50", "--seed", "0"],
    # one exponential draw overflows, and inf - inf would decide a row
    ["simulate-fc", "--family", "exponential", "--means", "1.7e308,1e308", "--algo",
     "elimination", "--rate", "robbins", "--sigma", "1", "--deltas", "0.1", "--reps", "5",
     "--seed", "0", "--tau-max", "100"],
    # an alpha-elimination arm's sum over its draws under the cap overflows
    # (at alpha = 0.99 arm 1's inf would beat the better arm 2)
    ["simulate-fc", "--family", "gaussian", "--means", "1.6e308,1.7e308", "--variances", "1,1",
     "--algo", "alpha-elimination", "--rate", "alpha-elim", "--alpha", "0.99", "--deltas",
     "0.1", "--reps", "4", "--seed", "0", "--tau-max", "400"],
    ["simulate-fc", "--family", "gaussian", "--means", "1e308,-1e308", "--variances", "1,1",
     "--algo", "alpha-elimination", "--rate", "alpha-elim", "--deltas", "0.1", "--reps", "2",
     "--seed", "0", "--tau-max", "10"],
    # the elimination threshold sqrt(2 sigma^2 t beta(t)) overflows under the cap
    ["simulate-fc", "--family", "exponential", "--means", "2,1", "--algo", "elimination",
     "--rate", "robbins", "--sigma", "5e153", "--deltas", "0.1", "--reps", "5", "--seed", "0",
     "--tau-max", "100"],
    # the running sum of 100 paired differences of gap 2e307 overflows
    _PAIRED_SUM_OVERFLOW,
    # the alpha-elimination threshold's var1/N1 + var2/N2 overflows
    _ALPHA_THRESHOLD_OVERFLOW,
    # a subnormal delta: 1/delta overflows, and the SPRT's threshold with it
    ["simulate-fc", "--family", "gaussian", "--means", "1,0", "--variances", "1,1", "--algo",
     "sprt", "--deltas", "1e-320", "--reps", "20", "--seed", "0", "--tau-max", "4000"],
    ["simulate-fc", "--family", "bernoulli", "--means", "0.9,0.1", "--algo", "sglrt",
     "--rate", "sglrt", "--deltas", "1e-320", "--reps", "2", "--seed", "0", "--tau-max", "400"],
    # beta(t, delta) overflows at the cap: t / delta leaves the doubles
    ["simulate-fc", "--family", "bernoulli", "--means", "0.9,0.1", "--algo", "sglrt",
     "--rate", "sglrt", "--deltas", "1e-305", "--reps", "2", "--seed", "0", "--tau-max", "400"],
    _ROBBINS_RATE_OVERFLOW,
    _ALPHA_RATE_OVERFLOW,
    # the SPRT's log(1/delta) / coef overflows: every row would run to the cap
    ["simulate-fc", "--family", "gaussian", "--means", "1e-306,0", "--variances", "1,1",
     "--algo", "sprt", "--deltas", "1e-300", "--reps", "20", "--seed", "0", "--tau-max", "200"],
    # a range grid's point count, (stop - start) / step, overflows
    ["simulate-fc", "--family", "gaussian", "--means", "1,0", "--variances", "1,1", "--algo",
     "sprt", "--deltas", "0.01:0.1:5e-324", "--reps", "1", "--seed", "0", "--tau-max", "10"],
    # the LIL deviation bound's power beta log(1 + sqrt(x) / sqrt(8)) overflows to inf
    ["lil-check", "--x", "3.293473292300053e+16", "--beta", "1e+307", "--horizon", "1",
     "--paths", "1"],
    # a horizon past 2**53: numpy cannot count its steps
    ["lil-check", "--x", "3", "--beta", "1.5", "--horizon", str(10**30), "--paths", "1"],
], ids=["complexity-tiny-gap", "bound-tiny-gap", "complexity-ulp-bernoulli",
        "bound-ulp-bernoulli", "complexity-ulp-exponential", "bound-ulp-exponential",
        "complexity-huge-gap", "bound-huge-gap", "simulate-fc-huge-gap", "bound-tiny-eps",
        "simulate-fc-sprt-tiny-coefficient", "simulate-fb-gaussian-sum-overflow",
        "simulate-fb-exponential-sum-overflow", "simulate-fc-exponential-draw-overflow",
        "simulate-fc-alpha-sum-overflow", "simulate-fc-alpha-sum-overflow-even",
        "simulate-fc-elimination-threshold-overflow", "simulate-fc-paired-sum-overflow",
        "simulate-fc-alpha-threshold-overflow", "simulate-fc-sprt-subnormal-delta",
        "simulate-fc-sglrt-subnormal-delta", "simulate-fc-sglrt-rate-overflow",
        "simulate-fc-robbins-rate-overflow", "simulate-fc-alpha-rate-overflow",
        "simulate-fc-sprt-threshold-overflow", "simulate-fc-range-grid-count-overflow",
        "lil-check-deviation-bound-overflow", "lil-check-horizon-past-2-53"])
def test_numbers_past_the_doubles_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    if argv[0] in ("simulate-fc", "simulate-fb"):
        argv = [*argv, "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("algo", [["elimination", "--rate", "robbins"], ["sprt"]],
                         ids=["elimination", "sprt"])
def test_a_paired_gap_past_the_doubles_is_named(tmp_path, capsys, algo):
    # both arms are finite; their difference, the law paired rules draw, is not
    argv = ["simulate-fc", "--family", "gaussian", "--means", "1e308,-1e308", "--variances",
            "1,1", "--algo", *algo, "--deltas", "0.1", "--reps", "2", "--seed", "0",
            "--tau-max", "10", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "mu1 - mu2 = inf" in err and "Gaussian mean" not in err


@pytest.mark.parametrize("argv, named", [
    (_PAIRED_SUM_OVERFLOW, "mu1 - mu2 = 2e+307"),
    (_ALPHA_THRESHOLD_OVERFLOW, "got 1e+308 and 1e+308"),
    (_ROBBINS_RATE_OVERFLOW, "robbins exploration rate at delta=1e-300"),
    (_ALPHA_RATE_OVERFLOW, "alpha-elim exploration rate at delta=1e-300"),
], ids=["paired-sum", "alpha-threshold", "robbins-rate", "alpha-elim-rate"])
def test_an_overflow_under_the_cap_is_named(tmp_path, capsys, argv, named):
    # the paired rule's running sum, alpha-elimination's threshold, or the
    # exploration rate would leave the doubles before the cap: the rule is
    # refused when it is built, and the error names what overflows
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1 and named in err


@pytest.mark.parametrize("variances", [
    "1.3000000000000001e-300,1.000001e+154",  # var1/var2 underflows to 0
    "1e308,1e-10",  # var1/var2 overflows
], ids=["ratio-underflows", "ratio-overflows"])
def test_a_variance_ratio_past_the_doubles_is_named(capsys, variances):
    means = "1e-300,1.7000000000017e+308" if variances.startswith("1.3") else "0,1"
    code = main(["bound", "--family", "gaussian", "--means", means, "--variances", variances,
                 "--delta", "0.1"])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2 and captured.out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "variances" in err


@pytest.mark.parametrize("budget, m1, general", [(0, 1.0, 0.25), (1, 0.0, 0.0), (100, 0.0, 0.0)])
def test_fb_error_bounds_at_an_underflowed_h(capsys, budget, m1, general):
    # H' is subnormal and Htilde underflows to 0: exp(-4t/H) is 1 at t = 0 and
    # 0 after, in doubles
    assert main(["bound", "--family", "gaussian", "--means", "1e154,0", "--variances", "1,1",
                 "--delta", "0.1", "--budget", str(budget)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = {k: float(v) for k, v in (line.split("=") for line in captured.out.split())}
    assert all(math.isfinite(v) for v in values.values())
    assert (values["fb_error_m1"], values["fb_error_general"]) == (m1, general)


def test_alpha_elimination_reads_an_infinite_gap_as_a_crossing(tmp_path, capsys):
    # each arm's sum is finite, their difference is not: the first test
    # step crosses, toward arm 1, with no floating-point warning
    out = tmp_path / "x.csv"
    argv = ["simulate-fc", "--family", "gaussian", "--means", "1.7e308,-1.7e308",
            "--variances", "1,1", "--algo", "alpha-elimination", "--rate", "alpha-elim",
            "--deltas", "0.1", "--reps", "2", "--seed", "0", "--tau-max", "2",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    record, = read_records(str(out))
    assert record.error_rate == 0 and record.mean_tau == 2 and record.exhausted_count == 0


def test_an_exponential_mean_without_a_finite_natural_parameter_is_named(capsys):
    # -1 / 1e-310 is -inf: the diagnostic names the mean the user gave
    assert main(["complexity", "--family", "exponential", "--means", "1e-310,1"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "mean=1e-310" in err and "theta" not in err


def test_exponential_means_300_decades_apart(capsys):
    # theta2 / theta1 underflows to 0 inside the divergences, which take the
    # log of each parameter there; references from 60-digit arithmetic
    argv = ["--family", "exponential", "--means", "1e300,1e-300"]
    assert main(["complexity", *argv]) == 0
    row = parse_row(capsys.readouterr().out)
    assert float(row["c_star_fc"]) == pytest.approx(1373.32009369596, rel=1e-11)
    assert float(row["c_star_fb"]) == pytest.approx(1373.32009369596, rel=1e-11)
    assert float(row["i_star_fc"]) == pytest.approx(690.082380717654, rel=1e-11)
    assert float(row["i_star_fb"]) == pytest.approx(690.082380717654, rel=1e-11)
    assert main(["bound", *argv, "--delta", "0.1"]) == 0
    lines = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert float(lines["fc_general"]) == pytest.approx(0.00116579383694407, rel=1e-11)
    assert float(lines["fc_two_armed_general"]) == pytest.approx(0.00117193210805114,
                                                                rel=1e-11)
    assert float(lines["fc_two_armed_uniform"]) == pytest.approx(0.00233224026203996,
                                                                rel=1e-11)


@pytest.mark.parametrize("mean2,reference", [("0.30000001", 5.95238088942547e-17),
                                              ("0.3000000001", 5.95238193681852e-21)])
def test_bernoulli_near_tie_rates(capsys, mean2, reference):
    # the Bregman form of the Bernoulli divergence cancels to noise at these
    # gaps, where it misreads the rates by a quarter or finds no sign change;
    # references from 60-digit arithmetic, where all four rates agree to 15
    # digits
    assert main(["complexity", "--family", "bernoulli", "--means", f"0.3,{mean2}"]) == 0
    row = parse_row(capsys.readouterr().out)
    for key in ("c_star_fc", "i_star_fc", "c_star_fb", "i_star_fb"):
        assert float(row[key]) == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_gaussian_crossing_of_huge_means_is_finite(capsys):
    # s2 mu1 + s1 mu2 overflows here, where the crossing itself is the
    # midpoint 9.999999999999994e168
    argv = ["--family", "gaussian", "--means", "1e169,9.99999999999999e168",
            "--variances", "1e280,1e280"]
    assert main(["complexity", *argv]) == 0
    row = parse_row(capsys.readouterr().out)
    assert row["theta_star_reversed"] == row["theta_star_chernoff"] == "1e+169"


def test_failed_allocation_is_usage_error(capsys):
    # the envelope over 2**50 steps needs 2**53 bytes, more than an address
    # space holds: the allocation fails at once and touches no memory
    code = main(["lil-check", "--x", "3", "--beta", "1.5", "--horizon", str(2**50),
                 "--paths", "1"])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("family", [
    ["--family", "bernoulli", "--means", "0.2,0.1"],
    ["--family", "gaussian", "--means", "0.5,0", "--variances", "0.25,0.25"],
    ["--family", "exponential", "--means", "2,1"],
], ids=["bernoulli", "gaussian", "exponential"])
def test_static_runs_a_huge_budget_in_bounded_memory(tmp_path, family):
    # a static row draws one sum per arm, not its whole allocation
    out = tmp_path / "huge.csv"
    assert main(["simulate-fb", *family, "--budgets", "1e9", "--reps", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    rec, = read_records(str(out))
    assert rec.mean_tau == 1e9 and rec.replications == 3


@pytest.mark.parametrize("tau_max", ["0", "1", "2", "3"])
def test_tiny_tau_max_still_runs(tmp_path, tau_max):
    # a given cap allows tau_max // 2 paired steps: none at caps 0 and 1, where
    # every row is exhausted at tau 0; at caps 2 and 3 one step, where a row is
    # exhausted unless its first difference X - Y ~ N(0.5, 0.5), read from its
    # own stream, crosses the robbins threshold
    out = tmp_path / "tiny.csv"
    assert main(["simulate-fc", *_FC_ARGS, "--tau-max", tau_max, "--out", str(out)]) == 0
    rec, = read_records(str(out))
    if int(tau_max) < 2:
        assert rec.exhausted_count == 10 and rec.mean_tau == 0.0
        return
    threshold = math.sqrt(2.0 * 0.25 * 2 * eval_rate(ExplorationRate.ROBBINS_LOG_T, 2, 0.1))
    within = 0
    rng = make_rng(4, 0)
    for state in row_states(rng.bit_generator.state, range(10)):
        rng.bit_generator.state = state
        within += abs(0.5 + math.sqrt(0.5) * rng.standard_normal()) <= threshold
    assert rec.exhausted_count == within and rec.mean_tau == 2.0


def test_rule_failing_in_a_worker_is_usage_error(tmp_path, capsys):
    # the sequential GLRT rejects Gaussian arms when its rule is built, which
    # happens in the parent before any worker starts, at any --workers
    errors = []
    for workers in ("1", "2"):
        out = tmp_path / f"sglrt-{workers}.csv"
        code = main(["simulate-fc", "--family", "gaussian", "--means", "0.5,0",
                     "--variances", "0.25,0.25", "--algo", "sglrt", "--rate", "robbins",
                     "--deltas", "0.1", "--reps", "20", "--seed", "4",
                     "--workers", workers, "--out", str(out)])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()
        errors.append(err)
    assert errors[0] == errors[1]



_FB_CONFIG = {"instance": {"family": "bernoulli", "means": [0.2, 0.1]},
              "grid": [100], "replications": 10, "master_seed": 1}
_FC_CONFIG = {"instance": {"family": "gaussian", "means": [0.5, 0], "variances": [0.25, 0.25]},
              "algorithm": {"kind": "elimination", "rate": "robbins"},
              "grid": [0.1], "replications": 10, "master_seed": 1}


@pytest.mark.parametrize("command, document", [
    ("simulate-fb", [1, 2]),
    ("simulate-fb", "fig3-easy"),
    ("simulate-fb", {**_FB_CONFIG, "instance": [0.2, 0.1]}),
    ("simulate-fb", {**_FB_CONFIG, "instance": {"family": "bernoulli", "means": 0.2}}),
    ("simulate-fb", {**_FB_CONFIG, "instance": {"family": "bernoulli", "means": ["a", "b"]}}),
    ("simulate-fb", {**_FB_CONFIG, "grid": 100}),
    ("simulate-fb", {**_FB_CONFIG, "replications": "abc"}),
    ("simulate-fb", {**_FB_CONFIG, "replications": 2.5}),
    ("simulate-fb", {**_FB_CONFIG, "master_seed": [1]}),
    ("simulate-fb", {**_FB_CONFIG, "workers": "two"}),
    ("simulate-fb", {**_FB_CONFIG, "algorithm": {"kind": "static", "allocation": "greedy"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "elimination", "rate": "bogus"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "elimination", "rate": "robbins",
                                                 "tau_max": "many"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "elimination", "rate": "robbins",
                                                 "sigma": [0.5]}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "alpha-elimination",
                                                 "rate": "alpha-elim", "alpha": "x"}}),
    # a list or an object where the field takes one value, also under a flag
    ("simulate-fb", {**_FB_CONFIG, "out": ["a.csv"]}),
    ("simulate-fb", {**_FB_CONFIG, "out": {"path": "a.csv"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "sprt", "rate": "robbins"}}),
    # every algorithm field reaches the spec: a wrong kind or a stray knob
    ("simulate-fb", {**_FB_CONFIG, "algorithm": {"kind": "sprt", "rate": "robbins", "sigma": 3}}),
    ("simulate-fb", {**_FB_CONFIG, "algorithm": {"kind": "sprt"}}),
    ("simulate-fb", {**_FB_CONFIG, "algorithm": {"kind": "static", "rate": "robbins"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "sprt", "allocation": "optimal"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "sprt", "allocation": "uniform"}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "static"}, "grid": [100]}),
    # a field that no flag reads, and an on/off field that is not a JSON bool
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "elimination", "rate": "robbins",
                                                 "tau-max": 4}}),
    ("simulate-fc", {**_FC_CONFIG, "reps": 9}),
    ("simulate-fc", {**_FC_CONFIG, "instance": {**_FC_CONFIG["instance"], "variance": 3}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "sprt", "sprt_paper_statistic": 1}}),
    ("simulate-fc", {**_FC_CONFIG, "algorithm": {"kind": "sprt",
                                                 "sprt_paper_statistic": "true"}}),
    ("simulate-fb", {**_FB_CONFIG, "algorithm": {"kind": "static",
                                                 "sprt_paper_statistic": True}}),
])
def test_malformed_config_is_usage_error(tmp_path, monkeypatch, capsys, command, document):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    out = tmp_path / "cfg.csv"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_sprt_paper_statistic(tmp_path):
    # the config field sets the flag; the flag on the command line wins
    for in_config, flags in ((True, []), (False, ["--sprt-paper-statistic"])):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**_FC_CONFIG, "algorithm": {
            "kind": "sprt", "sprt_paper_statistic": in_config}}))
        out = tmp_path / "sprt.csv"
        assert main(["simulate-fc", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
        rec, = read_records(str(out))
        assert rec.algorithm == "sprt[paper]"


@pytest.mark.parametrize("content", [b'{"replications": ', b"\xff\xfe{}"],
                         ids=["not-json", "not-utf-8"])
def test_config_that_is_not_json_is_usage_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    out = tmp_path / "cfg.csv"
    code = main(["simulate-fb", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


def _run_with_fresh_parser(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def test_main_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main parses every command line with one parser, built on first use: an
    # argparse error, a usage error, --tau-max and --config in earlier calls
    # leave no trace in a later one
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_FB_CONFIG, "replications": 3, "master_seed": 8,
                                    "algorithm": {"kind": "static", "allocation": "uniform"}}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate-fb", "--alloc", "greedy"])
    assert exc.value.code == 2
    assert main(["simulate-fc", *_FC_ARGS, "--tau-max", "-5",
                 "--out", str(tmp_path / "bad.csv")]) == 2
    assert main(["simulate-fc", *_FC_ARGS, "--tau-max", "1",
                 "--out", str(tmp_path / "capped.csv")]) == 0
    assert main(["simulate-fb", "--config", str(cfg_path),
                 "--out", str(tmp_path / "config.csv")]) == 0
    fb = ["simulate-fb", "--family", "bernoulli", "--means", "0.2,0.1", "--alloc", "optimal",
          *_FB_ARGS]
    for name, argv in (("fc", ["simulate-fc", *_FC_ARGS]), ("fb", fb)):
        reused, fresh = tmp_path / f"{name}-reused.csv", tmp_path / f"{name}-fresh.csv"
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert main([*argv, "--out", str(reused)]) == 0
        assert _run_with_fresh_parser([*argv, "--out", str(fresh)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
    capped = read_records(str(tmp_path / "capped.csv"))
    assert capped != read_records(str(tmp_path / "fc-fresh.csv"))
    assert cli._parser() is cli._parser()
