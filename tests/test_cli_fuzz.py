"""The CLI's numeric domain, fuzzed: every input exits 0 or 2, cleanly.

Each example starts from a command line that runs (every subcommand, and
a ``--config`` file for the simulate commands) and puts edge magnitudes
into up to two of its numbers: from 5e-324 to 1.7e308 of either sign, 0,
nan, inf, integers past 2**53 and text an integer flag refuses, so every
check along the way is reached.  ``cli.main`` runs in-process and must
either exit 0 with finite numbers out and nothing on stderr, or exit 2
with exactly one ``error:`` line; a traceback, a warning (numpy's
floating-point warnings included) or a non-finite number out fails.  The
one warning by design, the iterated-log rate's at delta > 0.01, is let
through.

Runs use tiny replication counts and small caps, so each example takes
milliseconds.  Caps and counts of any size, up to and past 2**53, are
checked where they take effect, when the rules are built: there the runs
are replaced by zero sums, since a row under such a cap could run for
2**53 steps.  ``--workers`` takes only values that start no process, and
grids are comma lists: a range grid holds one number per cell, so an edge
step could ask for more cells than memory holds.
"""

import contextlib
import io
import json
import math
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestarm import cli, harness

_MAGNITUDES = [5e-324, 2.2250738585072014e-308, 1e-305, 1e-300, 1e-170, 1e-9, 1e-6, 0.01,
               0.15, 0.5, 1 - 1e-9, 1.0, 2.0, 1e10, 1e154, 1e300, 1e307, 1e308, 1.7e308,
               1.7976931348623157e308]
FLOAT_EDGES = st.one_of(st.sampled_from(
    [sign * m for m in _MAGNITUDES for sign in (1.0, -1.0)]
    + [0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats())
_REFUSED = [-1, 0, 2**53 + 1, 2**64, 10**30, -(2**63), "nan", "inf", "1.5", "1e3", "5e-324"]
#: Edges of each integer flag: none of them runs long, starts a process or allocates much.
INT_EDGES = {"--tau-max": _REFUSED, "--reps": _REFUSED, "--horizon": _REFUSED,
             "--paths": _REFUSED, "--seed": [-1, 2**63, 2**64 - 1, 2**64, 10**30, "nan", "1.5"],
             "--m": [0, -1, 2, 3, "nan"], "--workers": [0, -1, "two", "1.5"],
             "--budget": [*_REFUSED, 2**53 - 1, 2**53], "--budgets": [*_REFUSED, 2**53]}
#: Caps and counts of any size, for the checks made when the rules are built.
LARGE = [*_REFUSED, 2, 10**4, 2**31, 2 * 10**9, 2 * 10**10, 2**53 - 1, 2**53]

MEANS = {"gaussian": (1.0, 0.0, 0.5, 0.25), "bernoulli": (0.9, 0.1, 0.6, 0.45),
         "exponential": (2.0, 1.0, 0.5)}
RATES = ["robbins", "iterated-log", "alpha-elim", "sglrt", "conjectured", "plain-log"]
#: The family each algorithm runs on; elimination runs on any, given sigma off Gaussians.
ALGOS = {"elimination": None, "alpha-elimination": "gaussian", "sglrt": "bernoulli",
         "sprt": "gaussian"}


@st.composite
def _instance(draw, family=None):
    """--family, --means and --variances of a two-armed instance that runs."""
    family = family or draw(st.sampled_from(sorted(MEANS)))
    flags = {"--family": family,
             "--means": draw(st.lists(st.sampled_from(MEANS[family]), min_size=2, max_size=2,
                                      unique=True))}
    if family == "gaussian":
        var = st.sampled_from([1.0, 0.25, 4.0])
        flags["--variances"] = [draw(var)] * 2 if draw(st.booleans()) else [draw(var), draw(var)]
    return flags


@st.composite
def _simulate_fc(draw):
    algo = draw(st.sampled_from(sorted(ALGOS)))
    flags = {"command": "simulate-fc", **draw(_instance(ALGOS[algo])), "--algo": algo}
    gaussian = flags["--family"] == "gaussian"
    if algo != "sprt":
        flags["--rate"] = draw(st.sampled_from(RATES))
    if algo == "elimination" and not (gaussian and len(set(flags["--variances"])) == 1):
        flags["--sigma"] = draw(st.sampled_from([0.5, 1.0]))
    if algo == "alpha-elimination" and draw(st.booleans()):
        flags["--alpha"] = draw(st.sampled_from([0.25, 0.5, 0.7]))
    if algo == "sprt":
        flags["--variances"] = flags["--variances"][:1] * 2
        flags["--sprt-paper-statistic"] = draw(st.booleans())
    flags["--deltas"] = draw(st.lists(st.sampled_from([0.1, 0.05, 0.01]), min_size=1,
                                      max_size=2))
    flags.update({"--tau-max": draw(st.sampled_from([0, 1, 2, 3, 10, 64, 200, 400])),
                  "--reps": draw(st.sampled_from([1, 2, 3])),
                  "--seed": draw(st.sampled_from([0, 1, 2**64 - 1]))})
    return flags


@st.composite
def _simulate_fb(draw):
    return {"command": "simulate-fb", **draw(_instance()),
            "--alloc": draw(st.sampled_from(["uniform", "optimal"])),
            "--budgets": draw(st.lists(st.sampled_from([2, 3, 10, 40, 1000]), min_size=1,
                                       max_size=2)),
            "--reps": draw(st.sampled_from([1, 2, 3])),
            "--seed": draw(st.sampled_from([0, 1, 2**64 - 1]))}


@st.composite
def _complexity_or_bound(draw):
    flags = draw(_instance())
    if draw(st.booleans()):
        return {"command": "complexity", **flags}
    flags.update({"command": "bound", "--delta": draw(st.sampled_from([0.1, 0.05, 1e-6]))})
    if draw(st.booleans()):
        flags["--eps"] = draw(st.sampled_from([0.01, 0.1]))
    if flags["--family"] == "gaussian" and draw(st.booleans()):
        flags["--variances"] = flags["--variances"][:1] * 2
        flags["--budget"] = draw(st.sampled_from([0, 1, 100]))
    return flags


@st.composite
def _lil_check(draw):
    flags = {"command": "lil-check",
             "--x": draw(st.lists(st.sampled_from([3.0, 5.0, 10.0]), min_size=1, max_size=2)),
             "--beta": draw(st.lists(st.sampled_from([1.5, 2.0]), min_size=1, max_size=2)),
             "--horizon": draw(st.sampled_from([1, 2, 50])),
             "--paths": draw(st.sampled_from([1, 3])), "--seed": 0}
    if draw(st.booleans()):
        flags["--sigma"] = draw(st.sampled_from([1.0, 0.5]))
    return flags


@st.composite
def _reproduce_figure(draw):
    return {"command": "reproduce-figure",
            "figure": draw(st.sampled_from(["fig3-easy", "fig3-hard", "fig4-left",
                                            "fig4-right", "all"])),
            "--reps": 1, "--seed": 0, "--workers": 1}


@st.composite
def _edged(draw, base, large=()):
    """``base``'s flags with up to two of their numbers set to edge values.

    A number of a list flag is one of its entries; the flags in ``large``
    take caps and counts of any size.
    """
    flags = draw(base)
    numeric = [k for k, v in flags.items() if k.startswith("--") and not isinstance(v, (bool, str))]
    for flag in draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)):
        edges = (st.sampled_from(LARGE) if flag in large
                 else st.sampled_from(INT_EDGES[flag]) if flag in INT_EDGES else FLOAT_EDGES)
        if flag == "--budgets":
            edges = st.one_of(edges, FLOAT_EDGES)
        if isinstance(flags[flag], list):
            flags[flag] = list(flags[flag])
            flags[flag][draw(st.integers(0, len(flags[flag]) - 1))] = draw(edges)
        else:
            flags[flag] = draw(edges)
    return flags


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _argv(flags: dict) -> list[str]:
    """The command line of ``flags``, each as ``--flag=value`` (a value may be negative)."""
    argv = [flags["command"], *([flags["figure"]] if "figure" in flags else [])]
    for flag, value in flags.items():
        if not flag.startswith("--") or value is False:
            continue
        if value is True:
            argv.append(flag)
        else:
            text = ",".join(map(_text, value)) if isinstance(value, list) else _text(value)
            argv.append(f"{flag}={text}")
    return argv


#: Where each simulate flag goes in a config file.
CONFIG_FIELDS = {
    "--family": ("instance", "family"), "--means": ("instance", "means"),
    "--variances": ("instance", "variances"), "--algo": ("algorithm", "kind"),
    "--rate": ("algorithm", "rate"), "--alpha": ("algorithm", "alpha"),
    "--tau-max": ("algorithm", "tau_max"), "--sigma": ("algorithm", "sigma"),
    "--alloc": ("algorithm", "allocation"),
    "--sprt-paper-statistic": ("algorithm", "sprt_paper_statistic"),
    "--deltas": (None, "grid"), "--budgets": (None, "grid"),
    "--reps": (None, "replications"), "--seed": (None, "master_seed")}


def _document(flags: dict) -> dict:
    """The config document of a simulate command's ``flags``, as JSON values."""
    document = {"instance": {}, "algorithm": {}}
    for flag, value in flags.items():
        if flag in CONFIG_FIELDS:
            table, name = CONFIG_FIELDS[flag]
            (document[table] if table else document)[name] = value
    return document


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _non_finite(text: str) -> list[float]:
    numbers = []
    for token in text.replace(",", " ").replace("=", " ").split():
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return [x for x in numbers if not math.isfinite(x)]


def _check(argv: list[str], scratch) -> None:
    """``cli.main(argv)`` exits 0 with finite numbers out, or 2 with one error line."""
    if argv[0].startswith("simulate-") or argv[0] == "reproduce-figure":
        argv = [*argv, f"--out={scratch / '{figure}.csv'}"]
    for path in scratch.glob("*.csv"):
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message="iterated-log rate: delta=")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses what its types cannot parse
            code = exc.code
    stdout, lines = out.getvalue(), err.getvalue().splitlines()
    written = "".join(path.read_text(encoding="utf-8") for path in scratch.glob("*.csv"))
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert lines == [], argv
        assert _non_finite(stdout + written) == [], argv
    else:
        assert code == 2, argv
        assert stdout == "" and written == "", argv
        errors = [line for line in lines if "error:" in line]
        # one line of ours, or argparse's usage lines and then its error line
        assert len(errors) == 1 and errors[0] == lines[-1], (argv, lines)
        assert lines[-1].startswith("error:") == (len(lines) == 1), (argv, lines)


_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@given(argv=_edged(_complexity_or_bound()).map(_argv))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# two bound classes once mended: a variance ratio that underflows (gaussian_kl's
# log of it), and an H' so small that H~ underflows to 0
@example(argv=["bound", "--family=gaussian", "--means=1e-300,1.7000000000017e+308",
               "--variances=1.3000000000000001e-300,1.000001e+154", "--delta=0.1"])
@example(argv=["bound", "--family=gaussian", "--means=1e154,0", "--variances=1,1",
               "--delta=0.1", "--budget=100"])
def test_complexity_and_bound_exit_cleanly(scratch, argv):
    _check(argv, scratch)


@given(argv=_edged(_lil_check()).map(_argv))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
# the deviation bound's power overflows to inf, and a horizon numpy cannot count
@example(argv=["lil-check", "--x=3.293473292300053e+16", "--beta=1e+307", "--horizon=1",
               "--paths=1", "--seed=0"])
@example(argv=["lil-check", "--x=3", "--beta=1.5", f"--horizon={10**30}", "--paths=1",
               "--seed=0"])
def test_lil_check_exits_cleanly(scratch, argv):
    _check(argv, scratch)


@given(argv=st.one_of(_edged(_simulate_fc()), _edged(_simulate_fb())).map(_argv))
@_FUZZ
# two run classes once mended: a chunk's sum of paired differences and
# alpha-elimination's thresholds pass the doubles
@example(argv=["simulate-fc", "--family=gaussian",
               "--means=0.5000004998999998,1.7000000000017e+308", "--variances=10,10",
               "--algo=sprt", "--deltas=0.1", "--tau-max=200", "--reps=2", "--seed=0"])
@example(argv=["simulate-fc", "--family=gaussian", "--means=1,0",
               "--variances=1.7e308,1.7e308", "--algo=alpha-elimination",
               "--rate=alpha-elim", "--deltas=0.1", "--tau-max=20", "--reps=2", "--seed=0"])
# the SGLRT's rate overflows at its cap (at 1e-305, t / delta leaves the doubles)
@example(argv=["simulate-fc", "--family=bernoulli", "--means=0.9,0.1", "--algo=sglrt",
               "--rate=sglrt", "--deltas=1e-305", "--tau-max=400", "--reps=2", "--seed=0"])
# a range grid whose point count overflows
@example(argv=["simulate-fc", "--family=gaussian", "--means=1,0", "--variances=1,1",
               "--algo=sprt", "--deltas=0.01:0.1:5e-324", "--tau-max=10", "--reps=1",
               "--seed=0"])
def test_simulate_commands_exit_cleanly(scratch, argv):
    _check(argv, scratch)


@given(flags=st.one_of(_edged(_simulate_fc()), _edged(_simulate_fb())),
       override=st.lists(st.sampled_from(["--reps=1", "--seed=0", "--workers=1",
                                          "--workers=0"]), max_size=2))
@_FUZZ
def test_a_config_file_exits_cleanly(scratch, flags, override):
    config = scratch / "config.json"
    config.write_text(json.dumps(_document(flags)), encoding="utf-8")
    _check([flags["command"], f"--config={config}", *override], scratch)


def _zero_sums(task):
    """The sums ``harness._run_task`` returns, read as though no row ran."""
    return [[[0, 0, 0, 0] for _ in rules] for _, _, rules, _ in task]


@given(argv=st.one_of(_edged(_simulate_fc(), large=("--tau-max", "--reps")),
                      _edged(_simulate_fb(), large=("--reps",)),
                      _edged(_reproduce_figure(), large=("--reps",))).map(_argv))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# beta(t, delta) overflows at the cap: Robbins elimination blamed sigma, and
# alpha-elimination its variances
@example(argv=["simulate-fc", "--family=gaussian", "--means=1,0", "--variances=1,1",
               "--algo=elimination", "--rate=robbins", "--deltas=1e-300",
               "--tau-max=2000000000", "--reps=2", "--seed=0"])
@example(argv=["simulate-fc", "--family=gaussian", "--means=1,0", "--variances=1,1",
               "--algo=alpha-elimination", "--rate=alpha-elim", "--deltas=1e-300",
               "--tau-max=20000000000", "--reps=2", "--seed=0"])
def test_caps_and_counts_of_any_size_are_refused_or_taken_when_rules_are_built(scratch, argv):
    with mock.patch.object(harness, "_run_task", _zero_sums):
        _check(argv, scratch)
