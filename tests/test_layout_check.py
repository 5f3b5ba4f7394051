"""``scripts/layout_check.py`` passes a tree against itself and fails trees whose law moved.

The mutations and the replications were fixed together, on copies of the
tree, before this test: at 2,000 replications per cell each mutated tree
fails with its worst p-value many decades under the Bonferroni bound, and the
tree against itself passes.  The level is the script's own, fixed before
any run.
"""

import importlib.util
import pathlib
import shutil

import pytest
import scipy.stats

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
spec = importlib.util.spec_from_file_location("layout_check", ROOT / "scripts" / "layout_check.py")
layout_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layout_check)

REPS = "2000"
#: (preset, the line of fc_algos.py a mutation rewrites, its rewrite): beta x 0.9
#: in Gaussian elimination's thresholds, and in the SGLRT's on Bernoulli arms.
MUTATIONS = {
    "gaussian-elimination-beta": (
        "fig3-easy",
        "return np.sqrt(2.0 * self.sigma**2 * ts * _rate_values(self.rate, ts, self.delta))",
        "return np.sqrt(2.0 * self.sigma**2 * ts * 0.9 * _rate_values(self.rate, ts, self.delta))"),
    "bernoulli-sglrt-beta": (
        "fig4-left",
        "beta = _rate_values(self.rate, 2.0 * ks, self.delta)",
        "beta = 0.9 * _rate_values(self.rate, 2.0 * ks, self.delta)"),
}


def test_a_tree_against_itself_at_two_seeds_passes(capsys):
    argv = [str(SRC), str(SRC), "--presets", "fig3-easy", "fig4-left", "--reps", REPS,
            "--seeds", "1", "2"]
    assert layout_check.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("pass: 0 of ")


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_a_mutated_tree_fails(tmp_path, capsys, name):
    preset, line, mutated = MUTATIONS[name]
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    module = tree / "bestarm" / "fc_algos.py"
    text = module.read_text(encoding="utf-8")
    assert text.count(line) == 1
    module.write_text(text.replace(line, mutated), encoding="utf-8")
    argv = [str(SRC), str(tree), "--presets", preset, "--reps", REPS, "--seeds", "1", "2"]
    assert layout_check.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL: ")


def test_welch_reads_population_deviations_and_holm_steps_down():
    a, b = [1.0, 2.0, 4.0, 7.0, 11.0], [3.0, 3.5, 9.0, 12.0, 20.0, 25.0]
    got = layout_check.welch_p(len(a), scipy.stats.tmean(a), scipy.stats.tstd(a, ddof=0),
                               len(b), scipy.stats.tmean(b), scipy.stats.tstd(b, ddof=0))
    assert got == pytest.approx(scipy.stats.ttest_ind(a, b, equal_var=False).pvalue, rel=1e-10)
    assert layout_check.holm([0.01, 0.04, 0.03, 0.005], 0.05) == [True, False, False, True]
