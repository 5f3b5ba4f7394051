"""Preset experiment grids for the standard comparison figures.

Each preset pairs one two-armed instance with an algorithm panel:
sequential stopping rules under several exploration rates (plus the
known-gap SPRT for the Gaussian instances) against the uniform static
fixed-budget strategy.  Grids are desk-scale defaults; the replication
count is configurable up to the full 10^6.
"""

from __future__ import annotations

from .fc_algos import ExplorationRate
from .harness import AlgorithmSpec, ExperimentConfig
from .instances import two_armed_bernoulli, two_armed_gaussian

EASY_GAUSSIAN = two_armed_gaussian(0.5, 0.0, 0.25)
HARD_GAUSSIAN = two_armed_gaussian(0.01, 0.0, 0.25)
BERNOULLI_EASY = two_armed_bernoulli(0.2, 0.1)
BERNOULLI_HARD = two_armed_bernoulli(0.51, 0.5)

#: 1/4-subgaussian proxy for arms supported in [0, 1].
BOUNDED_SIGMA = 0.5

FIGURE_PRESETS = ("fig3-easy", "fig3-hard", "fig4-left", "fig4-right")


def _gaussian_panel(deltas, budgets) -> list[tuple[AlgorithmSpec, tuple]]:
    rates = (ExplorationRate.ROBBINS_LOG_T,
             ExplorationRate.CONJECTURED_LOG_LOG,
             ExplorationRate.PLAIN_LOG)
    panel = [(AlgorithmSpec("elimination", rate=r), deltas) for r in rates]
    panel.append((AlgorithmSpec("sprt"), deltas))
    panel.append((AlgorithmSpec("static", allocation="uniform"), budgets))
    return panel


def _bernoulli_panel(deltas, budgets) -> list[tuple[AlgorithmSpec, tuple]]:
    rates = (ExplorationRate.CONJECTURED_LOG_LOG, ExplorationRate.PLAIN_LOG)
    panel = [(AlgorithmSpec("sglrt", rate=r), deltas) for r in rates]
    panel += [(AlgorithmSpec("elimination", rate=r, sigma=BOUNDED_SIGMA), deltas)
              for r in rates]
    panel.append((AlgorithmSpec("static", allocation="uniform"), budgets))
    return panel


def figure_configs(name: str, replications: int, master_seed: int) -> list[ExperimentConfig]:
    """Experiment configs for one preset, in deterministic emission order."""
    if name == "fig3-easy":
        instance = EASY_GAUSSIAN
        panel = _gaussian_panel(
            deltas=(0.1, 0.05, 0.01, 0.005, 0.001),
            budgets=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
        )
    elif name == "fig3-hard":
        instance = HARD_GAUSSIAN
        panel = _gaussian_panel(
            deltas=(0.1, 0.01),
            budgets=(20000, 60000, 100000),
        )
    elif name == "fig4-left":
        instance = BERNOULLI_EASY
        panel = _bernoulli_panel(
            deltas=(0.1, 0.03, 0.01, 0.003),
            budgets=(100, 200, 300, 400, 500, 600, 700),
        )
    elif name == "fig4-right":
        instance = BERNOULLI_HARD
        panel = _bernoulli_panel(
            deltas=(0.1, 0.03),
            budgets=(10000, 20000, 30000, 40000, 50000),
        )
    else:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_PRESETS}")
    return [
        ExperimentConfig(
            instance=instance,
            algorithm=spec,
            grid=tuple(float(v) for v in grid),
            replications=replications,
            master_seed=master_seed,
        )
        for spec, grid in panel
    ]
