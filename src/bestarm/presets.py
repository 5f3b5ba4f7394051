"""Preset experiment grids for the standard comparison figures.

Each preset pairs one two-armed instance with an algorithm panel:
sequential stopping rules under several exploration rates (plus the
known-gap SPRT for the Gaussian instances) against the uniform static
fixed-budget strategy.  Grids are desk-scale defaults; the replication
count is configurable up to the full 10^6, in memory that does not grow
with it: the harness folds each block of rows into its cells' exact sums.
"""

from __future__ import annotations

from .fc_algos import ExplorationRate
from .harness import AlgorithmSpec, ExperimentConfig
from .instances import two_armed_bernoulli, two_armed_gaussian

#: 1/4-subgaussian proxy for arms supported in [0, 1].
BOUNDED_SIGMA = 0.5


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


#: Preset name: (instance, panel, delta grid, budget grid), in run order.
_PRESETS = {
    "fig3-easy": (two_armed_gaussian(0.5, 0.0, 0.25), _gaussian_panel,
                  (0.1, 0.05, 0.01, 0.005, 0.001), range(10, 101, 10)),
    "fig3-hard": (two_armed_gaussian(0.01, 0.0, 0.25), _gaussian_panel,
                  (0.1, 0.01), (20000, 60000, 100000)),
    "fig4-left": (two_armed_bernoulli(0.2, 0.1), _bernoulli_panel,
                  (0.1, 0.03, 0.01, 0.003), range(100, 701, 100)),
    "fig4-right": (two_armed_bernoulli(0.51, 0.5), _bernoulli_panel,
                   (0.1, 0.03), range(10000, 50001, 10000)),
}
FIGURE_PRESETS = tuple(_PRESETS)


def figure_configs(name: str, replications: int, master_seed: int) -> list[ExperimentConfig]:
    """Experiment configs for one preset, in deterministic emission order."""
    if name not in _PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_PRESETS}")
    instance, panel, deltas, budgets = _PRESETS[name]
    return [ExperimentConfig(instance, spec, tuple(map(float, grid)), replications, master_seed)
            for spec, grid in panel(deltas, budgets)]
