"""Competitive item diffusion and welfare-maximizing seed allocation.

Submodules:
    graph       directed probabilistic graphs and edge-list parsing
    utility     item catalogs, noise models, truncated-utility quantities
    diffusion   the adoption simulator and Monte Carlo welfare estimators
    ris         reverse-reachable set sampling and greedy coverage
    selectors   sample-size schedules and stopping-rule seed selectors
    allocators  the allocation algorithms and baselines
    oracle      exact ground truth by possible-world enumeration
    cli         experiment runner
"""

from welfaremax.graph import Graph, load_edge_list
from welfaremax.utility import ItemCatalog, NoiseSpec
from welfaremax.diffusion import Allocation, PossibleWorld, simulate

__all__ = [
    "Graph",
    "load_edge_list",
    "ItemCatalog",
    "NoiseSpec",
    "Allocation",
    "PossibleWorld",
    "simulate",
]
