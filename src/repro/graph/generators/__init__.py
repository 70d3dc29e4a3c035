"""Synthetic graph generators.

The paper's dataset is ``dg1000``, produced by LDBC Datagen [Erling et al.,
SIGMOD'15].  :mod:`repro.graph.generators.datagen` provides a deterministic
Datagen-like social-network generator (power-law degrees plus community
structure); the other modules supply the standard synthetic families
(power-law, uniform, grid) used by the tests and ablations.
"""

from repro.graph.generators.datagen import datagen_graph
from repro.graph.generators.powerlaw import powerlaw_graph
from repro.graph.generators.random_uniform import uniform_random_graph
from repro.graph.generators.grid import grid_graph
from repro.graph.generators.kronecker import rmat_graph

__all__ = [
    "datagen_graph",
    "powerlaw_graph",
    "uniform_random_graph",
    "grid_graph",
    "rmat_graph",
]
