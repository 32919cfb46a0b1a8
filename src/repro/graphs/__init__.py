"""``repro.graphs`` — CSR graph substrate: structure, generators, I/O."""

from repro.graphs.csr import CSRGraph, expand_rows, inner_steps
from repro.graphs.generators import (
    citeseer_like,
    degree_sequence_graph,
    lognormal_degrees,
    power_law_degrees,
    rmat_graph,
    uniform_random_graph,
    wiki_vote_like,
)
from repro.graphs.io import (
    read_dimacs,
    read_edge_list,
    read_matrix_market,
    write_dimacs,
    write_edge_list,
    write_matrix_market,
)
from repro.graphs.properties import DegreeStats, degree_stats, fraction_above_threshold

__all__ = [
    "CSRGraph", "expand_rows", "inner_steps",
    "power_law_degrees", "lognormal_degrees", "degree_sequence_graph", "citeseer_like",
    "wiki_vote_like", "uniform_random_graph", "rmat_graph",
    "read_dimacs", "write_dimacs", "read_edge_list", "write_edge_list",
    "read_matrix_market", "write_matrix_market",
    "DegreeStats", "degree_stats", "fraction_above_threshold",
]
