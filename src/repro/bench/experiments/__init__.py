"""Experiment modules: importing this package registers every experiment."""

from repro.bench.experiments import (  # noqa: F401
    ablations,
    baselines,
    fig2_sort,
    fig4_spmv_blocksize,
    fig5_sssp,
    fig6_nested_loops,
    fig7_tree_descendants,
    fig8_tree_heights,
    fig9_recursive_bfs,
    table1_sssp_profile,
    table2_warp_efficiency,
)
