"""``repro.apps`` — the paper's seven applications + the sort case study."""

from repro.apps.asyncq import (
    AsyncBFSApp,
    AsyncSSSPApp,
    AsyncTreeWalkApp,
    RequestLog,
    async_relax_requests,
)
from repro.apps.base import AppRun, combine_rounds
from repro.apps.bc import BCApp
from repro.apps.bfs import (
    BFSApp,
    RecursiveBFSApp,
    VisitForest,
    unordered_bfs_visits,
)
from repro.apps.pagerank import PageRankApp
from repro.apps.sort import (
    SORT_VARIANTS,
    PartitionRecord,
    SortApp,
    merge_sort,
    quicksort,
)
from repro.apps.spmv import SpMVApp
from repro.apps.sssp import SSSPApp
from repro.apps.tree_desc import TreeDescendantsApp
from repro.apps.tree_height import TreeHeightsApp

__all__ = [
    "AppRun", "combine_rounds",
    "SpMVApp", "SSSPApp", "PageRankApp", "BCApp",
    "BFSApp", "RecursiveBFSApp", "VisitForest", "unordered_bfs_visits",
    "AsyncSSSPApp", "AsyncBFSApp", "AsyncTreeWalkApp",
    "RequestLog", "async_relax_requests",
    "TreeDescendantsApp", "TreeHeightsApp",
    "SortApp", "SORT_VARIANTS", "merge_sort", "quicksort", "PartitionRecord",
]
