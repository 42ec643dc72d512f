"""ProbeSim — scalable single-source and top-k SimRank on dynamic graphs.

A from-scratch Python reproduction of Liu et al., PVLDB 11(1), 2017
(arXiv:1709.06955).  See README.md for a tour of the system, the method
registry, and the dynamic-update story.

Quickstart::

    from repro import DiGraph, ProbeSim

    graph = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    engine = ProbeSim(graph, c=0.6, eps_a=0.1, delta=0.01, seed=42)
    result = engine.single_source(0)       # Definition 1
    top = engine.topk(0, k=10)             # Definition 2

Every method conforms to the :class:`SimRankEstimator` protocol and is
constructible by name through the registry::

    from repro.api import create

    estimator = create("probesim", graph, eps_a=0.1, seed=42)
    results = estimator.single_source_many([0, 1, 2])   # batched hot path
    estimator.sync()                                    # after graph updates
"""

from repro.api import Capabilities, SimRankEstimator, SimRankService
from repro.baselines import MonteCarlo, PowerMethod, SLINGIndex, TSFIndex, TopSim
from repro.core import ProbeSim, ProbeSimConfig, SimRankResult, TopKResult
from repro.errors import ReproError
from repro.extensions import AdaptiveTopK, WalkIndex
from repro.graph import CSRGraph, DiGraph
from repro.storage import (
    PersistentGraphStore,
    attach_snapshot,
    ingest_edge_list,
    recover,
    write_snapshot,
)
from repro.workloads import WorkloadConfig, WorkloadTrace, generate_workload, run_workload

__version__ = "3.0.0"

__all__ = [
    "AdaptiveTopK",
    "CSRGraph",
    "Capabilities",
    "DiGraph",
    "MonteCarlo",
    "PersistentGraphStore",
    "PowerMethod",
    "ProbeSim",
    "ProbeSimConfig",
    "ReproError",
    "SLINGIndex",
    "SimRankEstimator",
    "SimRankResult",
    "SimRankService",
    "TSFIndex",
    "TopKResult",
    "TopSim",
    "WalkIndex",
    "WorkloadConfig",
    "WorkloadTrace",
    "__version__",
    "attach_snapshot",
    "generate_workload",
    "ingest_edge_list",
    "recover",
    "run_workload",
    "write_snapshot",
]
