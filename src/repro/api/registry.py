"""Name → estimator-factory registry for every implemented SimRank method.

One place maps the method names used throughout the paper's experiments
(``"probesim"``, ``"sling"``, ``"tsf"``, ``"topsim"``, ``"mc"``, ``"power"``,
plus the strategy variants and the §7 extensions) to factories with keyword
configuration.  The CLI, the experiment runner, the benchmark harness, and
:class:`repro.api.service.SimRankService` all construct methods exclusively
through :func:`create`, so adding a method is one :func:`register` call.

Each :class:`MethodEntry` also declares ``config_keys`` — the keyword knobs
its factory accepts — so generic callers (the CLI) can filter a superset of
options down to what a method understands, and ``probe_config`` — a cheap
configuration used to instantiate the method on tiny graphs for capability
introspection and conformance testing.

Implementation note: estimator classes import :mod:`repro.api.estimator`, so
this module must not import them at module load time (it would be a cycle);
the built-in entries are registered lazily on first registry access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.estimator import Capabilities
from repro.errors import ConfigurationError

__all__ = [
    "MethodEntry",
    "available_methods",
    "capability_rows",
    "create",
    "get_entry",
    "method_names",
    "register",
]


@dataclass(frozen=True)
class MethodEntry:
    """One registered method: a named factory plus its configuration surface.

    ``capabilities`` is the method's static capability descriptor, declared
    at registration so listings never need to build an estimator; instances
    must agree with it (enforced by the protocol-conformance tests).  Entries
    registered without one fall back to instantiation in
    :func:`capability_rows`.
    """

    name: str
    factory: Callable
    summary: str = ""
    config_keys: tuple[str, ...] = ()
    probe_config: dict = field(default_factory=dict)
    capabilities: Capabilities | None = None

    def build(self, graph, **config):
        """Construct the estimator on ``graph`` after validating ``config``."""
        unknown = sorted(set(config) - set(self.config_keys))
        if unknown:
            raise ConfigurationError(
                f"method {self.name!r} does not accept config keys {unknown}; "
                f"allowed: {sorted(self.config_keys)}"
            )
        return self.factory(graph, **config)


_REGISTRY: dict[str, MethodEntry] = {}
_BUILTINS_LOADED = False


def register(
    name: str,
    factory: Callable,
    summary: str = "",
    config_keys: tuple[str, ...] = (),
    probe_config: dict | None = None,
    capabilities: Capabilities | None = None,
    replace: bool = False,
) -> MethodEntry:
    """Register an estimator factory under ``name``.

    ``factory(graph, **config)`` must return an object conforming to
    :class:`repro.api.estimator.SimRankEstimator`.  Registering an existing
    name raises unless ``replace=True``.
    """
    _ensure_builtins()
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"method {name!r} is already registered")
    entry = MethodEntry(
        name=name,
        factory=factory,
        summary=summary,
        config_keys=tuple(config_keys),
        probe_config=dict(probe_config or {}),
        capabilities=capabilities,
    )
    _REGISTRY[name] = entry
    return entry


def get_entry(name: str) -> MethodEntry:
    """Look up one registry entry, with a helpful error for unknown names."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; registered: {', '.join(method_names())}"
        ) from None


def create(name: str, graph, **config):
    """Construct the estimator registered under ``name`` on ``graph``."""
    return get_entry(name).build(graph, **config)


def method_names() -> list[str]:
    """All registered method names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def available_methods() -> list[MethodEntry]:
    """All registry entries, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in method_names()]


def capability_rows() -> list[dict[str, object]]:
    """Capability table of every registered method (CLI / README table).

    Uses each entry's statically declared capabilities; an entry registered
    without one is instantiated (with its cheap ``probe_config``) on a
    2-node probe graph just to ask
    :meth:`~repro.api.estimator.SimRankEstimator.capabilities`.
    """
    rows = []
    probe = None
    for entry in available_methods():
        caps = entry.capabilities
        if caps is None:
            if probe is None:
                from repro.graph.digraph import DiGraph

                probe = DiGraph.from_edges([(0, 1), (1, 0)])
            caps = entry.build(probe, **entry.probe_config).capabilities()
        row = caps.as_row()
        row["name"] = entry.name
        row["summary"] = entry.summary
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# built-in entries (registered lazily; see module docstring)
# --------------------------------------------------------------------- #

_PROBESIM_KEYS = (
    "c", "eps_a", "delta", "seed", "num_walks", "max_walk_length", "backend",
    "engine", "sampling_fraction", "truncation_fraction", "pruning_fraction",
    "compensate_truncation", "prune", "hybrid_switch_constant",
)
_PROBESIM_PROBE = {"eps_a": 0.2, "delta": 0.1, "num_walks": 60}


def _register_builtins() -> None:
    """Register the paper's six methods, the strategy variants, and the
    §7 extensions.  Runs once, on first registry access."""
    from repro.baselines.monte_carlo import MonteCarlo
    from repro.baselines.power import PowerMethod
    from repro.baselines.sling import SLINGIndex
    from repro.baselines.topsim import TopSim
    from repro.baselines.tsf import TSFIndex
    from repro.core.engine import ProbeSim
    from repro.extensions.adaptive_topk import AdaptiveTopK
    from repro.extensions.walk_index import WalkIndex

    def probesim_factory(strategy: str | None):
        """Factory for ProbeSim, optionally pinned to one strategy."""
        def factory(graph, **config):
            if strategy is not None:
                config["strategy"] = strategy
            return ProbeSim(graph, **config)
        return factory

    def probesim_caps(strategy: str) -> Capabilities:
        """ProbeSim's capability profile (index-free, O(m) sync); engine="auto"
        runs the deterministic dedup strategy on the native kernels."""
        native = strategy == "batch"
        return Capabilities(
            method=f"probesim-{strategy}", exact=False, index_based=False,
            supports_dynamic=True, incremental_updates=False,
            vectorized=native, parallel_safe=True, native=native,
        )

    register(
        "probesim",
        probesim_factory(None),
        summary="index-free ProbeSim, configurable strategy (default hybrid)",
        config_keys=_PROBESIM_KEYS + ("strategy",),
        probe_config=_PROBESIM_PROBE,
        capabilities=probesim_caps("hybrid"),
    )
    for strategy in ("basic", "batch", "randomized", "hybrid"):
        register(
            f"probesim-{strategy}",
            probesim_factory(strategy),
            summary=f"ProbeSim pinned to the {strategy!r} strategy",
            config_keys=_PROBESIM_KEYS,
            probe_config=_PROBESIM_PROBE,
            capabilities=probesim_caps(strategy),
        )

    def probesim_native_factory(graph, **config):
        """ProbeSim pinned to the native (numba/numpy) kernel engine."""
        config.setdefault("strategy", "batch")
        return ProbeSim(graph, engine="native", **config)

    register(
        "probesim-native",
        probesim_native_factory,
        summary="ProbeSim on native kernels (numba, numpy fallback); "
                "bit-reproducible per (seed, query)",
        config_keys=tuple(k for k in _PROBESIM_KEYS if k != "engine") + ("strategy",),
        probe_config=_PROBESIM_PROBE,
        capabilities=Capabilities(
            method="probesim-native", exact=False, index_based=False,
            supports_dynamic=True, incremental_updates=False, vectorized=True,
            parallel_safe=True, native=True,
        ),
    )

    def walkindex_factory(graph, **config):
        """ProbeSim behind the §7 walk-tree cache."""
        return WalkIndex(graph, **config)

    register(
        "probesim-walkindex",
        walkindex_factory,
        summary="ProbeSim + cached walk trees with fine-grained invalidation",
        config_keys=_PROBESIM_KEYS + ("strategy",),
        probe_config=_PROBESIM_PROBE,
        capabilities=Capabilities(
            method="probesim-walkindex", exact=False, index_based=True,
            supports_dynamic=True, incremental_updates=True, vectorized=False,
            parallel_safe=True, native=False,
        ),
    )

    def adaptive_factory(graph, **config):
        """ProbeSim with early-stopping top-k."""
        return AdaptiveTopK(graph, **config)

    register(
        "probesim-adaptive",
        adaptive_factory,
        summary="ProbeSim with early-stopping (adaptive-budget) top-k",
        config_keys=_PROBESIM_KEYS + ("strategy", "initial_batch"),
        probe_config={**_PROBESIM_PROBE, "initial_batch": 16},
        capabilities=Capabilities(
            method="probesim-adaptive", exact=False, index_based=False,
            supports_dynamic=True, incremental_updates=False, vectorized=False,
            parallel_safe=True, native=False,
        ),
    )

    def mc_factory(graph, c=0.6, eps_a=0.1, delta=0.01, num_walks=None, seed=None):
        """Index-free Monte Carlo fingerprints (§2.2)."""
        return MonteCarlo(
            graph, c=c, seed=seed, eps_a=eps_a, delta=delta, num_walks=num_walks
        )

    register(
        "mc",
        mc_factory,
        summary="index-free Monte Carlo √c-walk fingerprints",
        config_keys=("c", "eps_a", "delta", "num_walks", "seed"),
        probe_config={"num_walks": 60},
        capabilities=Capabilities(
            method="mc", exact=False, index_based=False, supports_dynamic=True,
            incremental_updates=False, vectorized=False, parallel_safe=True,
            native=False,
        ),
    )

    def power_factory(graph, c=0.6, iterations=55, seed=None):
        """Exact all-pairs Power Method (deterministic; ``seed`` ignored)."""
        del seed
        return PowerMethod(graph, c=c, iterations=iterations)

    register(
        "power",
        power_factory,
        summary="exact all-pairs Power Method (small graphs only)",
        config_keys=("c", "iterations", "seed"),
        capabilities=Capabilities(
            method="power-method", exact=True, index_based=False,
            supports_dynamic=False, incremental_updates=False, vectorized=False,
            parallel_safe=False, native=False,
        ),
    )

    def topsim_factory(variant: str):
        """Factory for one TopSim variant (deterministic; ``seed`` ignored)."""
        def factory(graph, c=0.6, depth=3, degree_threshold=100, eta=0.001,
                    priority_width=100, seed=None):
            del seed
            return TopSim(
                graph, c=c, depth=depth, variant=variant,
                degree_threshold=degree_threshold, eta=eta,
                priority_width=priority_width,
            )
        return factory

    def topsim_caps(method: str) -> Capabilities:
        """The TopSim family's capability profile (index-free, truncated)."""
        return Capabilities(
            method=method, exact=False, index_based=False, supports_dynamic=True,
            incremental_updates=False, vectorized=False, parallel_safe=True,
            native=False,
        )

    topsim_keys = ("c", "depth", "degree_threshold", "eta", "priority_width", "seed")
    register(
        "topsim",
        topsim_factory("full"),
        summary="exhaustive truncated search TopSim-SM",
        config_keys=topsim_keys,
        capabilities=topsim_caps("topsim-sm"),
    )
    register(
        "trun-topsim",
        topsim_factory("truncated"),
        summary="Trun-TopSim-SM (degree/probability-trimmed TopSim)",
        config_keys=topsim_keys,
        capabilities=topsim_caps("trun-topsim-sm"),
    )
    register(
        "prio-topsim",
        topsim_factory("prioritized"),
        summary="Prio-TopSim-SM (priority-width-bounded TopSim)",
        config_keys=topsim_keys,
        capabilities=topsim_caps("prio-topsim-sm"),
    )

    def tsf_factory(graph, c=0.6, rg=300, rq=40, depth=10, seed=None):
        """TSF one-way-graph index with incremental updates."""
        return TSFIndex(graph, c=c, rg=rg, rq=rq, depth=depth, seed=seed)

    register(
        "tsf",
        tsf_factory,
        summary="TSF one-way-graph index, incremental dynamic maintenance",
        config_keys=("c", "rg", "rq", "depth", "seed"),
        probe_config={"rg": 20, "rq": 4, "depth": 6},
        capabilities=Capabilities(
            method="tsf", exact=False, index_based=True,
            supports_dynamic=True, incremental_updates=True, vectorized=False,
            parallel_safe=True, native=False,
        ),
    )

    def sling_factory(graph, c=0.6, theta=1e-4, depth=None, d_mode="exact",
                      d_samples=2_000, seed=None):
        """SLING last-meeting index (static; rebuild-only maintenance)."""
        return SLINGIndex(
            graph, c=c, theta=theta, depth=depth, d_mode=d_mode,
            d_samples=d_samples, seed=seed,
        )

    register(
        "sling",
        sling_factory,
        summary="SLING static index: fastest queries, rebuild-only updates",
        config_keys=("c", "theta", "depth", "d_mode", "d_samples", "seed"),
        probe_config={"theta": 1e-3},
        capabilities=Capabilities(
            method="sling", exact=False, index_based=True,
            supports_dynamic=False, incremental_updates=False, vectorized=False,
            parallel_safe=False, native=False,
        ),
    )


def _ensure_builtins() -> None:
    """Idempotently register the built-in methods."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    _register_builtins()
