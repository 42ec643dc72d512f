"""Determinism rule: every random draw must be seed-derived and no hot
path may read the wall clock.

Bit-reproducibility is the repo's core contract (digests are compared
across engines, backends, worker counts, and restarts), so:

- module-global ``random.*`` / legacy ``np.random.*`` calls are banned;
- ``default_rng()`` without a concrete seed is flagged, including the
  sneaky form ``default_rng(seed)`` where ``seed`` is a parameter whose
  default is ``None`` (OS entropy at a distance);
- ``secrets.*`` is flagged (machine entropy by definition);
- wall-clock reads (``time.time()``, argless ``datetime.now()``) are
  flagged; server code must use monotonic ``Deadline`` clocks instead.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.visitor import ProjectIndex, SourceFile, dotted_name

_RANDOM_GLOBALS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "normalvariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "uniform",
    }
)
_NUMPY_OK = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"})
_WALL_CLOCK = frozenset({"time.time", "time.time_ns", "time.localtime", "datetime.utcnow"})


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class DeterminismRule(Rule):
    """Every random draw must derive from the run seed ("determinism by seed")."""

    rule_id = "determinism"
    description = (
        "RNG draws must be seed-derived (no global random/np.random state, no "
        "unseeded default_rng, no secrets); no wall-clock reads on serving paths"
    )

    def check(self, src: SourceFile, index: ProjectIndex) -> list[Finding]:
        """Flag nondeterministic RNG / entropy / wall-clock call sites."""
        findings: list[Finding] = []
        in_server = "server" in PurePosixPath(src.rel).parts
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            qual = src.qualname(node)
            if self._is_global_random(name, node):
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"{qual}:rng:{name}",
                        f"call to {name} uses process-global RNG state; "
                        "derive a Generator from the run seed instead",
                    )
                )
            elif self._is_unseeded_default_rng(src, name, node):
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"{qual}:default-rng:{name}",
                        f"{name} without a concrete seed falls back to OS entropy; "
                        "thread the run seed through",
                    )
                )
            elif name.startswith("secrets."):
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"{qual}:secrets:{name}",
                        f"{name} is machine entropy and can never be replayed; "
                        "results depending on it are not bit-reproducible",
                    )
                )
            elif self._is_wall_clock(name, node):
                hint = (
                    "use Deadline / time.monotonic so timeouts survive clock steps"
                    if in_server
                    else "use time.monotonic/perf_counter, or pass timestamps in"
                )
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"{qual}:wall-clock:{name}",
                        f"wall-clock read {name} is nondeterministic; {hint}",
                    )
                )
        return findings

    @staticmethod
    def _is_global_random(name: str, node: ast.Call) -> bool:
        if name.startswith("random."):
            tail = name.split(".", 1)[1]
            if tail in _RANDOM_GLOBALS:
                return True
            if tail == "Random" and not node.args and not node.keywords:
                return True
            return False
        for prefix in ("np.random.", "numpy.random."):
            if name.startswith(prefix):
                tail = name[len(prefix) :]
                return tail not in _NUMPY_OK
        return False

    @staticmethod
    def _is_unseeded_default_rng(src: SourceFile, name: str, node: ast.Call) -> bool:
        if name.split(".")[-1] != "default_rng":
            return False
        if node.keywords:
            return False
        if not node.args:
            return True
        seed = node.args[0]
        if _is_none(seed):
            return True
        if isinstance(seed, ast.Name):
            function = src.enclosing_function(node)
            if function is not None and _parameter_defaults_none(function, seed.id):
                return True
        return False

    @staticmethod
    def _is_wall_clock(name: str, node: ast.Call) -> bool:
        if name in _WALL_CLOCK:
            return True
        if name.split(".")[-1] == "now" and not node.args and not node.keywords:
            return name in ("datetime.now", "datetime.datetime.now")
        return False


def _parameter_defaults_none(
    function: ast.FunctionDef | ast.AsyncFunctionDef, param: str
) -> bool:
    """Whether ``param`` is a parameter of ``function`` defaulting to None."""
    args = function.args
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if arg.arg == param:
            default_index = position - offset
            if 0 <= default_index < len(args.defaults):
                return _is_none(args.defaults[default_index])
            return False
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == param:
            return default is not None and _is_none(default)
    return False
