"""Statistical validation of the paper's theorems, measured over many seeds.

These tests treat the implementation as a black box and verify the claimed
*distributional* properties: unbiasedness (Lemma 1), the (eps_a, delta)
guarantee (Theorems 1-3), and the Monte Carlo convergence rate.
"""

import numpy as np
import pytest

from repro import ProbeSim
from repro.datasets import TOY_DECAY
from repro.eval.metrics import abs_error_max


class TestUnbiasedness:
    """Lemma 1: E[s~(u, v)] = s(u, v) for every strategy."""

    @pytest.mark.parametrize("strategy", ["basic", "batch", "randomized", "hybrid"])
    def test_mean_estimate_converges_to_truth(self, toy, toy_truth, strategy):
        query = 0
        truth = toy_truth.single_source(query)
        total = np.zeros(toy.num_nodes)
        runs = 40
        for seed in range(runs):
            engine = ProbeSim(
                toy, c=TOY_DECAY, eps_a=0.2, delta=0.2, strategy=strategy,
                seed=seed, num_walks=150, prune=False,
            )
            total += engine.single_source(query).scores
        mean = total / runs
        # 40 * 150 = 6000 effective walks: CLT band ~ 4 * sqrt(0.13/6000)
        for v in range(1, toy.num_nodes):
            assert mean[v] == pytest.approx(truth[v], abs=0.02), v

    def test_truncation_bias_is_one_sided(self, toy, toy_truth):
        """With aggressive truncation (and no compensation), estimates can
        only undershoot in expectation."""
        query = 0
        truth = toy_truth.single_source(query)
        total = np.zeros(toy.num_nodes)
        runs = 30
        for seed in range(runs):
            engine = ProbeSim(
                toy, c=TOY_DECAY, eps_a=0.2, delta=0.2, seed=seed,
                num_walks=150, max_walk_length=2, strategy="batch",
            )
            total += engine.single_source(query).scores
        mean = total / runs
        for v in range(1, toy.num_nodes):
            assert mean[v] <= truth[v] + 0.015, v


class TestGuaranteeRate:
    """Theorem 1: Pr[all errors <= eps_a] >= 1 - delta, measured."""

    def test_failure_rate_below_delta(self, toy, toy_truth):
        eps_a, delta = 0.1, 0.2
        query = 0
        truth = toy_truth.single_source(query)
        failures = 0
        runs = 60
        for seed in range(runs):
            engine = ProbeSim(
                toy, c=TOY_DECAY, eps_a=eps_a, delta=delta, seed=seed
            )
            err = abs_error_max(engine.single_source(query).scores, truth, query)
            failures += err > eps_a
        # the Chernoff budget is loose, so the observed failure rate should
        # be far below delta — and certainly not above it.
        assert failures / runs <= delta

    def test_tight_budget_rarely_fails_at_half_eps(self, tiny_wiki, tiny_wiki_truth):
        """Looser sanity check on a real-ish graph: most runs land well
        inside the budget."""
        eps_a = 0.1
        query = 10
        truth = tiny_wiki_truth.single_source(query)
        within_half = 0
        runs = 10
        for seed in range(runs):
            engine = ProbeSim(tiny_wiki, eps_a=eps_a, delta=0.1, seed=seed)
            err = abs_error_max(engine.single_source(query).scores, truth, query)
            within_half += err <= eps_a / 2
        assert within_half >= 8


class TestEngineGuaranteeRegression:
    """Seeded regression: the Chernoff-derived walk budget keeps the
    empirical max error within eps_a at the configured delta — on the loop
    engine *and* the native kernel engine (whose counter RNG draws an
    entirely different walk set, so it needs its own statistical
    verification).  Seeds are fixed, so any
    future change to walk sampling, trie sharing or pruning that breaks
    the (eps_a, delta) guarantee fails this test deterministically."""

    EPS_A = 0.1
    DELTA = 0.2
    SEEDS = range(30)

    @pytest.mark.parametrize("engine", ["loop", "native"])
    def test_chernoff_budget_holds_on_toy(self, toy, toy_truth, engine):
        query = 0
        truth = toy_truth.single_source(query)
        failures = 0
        for seed in self.SEEDS:
            probe = ProbeSim(
                toy, c=TOY_DECAY, eps_a=self.EPS_A, delta=self.DELTA,
                strategy="batch", engine=engine, seed=seed,
            )
            err = abs_error_max(probe.single_source(query).scores, truth, query)
            failures += err > self.EPS_A
        assert failures / len(self.SEEDS) <= self.DELTA

    def test_engines_share_one_walk_budget(self, toy):
        """Both engines size the batch from the same Theorem 1 bound —
        the engine changes execution, never the statistical contract."""
        loop = ProbeSim(toy, c=TOY_DECAY, eps_a=self.EPS_A, delta=self.DELTA,
                        strategy="batch", engine="loop", seed=0)
        native = ProbeSim(toy, c=TOY_DECAY, eps_a=self.EPS_A, delta=self.DELTA,
                          strategy="batch", engine="native", seed=0)
        assert (
            loop.single_source(0).num_walks == native.single_source(0).num_walks
        )

    @pytest.mark.parametrize("engine", ["loop", "native"])
    def test_batched_queries_keep_the_guarantee(self, toy, toy_truth, engine):
        """single_source_many answers carry the same per-query guarantee."""
        queries = [0, 2, 5]
        probe = ProbeSim(
            toy, c=TOY_DECAY, eps_a=self.EPS_A, delta=0.05,
            strategy="batch", engine=engine, seed=1234,
        )
        for result in probe.single_source_many(queries):
            truth = toy_truth.single_source(result.query)
            assert abs_error_max(result.scores, truth, result.query) <= self.EPS_A


class TestConvergenceRate:
    def test_error_shrinks_with_walk_count(self, toy, toy_truth):
        """Monte Carlo scaling: quadrupling walks should roughly halve the
        average error (1/sqrt(n_r))."""
        query = 0
        truth = toy_truth.single_source(query)

        def mean_error(num_walks: int) -> float:
            errors = []
            for seed in range(12):
                engine = ProbeSim(
                    toy, c=TOY_DECAY, eps_a=0.2, delta=0.2, seed=seed,
                    num_walks=num_walks, strategy="batch",
                )
                errors.append(
                    abs_error_max(engine.single_source(query).scores, truth, query)
                )
            return float(np.mean(errors))

        err_small = mean_error(100)
        err_large = mean_error(1600)  # 16x walks -> ~4x smaller error
        assert err_large < err_small / 2.0

    def test_walk_count_scales_inverse_square(self, toy):
        from repro.core.config import ProbeSimConfig

        loose = ProbeSimConfig(eps_a=0.2, c=0.6).walk_count(1000)
        tight = ProbeSimConfig(eps_a=0.1, c=0.6).walk_count(1000)
        # halving eps quadruples the walk count (same delta, same n)
        assert tight == pytest.approx(4 * loose, rel=0.01)
