"""The perf-regression gate tool: directions, thresholds, bootstrap."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from check_bench_regression import compare, main, metric_direction  # noqa: E402


def write(path: Path, gate: dict) -> Path:
    path.write_text(json.dumps({"bench": "x", "gate": gate}), encoding="utf-8")
    return path


class TestDirections:
    def test_throughput_metrics_are_higher_better(self):
        assert metric_direction("qps:process:w4") == "higher"
        assert metric_direction("speedup:cache") == "higher"
        assert metric_direction("hit:rate:cached") == "higher"

    def test_latency_metrics_are_lower_better(self):
        assert metric_direction("p95_ms:thread:w1") == "lower"
        assert metric_direction("latency:single-native_s:n10000-m30000") == "lower"

    def test_unknown_prefix_is_rejected(self):
        with pytest.raises(SystemExit):
            metric_direction("vibes:excellent")


class TestCompare:
    def test_within_threshold_passes(self):
        assert compare({"qps:a": 90.0}, {"qps:a": 100.0}, 0.20) == []
        assert compare({"p95_ms:a": 115.0}, {"p95_ms:a": 100.0}, 0.20) == []

    def test_qps_drop_fails(self):
        failures = compare({"qps:a": 70.0}, {"qps:a": 100.0}, 0.20)
        assert len(failures) == 1 and "qps:a" in failures[0]

    def test_latency_rise_fails(self):
        failures = compare({"p95_ms:a": 130.0}, {"p95_ms:a": 100.0}, 0.20)
        assert len(failures) == 1 and "p95_ms:a" in failures[0]

    def test_missing_metric_fails(self):
        failures = compare({}, {"qps:a": 100.0}, 0.20)
        assert "missing" in failures[0]

    def test_zero_baseline_is_skipped(self):
        assert compare({"qps:a": 1.0}, {"qps:a": 0.0}, 0.20) == []


class TestCli:
    def test_bootstrap_passes_without_baseline(self, tmp_path):
        current = write(tmp_path / "current.json", {"qps:a": 10.0})
        assert main([str(current), str(tmp_path / "missing.json")]) == 0

    def test_strict_bootstrap_fails(self, tmp_path):
        current = write(tmp_path / "current.json", {"qps:a": 10.0})
        assert main([str(current), str(tmp_path / "missing.json"), "--strict"]) == 1

    def test_update_blesses_then_gate_passes_and_fails(self, tmp_path):
        current = write(tmp_path / "current.json", {"qps:a": 10.0})
        baseline = tmp_path / "baseline.json"
        assert main([str(current), str(baseline), "--update"]) == 0
        assert main([str(current), str(baseline)]) == 0
        regressed = write(tmp_path / "slow.json", {"qps:a": 7.0})
        assert main([str(regressed), str(baseline)]) == 1

    def test_empty_gate_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bench": "x"}), encoding="utf-8")
        with pytest.raises(SystemExit):
            main([str(bad), str(bad)])

    def test_committed_baselines_self_compare(self):
        """The blessed baselines stay parseable and direction-valid."""
        baselines = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
        for path in sorted(baselines.glob("BENCH_*.json")):
            assert main([str(path), str(path)]) == 0


class TestComparabilityGuard:
    def write_full(self, path, gate, **meta):
        payload = {"bench": "x", "gate": gate, **meta}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_preset_mismatch_passes_without_verdict(self, tmp_path, capsys):
        smoke = self.write_full(tmp_path / "s.json", {"qps:a": 1.0}, preset="smoke")
        full = self.write_full(tmp_path / "f.json", {"qps:a": 100.0}, preset="full")
        assert main([str(smoke), str(full)]) == 0
        assert "not comparable" in capsys.readouterr().out

    def test_cores_mismatch_passes_without_verdict(self, tmp_path):
        a = self.write_full(tmp_path / "a.json", {"qps:a": 1.0}, cores=1)
        b = self.write_full(tmp_path / "b.json", {"qps:a": 100.0}, cores=4)
        assert main([str(a), str(b)]) == 0

    def test_strict_turns_mismatch_into_failure(self, tmp_path):
        a = self.write_full(tmp_path / "a.json", {"qps:a": 1.0}, cores=1)
        b = self.write_full(tmp_path / "b.json", {"qps:a": 100.0}, cores=4)
        assert main([str(a), str(b), "--strict"]) == 1

    def test_matching_meta_still_gates(self, tmp_path):
        a = self.write_full(tmp_path / "a.json", {"qps:a": 70.0},
                            preset="full", cores=4)
        b = self.write_full(tmp_path / "b.json", {"qps:a": 100.0},
                            preset="full", cores=4)
        assert main([str(a), str(b)]) == 1
