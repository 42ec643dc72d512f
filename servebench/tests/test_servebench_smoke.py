"""Tiny runs of every workload, answer checks included, and the refusal
to run without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from servebench import common, durable_read_write, http_reads, layers

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK", tmp_path / "work")


def _check(run, ops_kind):
    assert run.mismatches == []
    assert run.phases["verify"].attempted > 0
    assert run.phases["measure"].failed == 0
    assert len(run.setups) == 2
    parts = [sum(values) for values in zip(*run.setup_parts.values())]
    assert parts == pytest.approx(run.setups)
    assert run.latency_ms[ops_kind]
    assert min(run.peaks_mb) > 0 and run.qps > 0


def test_http_reads_smoke():
    data = http_reads.make_inputs(1, 0.2, http_reads.Sizes(300, 4, 2))
    base, _ = http_reads.measure(data)
    _check(base, "query")
    assert base.phases["verify"].attempted == len(data["queries"])


def test_durable_read_write_traced_smoke():
    data = durable_read_write.make_inputs(2, 1, durable_read_write.Sizes(300, 4, 2))
    base, traced = durable_read_write.measure(data, traced=True)
    _check(base, "query")
    _check(traced, "update")
    values = durable_read_write.per_layer_metrics(base, traced)
    assert set(values) == set(layers.PER_LAYER)
    updates = len(traced.latency_ms["update"])
    assert values["graph.csr_build.count"] == updates
    assert values["storage.checkpoint.count"] == updates
    assert values["core.walks.count"] > 0 and values["core.trie.nodes"] > 0
    assert values["storage.bytes_written_per_update"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "http_reads", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
