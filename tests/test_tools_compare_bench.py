"""Tests for the benchmark-regression gate script (tools/compare_bench.py)."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
SCRIPT = REPO / "tools" / "compare_bench.py"


def _bench_json(path, mins, cpus=None):
    doc = {
        "benchmarks": [
            {"name": name, "stats": {"min": value}}
            for name, value in mins.items()
        ]
    }
    if cpus is not None:
        doc["machine_info"] = {"cpu": {"count": cpus}}
    path.write_text(json.dumps(doc))
    return str(path)


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True,
    )


class TestGate:
    def test_within_threshold_passes(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {"bench_a": 1.019})
        proc = _run(base, cand, "--threshold", "0.02")
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_regression_fails(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {"bench_a": 1.05})
        proc = _run(base, cand, "--threshold", "0.02")
        assert proc.returncode == 1
        assert "regressed" in proc.stderr

    def test_speedup_passes(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {"bench_a": 0.5})
        assert _run(base, cand).returncode == 0

    def test_requested_benchmark_missing_is_an_error(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {"bench_a": 1.0})
        proc = _run(base, cand, "--benchmarks", "bench_a,bench_missing")
        assert proc.returncode == 2
        assert "bench_missing" in proc.stderr

    def test_disjoint_files_are_an_error(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {"bench_b": 1.0})
        proc = _run(base, cand)
        assert proc.returncode == 2
        # The message must be clear and unquoted: say nothing was
        # gated and name what each side actually contains.
        assert "no benchmarks in common" in proc.stderr
        assert "nothing was gated" in proc.stderr
        assert "bench_a" in proc.stderr and "bench_b" in proc.stderr
        assert "'no benchmarks" not in proc.stderr

    def test_empty_candidate_is_an_error(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0})
        cand = _bench_json(tmp_path / "cand.json", {})
        proc = _run(base, cand)
        assert proc.returncode == 2
        assert "candidate has: <none>" in proc.stderr

    def test_gates_only_named_benchmarks(self, tmp_path):
        base = _bench_json(tmp_path / "base.json",
                           {"bench_a": 1.0, "bench_b": 1.0})
        cand = _bench_json(tmp_path / "cand.json",
                           {"bench_a": 1.0, "bench_b": 9.0})
        proc = _run(base, cand, "--benchmarks", "bench_a")
        assert proc.returncode == 0, proc.stderr

    def test_different_cpu_counts_are_an_error(self, tmp_path):
        base = _bench_json(tmp_path / "base.json", {"bench_a": 1.0}, cpus=2)
        cand = _bench_json(tmp_path / "cand.json", {"bench_a": 1.0}, cpus=4)
        proc = _run(base, cand)
        assert proc.returncode == 2
        assert "2 CPUs" in proc.stderr and "4" in proc.stderr
        assert "nothing was gated" in proc.stderr
        same = _bench_json(tmp_path / "same.json", {"bench_a": 1.0}, cpus=2)
        assert _run(base, same).returncode == 0
