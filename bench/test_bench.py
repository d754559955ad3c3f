"""Self-checks of the benchmark: trace coverage and exactly repeating counts.

Run from the repository root:

    python -m pytest bench/test_bench.py -q

Each workload runs twice, traced, on the same seed.  ``--seconds 0.001``
stops each run at its first whole cycle of at least 100 jobs, so both runs
do the same jobs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import COUNTERS, SPAN_STATS  # noqa: E402

SEED = 11
WORKLOADS = ("roundtrip", "triangular-wide", "residue", "exact-tables")

# Where each per-layer metric does its work, so where it must read above
# zero.  The Toeplitz builders other than compress, and det_AstarA, run
# only inside verify, hence on roundtrip.
MOVES = {
    "laurent.": ("roundtrip",),
    "rootsub.partial_product.": ("roundtrip",),
    "toeplitz.compress.": ("triangular-wide", "roundtrip"),
    "toeplitz.birkhoff.": ("triangular-wide", "roundtrip"),
    "toeplitz.triangular.": ("triangular-wide", "roundtrip"),
    "toeplitz.scalar_compress.": ("roundtrip",),
    "toeplitz.direct_shifted.": ("roundtrip",),
    "toeplitz.det_AstarA.": ("roundtrip",),
    "factor.k2_from_x.": ("residue",),
    "factor.": ("roundtrip",),
    "combinat.full_x.": ("residue",),
    "combinat.coefficient_tables.": ("exact-tables",),
    "combinat.certify_tables.": ("exact-tables",),
    "cli.": ("triangular-wide", "roundtrip"),
}


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def traced(workload: str) -> dict:
    done = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.001",
                     "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: (traced(w), traced(w)) for w in WORKLOADS}


def moved_on(metric: str) -> tuple:
    prefix = max((p for p in MOVES if metric.startswith(p)), key=len)
    return MOVES[prefix]


@pytest.mark.parametrize(
    "metric",
    [f"{span}.{stat}" for span, stats in SPAN_STATS for stat in stats if stat != "errors"]
    + COUNTERS,
)
def test_metric_nonzero_where_its_layer_works(traced_runs, metric):
    for workload in moved_on(metric):
        assert traced_runs[workload][0][metric] > 0, (metric, workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_computed_counts_repeat_exactly(traced_runs, workload):
    first, second = traced_runs[workload]
    repeated = COUNTERS + [
        f"{span}.calls" for span, stats in SPAN_STATS if "calls" in stats
    ]
    assert {m: first[m] for m in repeated} == {m: second[m] for m in repeated}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_root_spans_cover_the_jobs(traced_runs, workload):
    assert traced_runs[workload][0]["trace.covered_share"] > 0.95


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "residue", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
