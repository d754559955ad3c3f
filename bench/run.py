"""loopfact benchmark: one client, closed loop, four job workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

The benchmark imports loopfact from ``src/`` of the checkout it sits in and
refuses to run without it.  Every job is checked against the contractual
bounds of ``tests/test_acceptance.py``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``{"info": ...}``) records the machine,
the library versions, the job count and the filesystem that job outputs
were written to.

``--trace 0`` reports the end-to-end metrics: ``jobs_per_s``,
``job_ms.p50``, ``job_ms.p90``, ``setup_s`` and ``peak_rss_mb``.
``--trace 1`` installs the outside-in tracer of ``spans.py`` after the
warm-up and reports per-layer metrics as averages per job; comparing its
``trace.jobs_per_s`` with the untraced ``jobs_per_s`` gives the tracing
overhead.

A run repeats whole cycles of its workload's job mix until the timed job
time reaches ``--seconds`` and at least 100 jobs ran, so p90 always has
ten samples beyond it.  A tiny ``--seconds`` therefore fixes the job
count (the first whole cycle at or past 100 jobs), so the computed per-layer
counts of a traced run repeat exactly for one seed.
"""

from __future__ import annotations

import os

# BLAS and OpenMP are pinned before numpy loads: the run is the
# single-threaded baseline, and thread pools on a shared machine are noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_JOBS = 100
SETUP_PROBES = 7
WORKLOAD_NAMES = ("roundtrip", "triangular-wide", "residue", "exact-tables")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import loopfact from this checkout's src/ and nowhere else."""
    if not (SRC / "loopfact" / "__init__.py").is_file():
        sys.exit(f"bench: no loopfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loopfact

    if Path(loopfact.__file__).resolve().parent != SRC / "loopfact":
        sys.exit(f"bench: imported loopfact from {loopfact.__file__}, not {SRC}")


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def blas_info() -> dict:
    """Live thread count and build of the OpenBLAS that numpy wheels bundle."""
    info = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    for path in sorted({line.split()[-1] for line in maps if "scipy_openblas" in line}):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if getter is not None and config is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            info.update(blas_threads=getter(), blas_config=config().decode())
            break
    return info


def environment(seed: int, workdir: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "output_filesystem": filesystem_of(workdir),
        **blas_info(),
    }


class Runner:
    """Prepares, times and checks the jobs of one workload."""

    def __init__(self, workload, seed: int, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, index: int, tag: str):
        from workloads import Job

        directory = self.workdir / f"{tag}-{index}"
        directory.mkdir()
        job = Job(index, directory)
        self.workload.prepare(self.seed, job)
        return job

    def execute(self, job) -> float:
        """Run one job; returns its wall time in seconds (checks excluded)."""
        self.attempted += 1
        error = None
        # every job starts from an empty collector, as a fresh CLI process would
        gc.collect()
        if self.tracer is not None:
            self.tracer.job = job.index
        start = time.perf_counter()
        try:
            self.workload.run(job)
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.job = None
        if error is None:
            try:
                error = self.workload.check(job)
            except Exception as exc:  # unreadable or malformed output fails the job
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"job {job.index}: {error}")
        return elapsed

    def timed_loop(self, seconds: float) -> list[float]:
        times: list[float] = []
        cycle = self.workload.cycle
        while True:
            index = len(times)
            job = self.job(index, "t")
            times.append(self.execute(job))
            shutil.rmtree(job.directory)
            if len(times) % cycle == 0 and len(times) >= MIN_JOBS and sum(times) >= seconds:
                return times

    def check_rerun(self, first, second) -> None:
        """Byte determinism: a rerun of a job writes the same output bytes."""
        try:
            same = all(a.read_bytes() == b.read_bytes()
                       for a, b in zip(first.outputs, second.outputs))
        except OSError as exc:
            self.failures.append(f"rerun of job {first.index}: {exc}")
            return
        if not same:
            self.failures.append(f"rerun of job {first.index} wrote different bytes")


def measure_setup(args) -> float:
    """Median over fresh processes of spawn -> warm-up job done.

    perf_counter is CLOCK_MONOTONIC on Linux, so the child's reading is
    comparable with the parent's.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return statistics.median(samples)


def jobs_per_second(times: list[float], cycle: int) -> float:
    """Jobs per second from the median time of a whole cycle of the job mix,
    so that one slow stretch of a shared machine does not move it.  A timed
    run always holds whole cycles only."""
    cycles = [sum(times[k:k + cycle]) for k in range(0, len(times), cycle)]
    return cycle / statistics.median(cycles)


def percentile_ms(times: list[float], q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from spans import LAYERS, Tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, workdir)
        warm = runner.job(0, "warm")
        runner.execute(warm)
        if args.setup_probe:
            print(time.perf_counter())
            return 0

        if args.trace:
            runner.tracer = Tracer()
            runner.tracer.install("loopfact", extra_modules=(workloads,))
        times = runner.timed_loop(args.seconds)
        if runner.tracer is not None:
            runner.tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if workload.writes_files:
            again = runner.job(0, "again")
            runner.execute(again)
            runner.check_rerun(warm, again)

        if args.trace:
            metrics = runner.tracer.metrics(times, jobs_per_second(times, workload.cycle))
        else:
            metrics = {
                "jobs_per_s": {"value": jobs_per_second(times, workload.cycle), "unit": "1/s"},
                "job_ms.p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
                "job_ms.p90": {"value": percentile_ms(times, 90), "unit": "ms"},
                "setup_s": {"value": measure_setup(args), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
        info = {
            "workload": args.workload,
            "trace": args.trace,
            "timed_jobs": len(times),
            "samples_beyond_p90": len(times) - math.ceil(0.9 * len(times)),
            "failed_ratio": len(runner.failures) / runner.attempted,
            "failures": runner.failures[:5],
            "environment": environment(args.seed, workdir),
        }
        if args.trace:
            layers = {layer: metrics[f"{layer}.self_ms"]["value"] for layer in LAYERS}
            info["largest_layer"] = max(layers, key=layers.get)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
