"""Outside-in tracer for the loopfact layers.

The tracer wraps public functions of the package modules from outside:
nothing under ``src/`` knows about it.  Each call of a wrapped function
while a job runs records one span (name, start, end, parent span, job
id); spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct child spans cover, so time spent in an
unwrapped helper (``star``, ``truncate``, ``project``, ``coeff`` and every
private function) counts toward the wrapped caller.

Some wrapped functions also carry *computed* counters, derived from
argument and result sizes only, so they repeat exactly for the same job
inputs.

A function is rebound at every place that holds it: its defining module,
every module that imported it by name, the package ``__init__``, the
benchmark's own modules, and (for methods) the class.  ``install`` then
scans those places again and refuses to run if any binding still holds
an original, so a missed import cannot silently drop time out of the
trace.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "laurent", "rootsub", "toeplitz", "factor", "combinat")


def _macs(args, kwargs, result):
    a, b = args
    return len(a.coefficients) * (len(b.coefficients) if hasattr(b, "coefficients") else 1)


def _term_points(args, kwargs, result):
    series, z = args
    return len(series.coefficients) * np.size(z)


def _square_bytes(args, kwargs, result):
    # every builder returns a 2(N+1)-square complex matrix
    n = args[1] if len(args) > 1 else kwargs["N"]
    return 16 * (2 * (n + 1)) ** 2


def _scalar_bytes(args, kwargs, result):
    return 16 * result.size


def _dim3(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["N"]
    return (2 * (n + 1)) ** 3


def _peel_steps(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n_max"]


def _table_entries(args, kwargs, result):
    return len(result.entries)


def _written_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    return os.path.getsize(out) if out else 0


# (module, attribute, span name, {computed counter name: function}).
# A dotted attribute names a method on a class of that module.
WRAPPED = (
    ("laurent", "LaurentSeries.__mul__", "laurent.mul", {"laurent.mul.macs": _macs}),
    ("laurent", "LaurentSeries.__add__", "laurent.add", {}),
    ("laurent", "LaurentSeries.evaluate", "laurent.evaluate",
     {"laurent.evaluate.term_points": _term_points}),
    ("laurent", "LoopMatrix.__matmul__", "laurent.matmul", {}),
    ("laurent", "CircleGrid.analyze", "laurent.grid", {}),
    ("laurent", "CircleGrid.synthesize", "laurent.grid", {}),
    ("laurent", "invert_series", "laurent.invert_series", {}),
    ("laurent", "unitarity_defect", "laurent.unitarity_defect", {}),
    ("laurent", "series_to_json", "laurent.json", {}),
    ("laurent", "series_from_json", "laurent.json", {}),
    ("laurent", "loop_to_json", "laurent.json", {}),
    ("laurent", "loop_from_json", "laurent.json", {}),
    ("rootsub", "elementary_factor", "rootsub.elementary_factor", {}),
    ("rootsub", "partial_product", "rootsub.partial_product", {}),
    ("toeplitz", "compress", "toeplitz.compress", {"toeplitz.compress.bytes": _square_bytes}),
    ("toeplitz", "scalar_compress", "toeplitz.scalar_compress",
     {"toeplitz.compress.bytes": _scalar_bytes}),
    ("toeplitz", "direct_shifted", "toeplitz.direct_shifted",
     {"toeplitz.compress.bytes": _square_bytes}),
    ("toeplitz", "det_AstarA", "toeplitz.det_AstarA", {}),
    ("toeplitz", "birkhoff", "toeplitz.birkhoff", {"toeplitz.birkhoff.dim3": _dim3}),
    ("toeplitz", "triangular", "toeplitz.triangular", {}),
    ("factor", "exp_series", "factor.exp_series", {}),
    ("factor", "k2_from_x", "factor.k2_from_x", {}),
    ("factor", "zeta_from_loop", "factor.zeta_from_loop",
     {"factor.zeta_from_loop.steps": _peel_steps}),
    ("factor", "compose_rootsub", "factor.compose_rootsub", {}),
    ("factor", "rootsub_factorize", "factor.rootsub_factorize", {}),
    ("factor", "verify_identities", "factor.verify_identities", {}),
    ("combinat", "full_x", "combinat.full_x", {}),
    ("combinat", "coefficient_tables", "combinat.coefficient_tables",
     {"combinat.coefficient_tables.entries": _table_entries}),
    ("combinat", "certify_tables", "combinat.certify_tables", {}),
    ("cli", "main", "cli.main", {}),
    ("cli", "read_document", "cli.read_document", {}),
    ("cli", "write_document", "cli.write_document", {"cli.write_document.bytes": _written_bytes}),
)

# Per-layer metrics reported by a traced run; the order is BENCHMARK.json's.
SPAN_STATS = (
    ("laurent.mul", ("calls", "self_ms")),
    ("laurent.add", ("calls", "self_ms")),
    ("laurent.evaluate", ("calls", "self_ms")),
    ("laurent.matmul", ("self_ms",)),
    ("laurent.invert_series", ("calls", "self_ms")),
    ("laurent.json", ("self_ms",)),
    ("rootsub.partial_product", ("calls", "self_ms")),
    ("toeplitz.compress", ("calls", "self_ms")),
    ("toeplitz.scalar_compress", ("self_ms",)),
    ("toeplitz.direct_shifted", ("self_ms",)),
    ("toeplitz.birkhoff", ("calls", "self_ms")),
    ("toeplitz.triangular", ("self_ms",)),
    ("toeplitz.det_AstarA", ("calls", "self_ms")),
    ("factor.zeta_from_loop", ("calls", "self_ms", "errors")),
    ("factor.k2_from_x", ("calls", "self_ms", "errors")),
    ("factor.exp_series", ("calls", "self_ms")),
    ("factor.compose_rootsub", ("self_ms",)),
    ("factor.rootsub_factorize", ("self_ms",)),
    ("factor.verify_identities", ("self_ms",)),
    ("combinat.full_x", ("calls", "self_ms")),
    ("combinat.coefficient_tables", ("calls", "self_ms")),
    ("combinat.certify_tables", ("self_ms",)),
    ("cli.main", ("calls", "self_ms", "errors")),
    ("cli.read_document", ("self_ms",)),
    ("cli.write_document", ("self_ms",)),
)
COUNTERS = sorted({name for *_, counters in WRAPPED for name in counters})
STAT_UNITS = {"calls": "calls/job", "self_ms": "ms/job", "errors": "errors/job"}


def _counter_unit(name: str) -> str:
    return "B/job" if name.endswith(".bytes") else "count/job"


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for span, stats in SPAN_STATS:
        for stat in stats:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    for name in COUNTERS:
        units[name] = _counter_unit(name)
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/job"
    units["trace.jobs_per_s"] = "1/s"
    units["trace.covered_share"] = "ratio"
    return units


class Tracer:
    """Span recorder; wrappers record only while ``job`` is not None."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self.counters = {name: 0 for name in COUNTERS}
        self.job: int | None = None
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str, counters: dict):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(self.span_end)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1])
            self.span_job.append(self.job)
            self.span_error.append(0)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_error[idx] = 1
                raise
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
            for counter, count in counters.items():
                self.counters[counter] += count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str, extra_modules=()):
        """Wrap every entry of WRAPPED at every binding site.

        Binding sites are the globals of every loaded module of
        ``package`` and of ``extra_modules``, plus class attributes for
        methods.  Raises RuntimeError if an original stays reachable.
        """
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        modules += list(extra_modules)
        replaced = {}
        for mod_name, attr, name, counters in WRAPPED:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.wrap(original, name, counters)
                self._patch(cls, meth, original, wrapped)
            else:
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, counters)
            replaced[id(original)] = (original, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])
        for module in modules:
            for key, value in vars(module).items():
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__}.{key} escaped the tracer")

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self, job_seconds: list[float], jobs_per_s: float) -> dict:
        """Per-job averages of every per-layer metric over the traced jobs."""
        jobs = len(job_seconds)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        errors = np.frombuffer(self.span_error, dtype=np.int8)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time
        slots = len(self.names)
        calls = np.bincount(names, minlength=slots)
        self_ms = np.bincount(names, weights=self_time, minlength=slots) * 1e3
        raised = np.bincount(names, weights=errors, minlength=slots)

        def per_job(value) -> float:
            return float(value) / jobs

        values = {}
        table = {"calls": calls, "self_ms": self_ms, "errors": raised}
        for span, stats in SPAN_STATS:
            nid = self.name_ids[span]
            for stat in stats:
                values[f"{span}.{stat}"] = per_job(table[stat][nid])
        for name in COUNTERS:
            values[name] = per_job(self.counters[name])
        for layer in LAYERS:
            total = sum(
                self_ms[nid] for name, nid in self.name_ids.items()
                if name.split(".")[0] == layer
            )
            values[f"{layer}.self_ms"] = per_job(total)
        values["trace.jobs_per_s"] = jobs_per_s
        values["trace.covered_share"] = float(duration[~nested].sum()) / sum(job_seconds)
        units = metric_units()
        return {name: {"value": values[name], "unit": units[name]} for name in units}
