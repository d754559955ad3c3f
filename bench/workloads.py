"""The four benchmark workloads: job inputs, the timed job, and its checks.

Job ``i`` of a run draws its inputs from ``(workload seed, i)`` only, and
the program sees nothing but the generated files (or, for
``compose --random``, a seed derived the same way).  CLI jobs call
``loopfact.cli.main(argv)`` in-process and write every output to a fresh
file name: on some disks overwriting a non-empty file costs tens of
milliseconds, which would time the disk instead of loopfact.

Every check reuses a contractual bound of ``tests/test_acceptance.py``
unchanged.  A check returns None when the job is correct and a short
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loopfact import cli, combinat
from loopfact.factor import RootSubgroupData
from loopfact.laurent import LaurentSeries
from loopfact.rootsub import RootParams

DIGESTS = json.loads((Path(__file__).parent / "exact_digests.json").read_text())


@dataclass
class Job:
    index: int
    directory: Path
    argvs: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    codes: list = field(default_factory=list)
    result: object = None


def job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def params_gap(got: RootParams, want: RootParams) -> float:
    """Largest coefficient gap, missing trailing values read as zero."""
    size = max(len(got.values), len(want.values))
    return max(
        (abs(got.value_at(k) - want.value_at(k))
         for k in range(got.index_base, got.index_base + size)),
        default=0.0,
    )


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(job: Job) -> None:
    for argv in job.argvs:
        code = cli.main(argv)
        job.codes.append(code)
        if code != 0:
            return


def cli_failure(job: Job):
    if len(job.codes) != len(job.argvs) or any(job.codes):
        return f"exit codes {job.codes}"
    return None


def random_data(rng, eta_support: int, zeta_support: int, chi_terms: int) -> RootSubgroupData:
    """Decaying random coordinates, drawn as the acceptance tests draw them."""

    def draw(side, support):
        base = 1 if side == "zeta" else 0
        vals = tuple(
            0.4 * rng.uniform(0.3, 1.0) * 0.5 ** (base + k) * np.exp(2j * np.pi * rng.uniform())
            for k in range(support)
        )
        return RootParams(side, vals)

    chi = LaurentSeries.from_dict(
        {
            n: 0.15 * rng.uniform(0.3, 1.0) * 0.5 ** (n - 1) * np.exp(2j * np.pi * rng.uniform())
            for n in range(1, chi_terms + 1)
        }
    )
    chi0 = 1j * rng.uniform(-np.pi / 2, np.pi / 2)
    return RootSubgroupData(draw("eta", eta_support), chi0, chi, draw("zeta", zeta_support))


class Roundtrip:
    """compose --params data --order N+8, factor --trunc N, verify --trunc N."""

    cycle = 3
    writes_files = True

    def prepare(self, seed: int, job: Job) -> None:
        rng = job_rng(seed, job.index)
        n = (32, 48, 64)[job.index % 3]
        data = random_data(
            rng,
            eta_support=int(rng.integers(1, 4)),
            zeta_support=int(rng.integers(1, 5)),
            chi_terms=int(rng.integers(1, 3)),
        )
        d = job.directory
        (d / "fixtures").mkdir()
        write_json(d / "data.json", cli.envelope("data", {"data": data.to_json()}))
        job.argvs = [
            ["compose", "--params", str(d / "data.json"), "--order", str(n + 8),
             "--out", str(d / "loop.json")],
            ["factor", "--loop", str(d / "loop.json"), "--trunc", str(n),
             "--out", str(d / "fixtures" / "factored.json")],
            ["verify", "--fixtures", str(d / "fixtures"), "--trunc", str(n),
             "--out", str(d / "report.json")],
        ]
        job.expect = {"data": data}
        job.outputs = [d / "loop.json", d / "fixtures" / "factored.json", d / "report.json"]

    run = staticmethod(run_cli)

    def check(self, job: Job):
        failure = cli_failure(job)
        if failure:
            return failure
        want = job.expect["data"]
        got = RootSubgroupData.from_json(read_json(job.outputs[1])["data"])
        gap = max(
            params_gap(got.eta, want.eta),
            params_gap(got.zeta, want.zeta),
            abs(got.chi0 - want.chi0),
            (got.chi - want.chi).coefficient_max(),
        )
        if not gap < 1e-8:
            return f"compose->factorize gap {gap:.3e} not below 1e-8"
        if read_json(job.outputs[2])["all_pass"] is not True:
            return "verify report does not pass"
        return None


class TriangularWide:
    """compose --random S, then factor --mode triangular on a wide corner."""

    cycle = 15
    writes_files = True

    def prepare(self, seed: int, job: Job) -> None:
        support = 4 + job.index % 5
        n = (256, 320, 384)[job.index % 3]
        cli_seed = derived_seed(seed, job.index)
        d = job.directory
        job.argvs = [
            ["compose", "--random", str(support), "--seed", str(cli_seed),
             "--out", str(d / "loop.json")],
            ["factor", "--loop", str(d / "loop.json"), "--mode", "triangular",
             "--trunc", str(n), "--grid", "1024", "--out", str(d / "factors.json")],
        ]
        job.expect = {"support": support, "seed": cli_seed}
        job.outputs = [d / "loop.json", d / "factors.json"]

    run = staticmethod(run_cli)

    def check(self, job: Job):
        failure = cli_failure(job)
        if failure:
            return failure
        doc = read_json(job.outputs[1])
        if not doc["residual"] < 1e-9:
            return f"triangular residual {doc['residual']:.3e} not below 1e-9"
        zeta = cli.random_zeta(cli.RunConfig(seed=job.expect["seed"]), job.expect["support"])
        closed = float(np.prod([(1 + abs(v) ** 2) ** 0.5 for v in zeta.values]))
        gap = abs(doc["factors"]["a_zero"] - closed)
        if not gap < 1e-9:
            return f"a_zero off the closed form by {gap:.3e}"
        return None


class Residue:
    """x-from-zeta then zeta-from-x on a rapid-profile zeta of support s."""

    cycle = 7
    writes_files = True

    def prepare(self, seed: int, job: Job) -> None:
        support = 12 + job.index % 7
        zeta = cli.random_zeta(cli.RunConfig(seed=derived_seed(seed, job.index)), support)
        d = job.directory
        write_json(d / "zeta.json", cli.envelope("params", {"params": zeta.to_json()}))
        job.argvs = [
            ["x-from-zeta", "--params", str(d / "zeta.json"), "--out", str(d / "x.json")],
            ["zeta-from-x", "--series", str(d / "x.json"), "--out", str(d / "back.json")],
        ]
        job.expect = {"zeta": zeta}
        job.outputs = [d / "x.json", d / "back.json"]

    run = staticmethod(run_cli)

    def check(self, job: Job):
        failure = cli_failure(job)
        if failure:
            return failure
        got = RootParams.from_json(read_json(job.outputs[1])["params"])
        gap = params_gap(got, job.expect["zeta"])
        if not gap < 1e-9:
            return f"x->k2->zeta gap {gap:.3e} not below 1e-9"
        return None


class ExactTables:
    """coefficient_tables(s, 2s) for s in 9..12, certify_tables(s) for s in 6..8."""

    cycle = 7
    writes_files = False
    KINDS = tuple(("coefficient_tables", s) for s in range(9, 13)) + tuple(
        ("certify_tables", s) for s in range(6, 9)
    )

    def prepare(self, seed: int, job: Job) -> None:
        job.expect = {"kind": self.KINDS[job.index % 7], "seed": derived_seed(seed, job.index)}

    def run(self, job: Job) -> None:
        kind, support = job.expect["kind"]
        if kind == "coefficient_tables":
            job.result = combinat.coefficient_tables(support, weight_cap=2 * support)
        else:
            job.result = combinat.certify_tables(support, seed=job.expect["seed"])

    def check(self, job: Job):
        kind, support = job.expect["kind"]
        table = job.result
        if not table.entries:
            return "empty table"
        for pair, coeff in table.entries.items():
            if not (isinstance(coeff, int) and coeff > 0):
                return f"coefficient {coeff!r} at {pair} is not a positive int"
            if not pair.interlacing_ok():
                return f"pair {pair} breaks interlacing"
        digest = hashlib.sha256(table.to_json().encode()).hexdigest()
        if digest != DIGESTS[f"{kind}/{support}"]:
            return f"{kind}({support}) digest changed"
        return None


WORKLOADS = {
    "roundtrip": Roundtrip(),
    "triangular-wide": TriangularWide(),
    "residue": Residue(),
    "exact-tables": ExactTables(),
}
