"""Command line workflows over JSON files.

Subcommands: compose, factor, x-from-zeta, zeta-from-x, verify, and
conjecture-probe.  Every file is UTF-8 JSON with a top level
schema_version and a kind tag; outputs are written with sorted keys so a
fixed seed and configuration give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LoopFactError, ParseError
from .laurent import (
    CircleGrid,
    LaurentSeries,
    check_squarable,
    loop_from_json,
    loop_to_json,
    series_from_json,
    series_to_json,
    unitarity_defect,
)
from .rootsub import RootParams, partial_product
from .toeplitz import triangular
from .factor import (
    RootSubgroupData,
    compose_rootsub,
    k2_from_x,
    rootsub_factorize,
    verify_identities,
    x_leastsquares,
    zeta_from_loop,
)
from .combinat import full_x

SCHEMA_VERSION = 1

PROFILE_MAGNITUDES = {
    "rapid": lambda n: 0.8 * 0.5**n,
    "sobolev_half": lambda n: 0.4 * float(n) ** -1.1,
    "l2_only": lambda n: 0.4 * float(n) ** -0.6,
}


@dataclass
class RunConfig:
    """Shared numeric knobs; in the generating commands the truncation
    must dominate the support and the grid must resolve it."""

    trunc: int = 48
    tol: float = 1e-9
    grid: int = 512
    seed: int = 0
    profile: str = "rapid"

    def check_support(self, support: int):
        if self.trunc < 2 * support:
            raise ValueError(
                f"truncation {self.trunc} below twice the support {support}; raise --trunc"
            )
        if self.grid < 2 * self.trunc + 1:
            raise ValueError(
                f"grid {self.grid} below 2*trunc+1 = {2 * self.trunc + 1}; raise --grid"
            )


def config_from_args(args) -> RunConfig:
    return RunConfig(
        trunc=args.trunc,
        tol=args.tol,
        grid=args.grid,
        seed=getattr(args, "seed", 0),
        profile=getattr(args, "profile", "rapid"),
    )


def random_zeta(config: RunConfig, support: int, amplitude: float = 1.0) -> RootParams:
    """Profile magnitudes with independent uniform phases from a named,
    versioned generator so runs are reproducible."""
    config.check_support(support)
    magnitude = PROFILE_MAGNITUDES[config.profile]
    rng = np.random.default_rng(config.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=support)
    values = tuple(
        amplitude * magnitude(n) * complex(np.cos(p), np.sin(p))
        for n, p in zip(range(1, support + 1), phases)
    )
    check_squarable(values, "random parameter")
    return RootParams("zeta", values)


def prng_metadata(config: RunConfig) -> dict:
    return {
        "prng": "numpy-PCG64",
        "seed": int(config.seed),
        "profile": config.profile,
    }


# --- envelopes --------------------------------------------------------


def envelope(kind: str, body: dict, metadata: dict | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(body)
    if metadata:
        doc["metadata"] = metadata
    return doc


def read_document(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def document_kind(doc: dict) -> str:
    kind = doc.get("kind")
    if kind:
        return kind
    for tag, key in (("loop", "a"), ("data", "eta"), ("params", "side"), ("series", "terms")):
        if key in doc:
            return tag
    raise ParseError("cannot determine document kind")


def load_subject(doc: dict):
    kind = document_kind(doc)
    if kind == "loop":
        return loop_from_json(doc.get("loop", doc))
    if kind == "data":
        return RootSubgroupData.from_json(doc.get("data", doc))
    if kind == "params":
        params = RootParams.from_json(doc.get("params", doc))
        if params.side != "zeta":
            if params.values:
                raise ParseError("a params fixture must hold zeta values")
            params = RootParams("zeta", ())
        return RootSubgroupData(
            RootParams("eta", ()), 0.0, LaurentSeries.zero(), params
        )
    raise ParseError(f"unsupported document kind {kind!r}")


def write_document(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------


def cmd_compose(args) -> int:
    config = config_from_args(args)
    metadata = None
    if args.params:
        doc = read_document(args.params)
        kind = document_kind(doc)
        if kind == "params":
            params = RootParams.from_json(doc.get("params", doc))
            loop = partial_product(params)
        elif kind == "data":
            data = RootSubgroupData.from_json(doc.get("data", doc))
            loop = compose_rootsub(data, order=args.order)
        else:
            raise ParseError(f"compose expects params or data, got {kind!r}")
    else:
        params = random_zeta(config, args.random)
        loop = partial_product(params)
        metadata = prng_metadata(config)
    write_document(envelope("loop", {"loop": loop_to_json(loop)}, metadata), args.out)
    return 0


def cmd_factor(args) -> int:
    config = config_from_args(args)
    doc = read_document(args.loop)
    loop = loop_from_json(doc.get("loop", doc))
    if args.mode == "triangular":
        tf = triangular(loop, config.trunc, tol=config.tol)
        body = {
            "factors": {
                "l": loop_to_json(tf.l),
                "m_zero": [float(tf.m_zero.real), float(tf.m_zero.imag)],
                "a_zero": float(tf.a_zero),
                "u": loop_to_json(tf.u),
            },
            "residual": float(tf.residual),
        }
        write_document(envelope("triangular_factors", body), args.out)
        return 0
    data = rootsub_factorize(
        loop, config.trunc, tol=config.tol, grid=CircleGrid(config.grid)
    )
    body = {"data": data.to_json()}
    write_document(envelope("data", body), args.out)
    return 0


def cmd_x_from_zeta(args) -> int:
    doc = read_document(args.params)
    params = RootParams.from_json(doc.get("params", doc))
    x = full_x(params)
    write_document(envelope("series", {"series": series_to_json(x)}), args.out)
    return 0


def cmd_zeta_from_x(args) -> int:
    config = config_from_args(args)
    doc = read_document(args.series)
    x = series_from_json(doc.get("series", doc))
    if x.is_zero:
        params = RootParams("zeta", ())
    else:
        order = max(config.trunc, 2 * x.max_power)
        loop, _ = k2_from_x(x, order, tol=max(config.tol, 1e-9))
        params = zeta_from_loop(loop, x.max_power, tol=config.tol)
    write_document(envelope("params", {"params": params.to_json()}), args.out)
    return 0


def cmd_verify(args) -> int:
    config = config_from_args(args)
    reports = []
    all_pass = True
    for path in sorted(Path(args.fixtures).glob("*.json")):
        entry = {"file": path.name}
        try:
            subject = load_subject(read_document(str(path)))
            report = verify_identities(subject, config.trunc, tol=config.tol)
        except LoopFactError as exc:
            entry.update({"pass": False, "error": {"type": type(exc).__name__, "message": str(exc)}})
        else:
            entry.update({"pass": all(line["pass"] for line in report), "report": report})
        all_pass = all_pass and entry["pass"]
        reports.append(entry)
    body = {"files": reports, "all_pass": all_pass}
    write_document(envelope("verify_report", body), args.out)
    return 0 if all_pass else 1


def cmd_conjecture_probe(args) -> int:
    config = config_from_args(args)
    first, last, step = args.support_range
    rows = []
    for support in range(first, last + 1, step):
        params = random_zeta(config, support, amplitude=args.amplitude)
        loop = partial_product(params)
        defect = unitarity_defect(loop, CircleGrid(config.grid))
        x = (
            LaurentSeries.zero()
            if args.amplitude == 0.0
            else x_leastsquares(loop.c, loop.d, support, tol=config.tol)
        )
        a_product = float(
            np.prod([1.0 / np.sqrt(1.0 + abs(v) ** 2) for v in params.values])
        )
        prev = rows[-1]["a_product"] if rows else None
        rows.append(
            {
                "support": support,
                "x_l2": float(x.coefficient_norm()),
                "unitarity_defect": float(defect),
                "a_product": a_product,
                "a_product_delta": None if prev is None else abs(a_product - prev),
            }
        )
    body = {
        "assertive": False,
        "note": "diagnostic table only; no pass/fail verdict is implied",
        "rows": rows,
    }
    write_document(envelope("probe_table", body, prng_metadata(config)), args.out)
    return 0


# --- argument wiring --------------------------------------------------


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("range must be first:last[:step]")
    try:
        first, last = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if first < 1 or last < first or step < 1:
        raise argparse.ArgumentTypeError("range bounds must be positive and ordered")
    return first, last, step


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_common(sub, seed=False, profile=False):
    sub.add_argument("--trunc", type=int, default=48, help="matrix truncation size")
    sub.add_argument("--tol", type=_positive_float, default=1e-9, help="numeric tolerance")
    sub.add_argument("--grid", type=int, default=512, help="circle grid points")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="PRNG seed")
    if profile:
        sub.add_argument(
            "--profile",
            choices=sorted(PROFILE_MAGNITUDES),
            default="rapid",
            help="decay profile for random parameters",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopfact",
        description="compose, factor, and verify unitary matrix loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="build a loop from parameters")
    p.add_argument("--params", default=None, help="params or data JSON file")
    p.add_argument("--random", type=int, default=None, help="random support size")
    p.add_argument("--order", type=int, default=None, help="composition order")
    _add_common(p, seed=True, profile=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("factor", help="factor a loop file")
    p.add_argument("--loop", required=True, help="loop JSON file")
    p.add_argument("--mode", choices=("rootsub", "triangular"), default="rootsub")
    _add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("x-from-zeta", help="residue series from parameters")
    p.add_argument("--params", required=True, help="params JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_x_from_zeta)

    p = sub.add_parser("zeta-from-x", help="parameters from a residue series")
    p.add_argument("--series", required=True, help="series JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_zeta_from_x)

    p = sub.add_parser("verify", help="run the identity suite over fixtures")
    p.add_argument("--fixtures", required=True, help="directory of JSON fixtures")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture-probe", help="exploratory decay diagnostics")
    p.add_argument(
        "--support-range",
        type=_parse_range,
        default=(4, 24, 4),
        help="supports to probe, first:last[:step]",
    )
    p.add_argument("--amplitude", type=_finite_float, default=1.0, help="profile scale")
    _add_common(p, seed=True, profile=True)
    p.set_defaults(func=cmd_conjecture_probe)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on first use and kept: parsing leaves it
    unchanged, and building it costs more than most parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compose" and (args.params is None) == (args.random is None):
        print("compose needs exactly one of --params or --random", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (LoopFactError, ValueError) as exc:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
