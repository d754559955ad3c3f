"""End to end checks of the command line entry points.

Every test drives ``loopfact.cli.main`` in process with an argv list and
reads the JSON it writes, so the exit codes and document shapes asserted
here are exactly what a shell user sees.
"""

import json
import math
import sys

import numpy as np
import pytest

from loopfact import cli
from loopfact.cli import main
from loopfact.errors import ParseError
from loopfact.factor import RootSubgroupData
from loopfact.laurent import (
    CircleGrid,
    LaurentSeries,
    LoopMatrix,
    loop_from_json,
    loop_to_json,
    unitarity_defect,
)
from loopfact.rootsub import RootParams, partial_product


def write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def params_doc(values, side="zeta"):
    return {
        "schema_version": 1,
        "kind": "params",
        "params": {"side": side, "values": [[v.real, v.imag] for v in values]},
    }


def loop_doc(loop):
    return {"schema_version": 1, "kind": "loop", "loop": loop_to_json(loop)}


def read_doc(path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- compose ----------------------------------------------------------


def test_compose_random_bytes_are_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["compose", "--random", "4", "--seed", "7", "--trunc", "32"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    other = tmp_path / "other.json"
    assert main(argv[:-4] + ["--seed", "8", "--trunc", "32", "--out", str(other)]) == 0
    assert other.read_bytes() != first.read_bytes()


def test_compose_random_records_prng_metadata(tmp_path):
    out = tmp_path / "loop.json"
    rc = main(
        [
            "compose",
            "--random",
            "3",
            "--seed",
            "11",
            "--profile",
            "sobolev_half",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = read_doc(out)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "loop"
    assert doc["metadata"] == {
        "prng": "numpy-PCG64",
        "seed": 11,
        "profile": "sobolev_half",
    }


def test_compose_params_matches_library_product(tmp_path):
    src = tmp_path / "params.json"
    out = tmp_path / "loop.json"
    write_json(src, params_doc([0.5]))
    assert main(["compose", "--params", str(src), "--out", str(out)]) == 0
    loop = loop_from_json(read_doc(out)["loop"])
    expected = partial_product(RootParams("zeta", (0.5,)))
    for got, want in zip(loop.entries(), expected.entries()):
        assert (got - want).coefficient_max() < 1e-15


def test_parser_is_reused_without_leaking_state(tmp_path, capsys, monkeypatch):
    assert main(["compose", "--random", "1"]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    # a failed parse, then two calls that differ in their options
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["factor", "--mode", "bogus"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    out = tmp_path / "loop.json"
    assert main(["compose", "--random", "2", "--seed", "3", "--out", str(out)]) == 0
    assert main(["compose", "--random", "2", "--seed", "3"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_compose_requires_exactly_one_source(tmp_path, capsys):
    assert main(["compose"]) == 2
    src = tmp_path / "params.json"
    write_json(src, params_doc([0.5]))
    assert main(["compose", "--params", str(src), "--random", "3"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_compose_random_enforces_truncation_margin(capsys):
    # trunc must cover twice the support
    assert main(["compose", "--random", "30", "--trunc", "48"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


# --- factor -----------------------------------------------------------


def test_factor_identity_loop_is_trivial(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "data.json"
    write_json(src, loop_doc(LoopMatrix.identity()))
    assert main(["factor", "--loop", str(src), "--trunc", "16", "--out", str(out)]) == 0
    data = read_doc(out)["data"]
    assert data["eta"]["values"] == []
    assert data["zeta"]["values"] == []
    assert data["chi0"] == [0.0, 0.0]
    assert data["chi"]["terms"] == []
    assert data["residual"] < 1e-12


def test_factor_constant_diagonal_phase_lands_in_chi0(tmp_path):
    # diag(i, -i) is exp of the constant diagonal with top entry i*pi/2
    src = tmp_path / "loop.json"
    out = tmp_path / "data.json"
    loop = LoopMatrix.diagonal(
        LaurentSeries.from_dict({0: 1j}), LaurentSeries.from_dict({0: -1j})
    )
    write_json(src, loop_doc(loop))
    assert main(["factor", "--loop", str(src), "--trunc", "16", "--out", str(out)]) == 0
    data = read_doc(out)["data"]
    assert abs(data["chi0"][0]) < 1e-12
    assert abs(data["chi0"][1] - math.pi / 2) < 1e-12
    assert data["eta"]["values"] == []
    assert data["zeta"]["values"] == []
    assert data["chi"]["terms"] == []


def test_compose_then_factor_recovers_zeta_through_files(tmp_path):
    values = [0.4, 0.2 - 0.1j, 0.05j]
    src = tmp_path / "params.json"
    loop_path = tmp_path / "loop.json"
    out = tmp_path / "data.json"
    write_json(src, params_doc(values))
    assert main(["compose", "--params", str(src), "--out", str(loop_path)]) == 0
    rc = main(["factor", "--loop", str(loop_path), "--trunc", "32", "--out", str(out)])
    assert rc == 0
    data = read_doc(out)["data"]
    got = [complex(re, im) for re, im in data["zeta"]["values"]]
    assert len(got) == len(values)
    assert max(abs(g - w) for g, w in zip(got, values)) < 1e-9
    assert data["residual"] < 1e-9


def test_factor_triangular_mode_outputs_borel_data(tmp_path):
    src = tmp_path / "loop.json"
    out = tmp_path / "tri.json"
    write_json(src, params_doc([0.5]))
    loop_path = tmp_path / "composed.json"
    assert main(["compose", "--params", str(src), "--out", str(loop_path)]) == 0
    rc = main(
        [
            "factor",
            "--loop",
            str(loop_path),
            "--mode",
            "triangular",
            "--trunc",
            "24",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = read_doc(out)
    assert doc["kind"] == "triangular_factors"
    factors = doc["factors"]
    assert abs(factors["a_zero"] - math.sqrt(1.25)) < 1e-12
    assert factors["m_zero"] == [1.0, 0.0]
    assert doc["residual"] < 1e-10
    lower = loop_from_json(factors["l"])
    upper = loop_from_json(factors["u"])
    # unipotent corners: unit diagonal constants
    for tri in (lower, upper):
        assert abs(tri.a.coeff(0) - 1.0) < 1e-12
        assert abs(tri.d.coeff(0) - 1.0) < 1e-12


# --- series transforms ------------------------------------------------


def test_x_from_zeta_single_value_is_one_term(tmp_path):
    src = tmp_path / "params.json"
    out = tmp_path / "x.json"
    write_json(src, params_doc([0.5]))
    assert main(["x-from-zeta", "--params", str(src), "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["kind"] == "series"
    assert doc["series"]["terms"] == [{"power": 1, "re": 0.5, "im": -0.0}]


def test_x_from_zeta_at_support_32(tmp_path):
    values = [0.4 * 0.8**n * complex(np.cos(n), np.sin(n)) for n in range(32)]
    src = tmp_path / "params.json"
    out = tmp_path / "x.json"
    write_json(src, params_doc(values))
    assert main(["x-from-zeta", "--params", str(src), "--out", str(out)]) == 0
    terms = read_doc(out)["series"]["terms"]
    assert [t["power"] for t in terms] == list(range(1, 33))
    # the last suffix is the last value alone; the series holds conjugates
    assert (terms[-1]["re"], terms[-1]["im"]) == (values[-1].real, -values[-1].imag)


def test_x_from_zeta_overflow_exits_two_without_nonfinite_output(tmp_path, capsys):
    # |zeta| = 1e100 squares to 1e200, but the suffix recursion overflows
    src = tmp_path / "params.json"
    out = tmp_path / "x.json"
    write_json(src, params_doc([1e100] * 4))
    assert main(["x-from-zeta", "--params", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConsistencyViolation"
    assert "power 1" in err["message"]


@pytest.mark.filterwarnings("error")
def test_zeta_from_x_overflow_exits_two_without_warnings(tmp_path, capsys):
    # 1e200 at powers 1 and 2: the Gram matrices of k2_from_x would overflow
    src = tmp_path / "x.json"
    out = tmp_path / "zeta.json"
    series = {"terms": [{"power": p, "re": 1e200, "im": 0.0} for p in (1, 2)]}
    write_json(src, {"schema_version": 1, "kind": "series", "series": series})
    assert main(["zeta-from-x", "--series", str(src), "--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadNormalization"
    assert "overflow" in err["message"]


def test_series_round_trip_through_files(tmp_path):
    values = [0.3, -0.15 + 0.1j, 0.08j, 0.02]
    src = tmp_path / "params.json"
    x_path = tmp_path / "x.json"
    back = tmp_path / "recovered.json"
    write_json(src, params_doc(values))
    assert main(["x-from-zeta", "--params", str(src), "--out", str(x_path)]) == 0
    assert main(["zeta-from-x", "--series", str(x_path), "--out", str(back)]) == 0
    got = [complex(re, im) for re, im in read_doc(back)["params"]["values"]]
    assert len(got) == len(values)
    assert max(abs(g - w) for g, w in zip(got, values)) < 1e-9


def test_zeta_from_zero_series_is_empty(tmp_path):
    src = tmp_path / "x.json"
    out = tmp_path / "params.json"
    write_json(src, {"schema_version": 1, "kind": "series", "series": {"terms": []}})
    assert main(["zeta-from-x", "--series", str(src), "--out", str(out)]) == 0
    doc = read_doc(out)
    assert doc["params"] == {"side": "zeta", "values": []}


# --- verify -----------------------------------------------------------


def test_verify_empty_directory_passes(tmp_path, capsys):
    assert main(["verify", "--fixtures", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["files"] == []


def test_verify_mixed_fixtures_report_every_identity(tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    write_json(fixtures / "params.json", params_doc([0.5]))
    loop_path = fixtures / "loop.json"
    assert (
        main(
            [
                "compose",
                "--params",
                str(fixtures / "params.json"),
                "--out",
                str(loop_path),
            ]
        )
        == 0
    )
    out = tmp_path / "report.json"
    rc = main(["verify", "--fixtures", str(fixtures), "--trunc", "24", "--out", str(out)])
    assert rc == 0
    doc = read_doc(out)
    assert doc["all_pass"] is True
    assert [entry["file"] for entry in doc["files"]] == ["loop.json", "params.json"]
    expected_names = [
        "k2_determinant_vs_zeta_product",
        "k2_determinant_vs_x_hankel",
        "lambda_determinant_vs_chi_sum",
        "three_factor_determinant_product",
        "three_factor_closed_form",
        "hankel_quotient_vs_minus_part",
        "minus_part_hankel_x_pattern",
        "shifted_compression_vs_sigma",
    ]
    for entry in doc["files"]:
        assert entry["pass"] is True
        assert [line["identity_name"] for line in entry["report"]] == expected_names
        for line in entry["report"]:
            assert line["pass"] is True


def test_verify_tampered_fixture_fails_and_names_the_reason(tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    write_json(fixtures / "good.json", params_doc([0.5]))
    loop_path = fixtures / "bad.json"
    assert (
        main(
            [
                "compose",
                "--params",
                str(fixtures / "good.json"),
                "--out",
                str(loop_path),
            ]
        )
        == 0
    )
    doc = read_doc(loop_path)
    for term in doc["loop"]["d"]["terms"]:
        if term["power"] == 0:
            term["re"] = 0.95
    write_json(loop_path, doc)
    out = tmp_path / "report.json"
    rc = main(["verify", "--fixtures", str(fixtures), "--trunc", "24", "--out", str(out)])
    assert rc == 1
    report = read_doc(out)
    assert report["all_pass"] is False
    by_file = {entry["file"]: entry for entry in report["files"]}
    assert by_file["good.json"]["pass"] is True
    bad = by_file["bad.json"]
    assert bad["pass"] is False
    assert bad["error"]["type"] == "BadNormalization"


def test_verify_does_not_abort_on_unreadable_fixture(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    rc = main(["verify", "--fixtures", str(tmp_path)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    entry = doc["files"][0]
    assert entry["pass"] is False
    assert entry["error"]["type"] == "ParseError"


def test_verify_eta_params_fixture_is_a_failing_row(tmp_path, capsys):
    write_json(tmp_path / "eta.json", params_doc([0.3], side="eta"))
    write_json(tmp_path / "good.json", params_doc([0.5]))
    rc = main(["verify", "--fixtures", str(tmp_path), "--trunc", "24"])
    assert rc == 1
    by_file = {entry["file"]: entry for entry in json.loads(capsys.readouterr().out)["files"]}
    assert by_file["eta.json"]["pass"] is False
    assert by_file["eta.json"]["error"]["type"] == "ParseError"
    assert by_file["good.json"]["pass"] is True


def huge_documents(value):
    """A params document with zeta_1 = value and a data document with
    chi_1 = value."""
    data = RootSubgroupData(
        RootParams("eta", ()), 0.0, LaurentSeries.zero(), RootParams("zeta", (0.5,))
    ).to_json()
    data["chi"] = {"terms": [{"power": 1, "re": value, "im": 0.0}]}
    return params_doc([value]), {"schema_version": 1, "kind": "data", "data": data}


def test_verify_overflowing_parameters_are_failing_rows(tmp_path, capsys):
    params, data = huge_documents(1e200)
    write_json(tmp_path / "good.json", params_doc([0.5]))
    write_json(tmp_path / "zeta.json", params)
    write_json(tmp_path / "chi.json", data)
    rc = main(["verify", "--fixtures", str(tmp_path), "--trunc", "8"])
    assert rc == 1
    by_file = {entry["file"]: entry for entry in json.loads(capsys.readouterr().out)["files"]}
    assert sorted(by_file) == ["chi.json", "good.json", "zeta.json"]
    assert by_file["good.json"]["pass"] is True
    for name in ("zeta.json", "chi.json"):
        assert by_file[name]["pass"] is False
        assert by_file[name]["error"]["type"] == "ParseError"


@pytest.mark.parametrize("which", [0, 1], ids=["zeta", "chi"])
def test_compose_overflowing_parameter_exits_two(tmp_path, capsys, which):
    src = tmp_path / "doc.json"
    write_json(src, huge_documents(1e200)[which])
    assert main(["compose", "--params", str(src)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "too large" in err["message"]


def test_squarable_bound_is_where_the_square_overflows():
    edge = math.sqrt(sys.float_info.max)
    assert math.isfinite(abs(complex(edge)) ** 2)
    RootParams.from_json(params_doc([edge])["params"])
    beyond = math.nextafter(edge, math.inf)
    with pytest.raises(OverflowError):
        abs(complex(beyond)) ** 2
    for value in (beyond, complex(edge, edge), complex(sys.float_info.max, sys.float_info.max)):
        with pytest.raises(ParseError):
            RootParams.from_json(params_doc([value])["params"])


# --- conjecture probe -------------------------------------------------


def test_conjecture_probe_emits_nonassertive_table(tmp_path):
    out = tmp_path / "probe.json"
    rc = main(
        [
            "conjecture-probe",
            "--support-range",
            "4:12:4",
            "--seed",
            "3",
            "--trunc",
            "32",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = read_doc(out)
    assert doc["kind"] == "probe_table"
    assert doc["assertive"] is False
    assert "no pass/fail verdict" in doc["note"]
    assert [row["support"] for row in doc["rows"]] == [4, 8, 12]
    for row in doc["rows"]:
        assert set(row) == {
            "support",
            "x_l2",
            "unitarity_defect",
            "a_product",
            "a_product_delta",
        }
        assert row["unitarity_defect"] < 1e-8
        assert row["x_l2"] > 0.0
    assert doc["rows"][0]["a_product_delta"] is None
    assert doc["rows"][1]["a_product_delta"] > 0.0


def test_conjecture_probe_zero_amplitude_is_trivial(tmp_path):
    out = tmp_path / "probe.json"
    rc = main(
        [
            "conjecture-probe",
            "--support-range",
            "4:8:4",
            "--amplitude",
            "0.0",
            "--trunc",
            "32",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for row in read_doc(out)["rows"]:
        assert row["x_l2"] == 0.0
        assert row["unitarity_defect"] < 1e-12
        assert row["a_product"] == 1.0


# --- error surface ----------------------------------------------------


def test_errors_are_reported_as_json_on_stderr(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["factor", "--loop", str(missing)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "nope.json" in err["message"]


def test_nonunitary_input_rejected_with_exit_code_two(tmp_path, capsys):
    loop = LoopMatrix.diagonal(
        LaurentSeries.from_dict({0: 2.0}), LaurentSeries.from_dict({0: 0.5})
    )
    src = tmp_path / "loop.json"
    write_json(src, loop_doc(loop))
    assert main(["factor", "--loop", str(src), "--trunc", "16"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadNormalization"


@pytest.mark.parametrize("mode", ["rootsub", "triangular"])
def test_factor_refuses_a_loop_that_is_not_special(tmp_path, capsys, mode):
    # unitary with det e^{0.8i}: both modes used to exit 0 with residual ~0.8
    loop = partial_product(RootParams("zeta", (0.3, 0.2j, 0.1))).scale(np.exp(0.4j))
    src = tmp_path / "loop.json"
    out = tmp_path / "out.json"
    write_json(src, loop_doc(loop))
    argv = ["factor", "--loop", str(src), "--mode", mode, "--trunc", "24", "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadNormalization" and "not special" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factor", "--loop", "loop.json", "--tol", "nan"], "--tol: must be finite"),
        (["factor", "--loop", "loop.json", "--tol", "-1"], "--tol: must be positive"),
        (["factor", "--loop", "loop.json", "--tol", "0"], "--tol: must be positive"),
        (["conjecture-probe", "--amplitude", "nan"], "--amplitude: must be finite"),
        (["conjecture-probe", "--amplitude", "inf"], "--amplitude: must be finite"),
    ],
    ids=["tol-nan", "tol-negative", "tol-zero", "amplitude-nan", "amplitude-inf"],
)
def test_nonfinite_flags_are_rejected_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_conjecture_probe_refuses_an_amplitude_too_large_to_square(capsys):
    argv = ["conjecture-probe", "--amplitude", "1e200", "--support-range", "4:4"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "too large to square" in err["message"]


def nonfinite_documents(bad):
    loop_json = loop_to_json(partial_product(RootParams("zeta", (0.5,))))
    loop_json["a"]["terms"][0]["re"] = bad
    params = params_doc([0.5, 0.25])
    params["params"]["values"][1][1] = bad
    data = RootSubgroupData(
        RootParams("eta", ()), 0.0, LaurentSeries.zero(), RootParams("zeta", (0.5,))
    ).to_json()
    data["chi0"] = [0.0, bad]
    series = {"terms": [{"power": 1, "re": 0.5, "im": bad}]}
    return [
        (["factor", "--loop"], {"kind": "loop", "loop": loop_json}),
        (["factor", "--mode", "triangular", "--loop"], {"kind": "loop", "loop": loop_json}),
        (["x-from-zeta", "--params"], params),
        (["compose", "--params"], {"kind": "data", "data": data}),
        (["zeta-from-x", "--series"], {"kind": "series", "series": series}),
    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_numbers_are_rejected_at_parse_time(tmp_path, capsys, bad):
    for n, (command, doc) in enumerate(nonfinite_documents(bad)):
        src = tmp_path / f"doc{n}.json"
        write_json(src, {"schema_version": 1, **doc})
        assert main(command + [str(src)]) == 2, command
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError", (command, err)
        assert "non-finite" in err["message"]
