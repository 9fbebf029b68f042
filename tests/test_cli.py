"""Command-line interface: ring-file round trips, exit codes, report
determinism."""

import copy
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modinv
from modinv.cli import _build_parser, main
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.modular import compute_modular_data
from modinv.report import build_report, render_json
from modinv.ringfile import (
    MAX_CONDUCTOR,
    MAX_LABELS,
    MAX_MULTIPLICITY,
    RingFileError,
    _parse_fraction,
    dump_ring,
    load_ring,
    ring_from_json,
    ring_to_json,
)

from test_fusion import quadratic_twists


@pytest.mark.parametrize(
    "ring",
    [
        builtin_so_level1(16),
        builtin_su2(3),
        builtin_cyclic(4, [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1, 8)]),
        builtin_cyclic(1, [Fraction(0)]),
    ],
    ids=["so16", "su2_3", "cyclic4", "trivial"],
)
def test_ring_file_round_trip(ring):
    reloaded = ring_from_json(json.loads(dump_ring(ring)))
    assert reloaded == ring


def exact(message: str) -> str:
    """A pattern matching the whole of message and nothing else."""
    return f"^{re.escape(message)}$"


def test_ring_file_rejects_bad_fields(tmp_path, capsys):
    data = ring_to_json(builtin_so_level1(16))
    bad = dict(data)
    bad["twists"] = ["0", "1/2", "1", "not-a-number"]
    with pytest.raises(RingFileError, match="twists"):
        ring_from_json(bad)
    bad = dict(data)
    bad["fusion"] = [[0, 0, 9, 1]]
    with pytest.raises(RingFileError, match="out of range"):
        ring_from_json(bad)
    # A fusion field that is no list, JSON true where an integer belongs, and
    # a dual label outside [0, n) (which would index past Y, or wrap round to
    # its last row) are refused, and `modinv check` exits 2 on them.
    for field, value, match in [
        ("fusion", 5, "'fusion' must be a list"),
        ("fusion", None, "'fusion' must be a list"),
        ("fusion", [[0, True, 1, 1]], "index m=True out of range"),
        ("fusion", [[0, 0, 0, True]], "multiplicity True invalid"),
        # A quadruple listed twice would keep its last multiplicity alone.
        (
            "fusion",
            [[1, 1, 0, 7]] + data["fusion"],
            r"fusion entries 0 and 6 both list \(l, m, n\) = \(1, 1, 0\)",
        ),
        # Multiplicities are capped, so associativity sums stay below 2**53.
        (
            "fusion",
            [[0, 0, 0, MAX_MULTIPLICITY + 1]],
            f"fusion entry 0: multiplicity {MAX_MULTIPLICITY + 1}, above the limit",
        ),
        # The quadruples are checked as one array; the message names the
        # first faulty entry as a check of one entry after another would.
        ("fusion", [[0, 0, 1.5, 1]], exact("fusion entry 0: index n=1.5 out of range")),
        ("fusion", [[0, 0, 0, -1]], exact("fusion entry 0: multiplicity -1 invalid")),
        (
            "fusion",
            [[2**63, 0, 0, 1]],
            exact("fusion entry 0: index l=9223372036854775808 out of range"),
        ),
        (
            "fusion",
            [[0, 0, 0, 2**63]],
            exact(
                "fusion entry 0: multiplicity 9223372036854775808, above the limit of 1048576"
            ),
        ),
        ("fusion", [[0, 0, 0]], exact("fusion entry 0 is not a quadruple")),
        ("fusion", data["fusion"][:3] + [5], exact("fusion entry 3 is not a quadruple")),
        (
            "fusion",
            data["fusion"][:3] + [data["fusion"][1]] + [[0, 0, 9, 1]],
            exact("fusion entries 1 and 3 both list (l, m, n) = (0, 1, 1)"),
        ),
        ("dual", [0, True, 2, 3], "'dual' must be a list"),
        ("dual", [0, 1, 2, 5], r"'dual' must be a list of 4 integers in \[0, 4\)"),
        ("dual", [-1, 1, 2, 3], r"'dual' must be a list of 4 integers in \[0, 4\)"),
        ("twists", ["0", "1/2", True, "1/2"], r"twists\[2\]"),
        # Labels that are no list would be read as the characters of a
        # string or the keys of an object.
        ("labels", "abcd", "'labels' must be a list"),
        ("labels", {"0": 1, "v": 2, "s": 3, "c": 4}, "'labels' must be a list"),
        # Non-integer conductors and exponents in the dims would be truncated.
        ("dims", [{"conductor": 16.9, "coeffs": [[0, "1"]]}] * 4, "must be integers"),
        ("dims", [{"conductor": True, "coeffs": [[0, "1"]]}] * 4, "must be integers"),
        ("dims", [{"conductor": 1, "coeffs": [[0.7, "1"]]}] * 4, "must be integers"),
        # A float coefficient would be read as its binary fraction, true as 1.
        ("dims", [{"conductor": 1, "coeffs": [[0, 0.1]]}] * 4, r"dims\[0\]: expected a rational"),
        ("dims", [{"conductor": 1, "coeffs": [[0, True]]}] * 4, r"dims\[0\]: expected a rational"),
        # Rationals are "p" or "p/q" in ASCII digits: Fraction(str) would also
        # read decimals, exponents, spaces and underscores.
        ("twists", ["0", "1/2", "0.5", "1/2"], exact("twists[2]: cannot parse rational '0.5'")),
        ("twists", ["0", "1e-1", "1", "1"], exact("twists[1]: cannot parse rational '1e-1'")),
        ("twists", [" 1/4 ", "0", "0", "0"], exact("twists[0]: cannot parse rational ' 1/4 '")),
        ("twists", ["0", "0", "0", "1_0/3"], exact("twists[3]: cannot parse rational '1_0/3'")),
        ("twists", ["0", "1/0", "0", "0"], exact("twists[1]: cannot parse rational '1/0'")),
        # Past int's digit limit.
        ("twists", ["0", "1/" + "7" * 5000, "0", "0"], r"^twists\[1\]: cannot parse rational '1/777"),
        ("twists", ["0", "7" * 5000, "0", "0"], r"^twists\[1\]: cannot parse rational '777"),
        (
            "dims",
            [{"conductor": 1, "coeffs": [[0, "0.5"]]}] * 4,
            exact("malformed 'dims': dims[0]: cannot parse rational '0.5'"),
        ),
        ("central_charge", "0.1875", exact("central_charge: cannot parse rational '0.1875'")),
        ("central_charge", "1e-1", exact("central_charge: cannot parse rational '1e-1'")),
    ]:
        bad = dict(data)
        bad[field] = value
        with pytest.raises(RingFileError, match=match):
            ring_from_json(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
    capped = ring_from_json({**data, "fusion": [[0, 0, 0, MAX_MULTIPLICITY]]})
    assert capped.fusion[0, 0, 0] == MAX_MULTIPLICITY


@given(st.from_regex(r"[+-]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
@settings(max_examples=200, deadline=None)
def test_parse_fraction_reads_the_grammar_as_fraction_does(text):
    # The groups of the one match give the value Fraction(text) reads, and
    # q = 0 is refused.
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(RingFileError, match="cannot parse rational"):
            _parse_fraction(text, "x")
    else:
        assert _parse_fraction(text, "x") == expected


# sha256 of dump_ring(ring): `modinv builtin` writes these bytes, and the
# quadruples are listed in row-major (l, m, n) order.
RING_FILE_BUILDERS = {
    **{f"su2_level{k}": partial(builtin_su2, k) for k in range(25)},
    **{f"so{n}_level1": partial(builtin_so_level1, n) for n in (16, 32)},
    **{
        f"cyclic{n}_quadratic": partial(builtin_cyclic, n, quadratic_twists(n, 1))
        for n in range(2, 13)
    },
    "cyclic6_a2over4": partial(builtin_cyclic, 6, [Fraction(a * a, 4) for a in range(6)]),
    "cyclic5_zero": partial(builtin_cyclic, 5, [Fraction(0)] * 5),
}
RING_FILE_DIGESTS = {
    "su2_level0": "68b533c405c979197c58117754d3c0dfd106d0704536d2160e2505b5a64e7573",
    "su2_level1": "ef6b53420f267570d4af8eef76e0cbd52a53972d12088b601983ce6ead83420b",
    "su2_level2": "43c4dceb7d0951535d95171b4edc1fe636ecc60000df29740b3e8820cb30e3c7",
    "su2_level3": "48910ca31ab7a598252002a8c80e20dc893d03ee2ba1c6cbb83da83a0cdccb6c",
    "su2_level4": "d8160fcc382eab14d02120f8face8ea5f28db45f5087bf0e3f776e8ffb33a177",
    "su2_level5": "c6ef8dab9bbf317fac05a4f3011ccc64a2304fee10780892943c9373f925edb6",
    "su2_level6": "a18a4b987e289ea6e1509e92e81141d9141dcabccc68ef1d7d2a185624af1be0",
    "su2_level7": "12eefc9c92861fd9c3ed661944404e398a16794f3215034e78a38bfaae0f0c91",
    "su2_level8": "ffc17cff16bc83f2fb95c56ae3e5a925f818ff7a975310bb96b09d601672d241",
    "su2_level9": "665b48d3576b2416d30a0650aeb26c34979305bdad5bc84d730c443a2e11e68b",
    "su2_level10": "68bd0a3d50e15cf54e8ed9dfaeeba9da690df92cb448bb80cf51165fcda17ff8",
    "su2_level11": "eeac117aa47d228a7ad9a726feeeb5bd3d5efce5607cf83a01a918225320bdca",
    "su2_level12": "89f7bdbc8dd88b15b6018b635249abde5de6a270dafa2f31c10b4b45119dfff2",
    "su2_level13": "2ac2d1096cf2f83f0b605d248b7aa047c25a0a46eece893b3f78a7fc6c2d91b9",
    "su2_level14": "408e67126609740ad6449cfa0e1c6e5804acc27b2ddd1318620a76ac576c509e",
    "su2_level15": "29dd6e1225c7bc15439177aea781edb38af039a86e851ae07ee4407772f07bb0",
    "su2_level16": "c416c214e55edcd5c5215c5c6cb7e9f284a9a1ae2167da96e14af708dca70fbe",
    "su2_level17": "0dd5bcfea26a8c459178268566c933224bd7062c9439d8b1ea749994e4e26608",
    "su2_level18": "5eb0fc83a5460780b75d6b87c0ab05a1cc9f6354aa89276d3d6345843370e192",
    "su2_level19": "10d820e93286d20482a7ce67e48dd2596f67117c120211730adfcd6e54d87165",
    "su2_level20": "8e3c1c79e1009e6bc89a3ff36272673748f77f1dbcf8cc8e3bc425034016d509",
    "su2_level21": "d03bc82161fae763b1e306562eec4a608446ec5e754c966272e89c8adca944e4",
    "su2_level22": "d3e852f4063015855c207fc9a87ce28e42ef36a663b1952e98a1556da9710aeb",
    "su2_level23": "6860e836cd1feeded4c9538d70d8a1e40a988ada610ad7b19b35923d267987fc",
    "su2_level24": "a3f0468c37a5c62b2aeebfb97cc322385fc2796efda69c165cde2bd4e255a144",
    "so16_level1": "3123a32145927eaa58b524826f5791c15e57902c15f91ee6466e1a35a4f50417",
    "so32_level1": "ccecd3f6975a9741aa562396e82c3f1d37fe1eed8bc4ed0f324f4bb3d3d6c1ec",
    "cyclic2_quadratic": "13219922f603bcba6a4b7a3405f96e55ddf85bd8a478c800a7cd912ea17cdbf4",
    "cyclic3_quadratic": "773f2f0b7ad4922c4ef08e64e89c35de27989b1a4057338b98906876749cb92b",
    "cyclic4_quadratic": "7a40ec4d12f6ce4934d6f47480fbe619cc7d5061b2f6f40f293a1a641c489cfa",
    "cyclic5_quadratic": "630a68691a1bfb1fc9a186891cccd247f0d0e9cb5186a3a5ebf929808f09cc94",
    "cyclic6_quadratic": "e8fbf974d77f339b8c53203aa8775f47bfe3ccc5d9b5793a9bc9314293588ab6",
    "cyclic7_quadratic": "7cf00a82de97c5d5f94acbfaf43bca71debaf724fed34a8a2f3138b63e789b29",
    "cyclic8_quadratic": "f433743e37b4d5edcd40b3e98b6c53ae3eb599c046d61639067f8be2c47a5b60",
    "cyclic9_quadratic": "769a6a8f351b8493bfc93ecfd0afcd9ebdaa166a92b23450306506be5cc809ce",
    "cyclic10_quadratic": "0916cbfb40297a1d145c6d170ddba002fe46a4c0a449bcb7f39125684187ac81",
    "cyclic11_quadratic": "558fe7559c3e9e37de4e8b5383bbe1ac104afabbb1fe85ea241d146dc543dcc9",
    "cyclic12_quadratic": "34b3c5ce9655e81f27a21dc5b6b3aeac17aa031ee01be201d1e02b9a757e6277",
    "cyclic6_a2over4": "60d7a5e5ec2da7171ea0d6c299ab3518aad315d9ca02607bf26c19286269c95c",
    "cyclic5_zero": "73f05136576cb2251c8f28b6a3c54cb1215b6696873fcc78fd6bee838731e02a",
}


@pytest.mark.parametrize("key", sorted(RING_FILE_DIGESTS))
def test_ring_file_bytes_pinned(key):
    text = dump_ring(RING_FILE_BUILDERS[key]())
    assert hashlib.sha256(text.encode()).hexdigest() == RING_FILE_DIGESTS[key]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--bound-scale", "1/0"),
        ("--bound-scale", "abc"),
        ("--bound-scale", "0"),
        ("--bound-scale", "-1"),
        # The ring-file rational grammar: Fraction(str) would read these as
        # 1/10, 1/2 and 2.
        ("--bound-scale", "1e-1"),
        ("--bound-scale", "0.5"),
        ("--bound-scale", " 2 "),
        ("--node-budget", "0"),
        ("--node-budget", "-1"),
        ("--node-budget", "1.5"),
        # A count is ASCII digits: int(str) would read these as 2, 1000 and 5.
        ("--node-budget", " 2 "),
        ("--node-budget", "1_000"),
        ("--node-budget", "+5"),
        ("--node-budget", "\uff15"),
        pytest.param("--node-budget", "9" * 5000, id="--node-budget-past-int-digit-limit"),
    ],
)
def test_search_flags_reject_unparsable_and_non_positive_values(tmp_path, capsys, flag, value):
    path = tmp_path / "z2.json"
    path.write_text(dump_ring(builtin_cyclic(2, [Fraction(0)] * 2)))
    message = f"argument {flag}: expected a positive number, got {value!r}"
    for command in ("invariants", "classify"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), flag, value])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([command, str(path), flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("value, budget", [("1", 1), ("007", 7), ("1000", 1000)])
def test_node_budget_reads_ascii_digits(value, budget):
    args = _build_parser().parse_args(["invariants", "ring.json", "--node-budget", value])
    assert args.node_budget == budget


def test_load_ring_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(RingFileError, match="line"):
        load_ring(str(path))
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(RingFileError, match="not UTF-8"):
        load_ring(str(path))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_and_check(tmp_path, capsys):
    code, out, _ = run(capsys, "builtin", "so-level1", "--n", "16")
    assert code == 0
    path = tmp_path / "so16.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "PASS ring axioms" in out
    assert "PASS statistics axioms" in out


def test_builtin_usage_error(capsys):
    # A missing flag is builtin's own usage error; the limits and rationals
    # it shares with ring files read as they do there.
    code, _, err = run(capsys, "builtin", "su2")
    assert code == 2
    assert err == "usage error: su2 requires --level\n"


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["su2", "--level", "100"], f"101 labels, above the limit of {MAX_LABELS}"),
        (["cyclic", "--n", "101"], f"101 labels, above the limit of {MAX_LABELS}"),
        (
            ["cyclic", "--n", "2", "--twists", "0,1/2002"],
            f"global conductor 2002, above the limit of {MAX_CONDUCTOR}",
        ),
        # Twists are read as ring files read them: Fraction would take
        # "0.25" as 1/4.
        (
            ["cyclic", "--n", "2", "--twists", "0, 0.25"],
            "twists[1]: cannot parse rational '0.25'",
        ),
    ],
    ids=["su2_100", "cyclic_101", "conductor_2002", "decimal_twist"],
)
def test_builtin_refuses_rings_the_ring_file_limits_reject(capsys, argv, limit):
    # Labels are checked before the ring is built: its fusion tensor grows as n**3.
    code, out, err = run(capsys, "builtin", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {limit}\n"


def test_builtin_twists_are_stripped_rationals(capsys):
    for twists in ("0, 1/4", "0,1/4"):
        code, out, _ = run(capsys, "builtin", "cyclic", "--n", "2", "--twists", twists)
        assert code == 0
        assert json.loads(out)["twists"] == ["0", "1/4"]
        assert out == dump_ring(builtin_cyclic(2, [Fraction(0), Fraction(1, 4)])) + "\n"


@pytest.mark.parametrize(
    "ring",
    [
        builtin_so_level1(16),
        builtin_su2(10),
        builtin_cyclic(2, [0] * 2),
        builtin_cyclic(6, [0] * 6),
        builtin_cyclic(6, quadratic_twists(6, 1)),
    ],
    ids=["so16", "su2_10", "z2_zero", "z6_zero", "z6_quadratic"],
)
def test_check_reconstructs_the_fusion_rules_of_every_ring(tmp_path, capsys, ring):
    # Degenerate rings too, and the line carries no float.
    path = tmp_path / "ring.json"
    path.write_text(dump_ring(ring))
    assert run(capsys, "check", str(path)) == (
        0,
        "PASS ring axioms\nPASS statistics axioms\nPASS fusion reconstruction\n",
        "",
    )


def test_check_fails_fusion_rules_that_Y_does_not_reconstruct(tmp_path, capsys):
    # In Z_4 with twists a^2/8, labels 1 and 3 share their twist and dim, so
    # moving N_23^1 to N_23^3 leaves Y and its statistics axioms as they
    # were; Y_2mu Y_3mu = Y_0mu Y_3mu then fails where Y_1mu != Y_3mu.
    data = ring_to_json(builtin_cyclic(4, quadratic_twists(4, 1)))
    data["fusion"] = [[2, 3, 3, c] if q == [2, 3, 1] else [*q, c] for *q, c in data["fusion"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[-2:] == ["PASS statistics axioms", "FAIL fusion reconstruction: 2 entries"]


def test_check_corrupted_twist(tmp_path, capsys):
    data = ring_to_json(builtin_so_level1(16))
    data["twists"][1] = "1/3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "FAIL" in out


def test_modular_report(tmp_path, capsys):
    path = tmp_path / "so16.json"
    path.write_text(dump_ring(builtin_so_level1(16)))
    code, out, _ = run(capsys, "modular", str(path))
    assert code == 0
    # The ring and modular sections only, byte for byte as when they were cut
    # out of a full report.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3424911d4e32771612dfdc88cdc44bc9cbb17894fcf83e4872eb5e64e640bccb"
    )
    report = json.loads(out)
    assert sorted(report) == ["modular", "ring"]
    assert report["ring"]["conductor"] == 2
    assert report["modular"]["nondegenerate"] is True
    assert report["modular"]["central_charge"] == "8"
    code, out, err = run(capsys, "modular", str(path), "--format", "markdown")
    assert (code, err) == (0, "")
    assert "- central charge (mod 8 rep or hint): 8" in out
    assert "- Gauss sum z = 2 = 2+0j" in out
    assert "## Invariants" not in out and "## Rational span" not in out


def test_invariants_trivial_ring(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(dump_ring(builtin_cyclic(1, [Fraction(0)])))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    report = json.loads(out)
    assert [inv["matrix"] for inv in report["invariants"]] == [[[1]]]


def test_classify_report_so16(tmp_path, capsys):
    path = tmp_path / "so16.json"
    path.write_text(dump_ring(builtin_so_level1(16)))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(out)
    assert len(report["invariants"]) == 6
    kinds = sorted(c["kind"] for c in report["classifications"])
    assert kinds == ["diagonal", "heterotic", "heterotic", "permutation", "type_I", "type_I"]
    assert report["span"]["span_dimension"] == 5
    assert report["span"]["asymmetric_in_symmetric_span"] == {"3": False, "4": False}


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = tmp_path / "so16.json"
    path.write_text(dump_ring(builtin_so_level1(16)))
    _build_parser.cache_clear()
    assert run(capsys, "check", str(path))[0] == 0
    assert run(capsys, "classify", str(path))[0] == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_markdown_format(tmp_path, capsys):
    path = tmp_path / "so16.json"
    path.write_text(dump_ring(builtin_so_level1(16)))
    code, out, _ = run(capsys, "classify", str(path), "--format", "markdown")
    assert code == 0
    assert "# Modular invariants" in out
    assert "global conductor: 2" in out
    assert "## Classification" in out


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    path = tmp_path / "su2_6.json"
    path.write_text(dump_ring(builtin_su2(6)))
    code, out, err = run(capsys, "invariants", str(path), "--node-budget", "1")
    assert code == 3
    assert "budget" in err
    report = json.loads(out)
    assert report["budget_exhausted"] is True


def test_budget_exhaustion_says_how_far_the_search_got(tmp_path, capsys):
    ring = builtin_cyclic(4, [Fraction(0)] * 4)
    path = tmp_path / "z4.json"
    path.write_text(dump_ring(ring))
    argv = ("invariants", str(path), "--bound-scale", "2", "--node-budget", "1000")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == (
        "warning: enumeration exceeded the node budget of 1000 after 1000 nodes, "
        "reaching pivot level 7 of 10; 0 invariants found before the cutoff\n"
    )
    # The progress goes to stderr only: stdout is the report of the partial pool.
    md = compute_modular_data(ring)
    assert out == render_json(build_report(md, [], budget_exhausted=True))


def test_classify_single_invariant_by_file(tmp_path, capsys):
    ring_path = tmp_path / "so16.json"
    ring_path.write_text(dump_ring(builtin_so_level1(16)))
    q_path = tmp_path / "q.json"
    q_path.write_text("[[1,0,0,1],[0,0,0,0],[1,0,0,1],[0,0,0,0]]")
    code, out, _ = run(capsys, "classify", str(ring_path), "--invariant", str(q_path))
    assert code == 0
    report = json.loads(out)
    assert len(report["classifications"]) == 1
    cls = report["classifications"][0]
    assert cls["kind"] == "heterotic"
    assert cls["parent_plus"] != cls["parent_minus"]


def test_classify_rejects_bad_invariant_file(tmp_path, capsys):
    ring_path = tmp_path / "so16.json"
    ring_path.write_text(dump_ring(builtin_so_level1(16)))
    cases = [
        ("[[2,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", 1, "rejected:"),
        # Non-integer entries are rejected, not truncated to the identity.
        ("[[1.9,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", 1, "rejected:"),
        ("[[1,0,0,0],[0,true,0,0],[0,0,1,0],[0,0,0,1]]", 1, "rejected:"),
        ('[[1,0,0,0],[0,"1",0,0],[0,0,1,0],[0,0,0,1]]', 1, "rejected:"),
        ("5", 1, "rejected:"),  # not a matrix
        ("[[1,0,0,0],[0,1", 2, "error:"),
        (None, 2, "error:"),  # missing file
    ]
    for i, (text, code, prefix) in enumerate(cases):
        bad = tmp_path / f"bad{i}.json"
        if text is not None:
            bad.write_text(text)
        got, _, err = run(capsys, "classify", str(ring_path), "--invariant", str(bad))
        assert (got, err.split(" ")[0]) == (code, prefix), text


def test_numeric_flag_required_for_auto_dims(tmp_path, capsys):
    # There is no --numeric any more: "auto" dims take the exact path.
    data = ring_to_json(builtin_so_level1(16))
    data["dims"] = "auto"
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["invariants", str(path), "--numeric"])
    assert exc.value.code == 2
    assert "--numeric" in capsys.readouterr().err
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ring"]["exact_dims"] and report["modular"]["exact"]
    assert len(report["invariants"]) == 6
    assert all(inv["verified"] and inv["exact"] for inv in report["invariants"])


@pytest.mark.parametrize("command", ["check", "modular", "invariants", "classify"])
@pytest.mark.parametrize("ring", [builtin_so_level1(16), builtin_su2(4)], ids=["so16", "su2_4"])
def test_auto_dims_match_the_exact_file(tmp_path, capsys, ring, command):
    # The reconstructed dims live at the conductor of the twists, which here
    # is the conductor of the exact file, so every output is byte-identical.
    data = ring_to_json(ring)
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps(data))
    data["dims"] = "auto"
    auto = tmp_path / "auto.json"
    auto.write_text(json.dumps(data))
    got = run(capsys, command, str(auto))
    assert got[0] == 0
    assert got == run(capsys, command, str(exact))


# Run in a fresh interpreter: check and classify on the builtin SU(2) level
# 10 file leave mpmath unloaded; the same file with "dims": "auto" loads it
# for the reconstruction and still classifies.
MPMATH_FREE_SCRIPT = """
import contextlib, io, json, sys
from modinv.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

code, text = run("builtin", "su2", "--level", "10")
assert code == 0
with open("su2_10.json", "w") as f:
    f.write(text)
assert run("check", "su2_10.json")[0] == 0
code, exact = run("classify", "su2_10.json")
assert code == 0
assert run("modular", "su2_10.json")[0] == 0
assert run("invariants", "su2_10.json")[0] == 0
assert "mpmath" not in sys.modules, "check or classify imported mpmath"
# numpy imports numpy.ma on the first call of some functions (np.unique
# among them), which costs about 22 ms per process.
assert "numpy.ma" not in sys.modules, "check, classify, modular or invariants imported numpy.ma"
data = json.loads(text)
data["dims"] = "auto"
with open("auto.json", "w") as f:
    json.dump(data, f)
assert run("classify", "auto.json") == (0, exact)
assert "mpmath" in sys.modules
"""


def test_cli_loads_mpmath_only_for_auto_dims(tmp_path):
    src = os.path.dirname(os.path.dirname(modinv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", MPMATH_FREE_SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["check", "modular", "invariants", "classify"])
def test_auto_dims_outside_the_field_exit_1(tmp_path, capsys, command):
    # Fibonacci fusion with zero twists: the golden ratio is not in Q(zeta_1).
    data = {
        "labels": ["1", "tau"],
        "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]],
        "dual": [0, 1],
        "twists": ["0", "0"],
        "dims": "auto",
    }
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert err.startswith("invalid ring data: d[1] not found in Q(zeta_1)")
    assert err.count("\n") == 1


def test_auto_dims_with_zero_vacuum_perron_frobenius_entry_is_one_line(tmp_path):
    # N[1,1]^1 = 1 is the only fusion entry, so sum_l N_l has top eigenvector
    # e_1, whose vacuum entry is 0. In a fresh process, so that a numpy
    # warning would reach stderr as it does for users.
    data = {
        "labels": ["0", "1"],
        "fusion": [[1, 1, 1, 1]],
        "dual": [0, 1],
        "twists": ["0", "0"],
        "dims": "auto",
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(modinv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "modinv.cli", "check", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 1
    assert done.stderr == "invalid ring data: sum_l N_l has no positive Perron-Frobenius vector\n"


@pytest.mark.parametrize("command", ["modular", "invariants", "classify"])
def test_integrity_error_is_one_line(tmp_path, capsys, command):
    # SO(16) with twist 1/3 on v passes the ring axioms but breaks the
    # degeneracy dichotomy.
    data = ring_to_json(builtin_so_level1(16))
    data["twists"][1] = "1/3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == (
        "invalid ring data: degeneracy dichotomy violated at label 1: "
        "sum_m Y[l,m] d_m is neither w*d_l nor 0\n"
    )


def test_oversized_ring_files_fail_fast(tmp_path, capsys):
    # One past each cap is refused before the fusion tensor or a cyclotomic
    # polynomial is allocated; the caps themselves parse.
    labels = [str(i) for i in range(MAX_LABELS + 1)]
    with pytest.raises(RingFileError, match=f"{MAX_LABELS + 1} labels"):
        ring_from_json({"labels": labels})
    base = {"labels": ["0", "1"], "fusion": [], "dual": [0, 1], "dims": "auto"}
    at_cap = ring_from_json({**base, "twists": ["0", f"1/{MAX_CONDUCTOR}"]})
    assert at_cap.conductor == MAX_CONDUCTOR
    dims = [{"conductor": 1, "coeffs": [[0, "1"]]}, {"conductor": 10**9, "coeffs": [[0, "1"]]}]
    # Each dims value is read on its own: one whose conductor is past the cap
    # is refused before it is built, and so before the global conductor is
    # known. Conductors at most the cap whose lcm is past it are refused with
    # the global conductor.
    small = [{"conductor": 1, "coeffs": [[0, "1"]]}, {"conductor": 999, "coeffs": [[0, "1"]]}]
    for bad, message in [
        ({**base, "twists": ["0", f"1/{MAX_CONDUCTOR + 1}"]}, "global conductor"),
        ({**base, "twists": ["0", "1/1000000007"]}, "global conductor"),
        ({**base, "twists": ["0", "1/8"], "dims": small}, "global conductor 7992,"),
        (
            {**base, "twists": ["0", "1/8"], "dims": dims},
            f"malformed 'dims': dims[1]: conductor {10**9} outside [1, {MAX_CONDUCTOR}]",
        ),
    ]:
        with pytest.raises(RingFileError, match=re.escape(message)):
            ring_from_json(bad)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["check", "modular", "classify"])
def test_missing_ring_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "does_not_exist.json"
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: cannot read the ring file:")


def test_classify_reads_invariant_file_before_the_search(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the invariant file was read")

    monkeypatch.setattr("modinv.cli.enumerate_invariants", no_search)
    ring_path = tmp_path / "so16.json"
    ring_path.write_text(dump_ring(builtin_so_level1(16)))
    rejected = tmp_path / "rejected.json"
    rejected.write_text("[[2,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]")
    # str.isdigit accepts a superscript two and an Arabic-Indic three; only
    # ASCII decimal strings are pool indices, so these are (missing) paths.
    monkeypatch.chdir(tmp_path)
    cases = [(tmp_path / "nope.json", 2, "error:"), (rejected, 1, "rejected:")]
    cases += [("\u00b2", 2, "error:"), ("\u0663", 2, "error:")]
    for path, code, prefix in cases:
        got, _, err = run(capsys, "classify", str(ring_path), "--invariant", str(path))
        assert (got, err.split(" ")[0]) == (code, prefix)


DEEP_JSON = "[" * 200000 + "]" * 200000


def test_deeply_nested_ring_file_is_a_usage_error(tmp_path, capsys):
    # The standard library's decoder recurses once per nesting level, so a
    # deep enough array exhausts the interpreter's recursion limit.
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: JSON nested too deeply")


def test_deeply_nested_invariant_file_is_a_usage_error(tmp_path, capsys):
    ring_path = tmp_path / "so16.json"
    ring_path.write_text(dump_ring(builtin_so_level1(16)))
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(capsys, "classify", str(ring_path), "--invariant", str(path))
    assert (code, out) == (2, "")
    # Invariant files are read as ring files are, with the same messages.
    assert err == f"error: {path}: JSON nested too deeply to parse\n"


def run_limited(cwd, *argv, program=None):
    """`modinv *argv` in a fresh process under a 1 GB address-space limit
    and a 10 s timeout (TimeoutExpired fails the test): oversized input must
    exit fast, not allocate. One BLAS thread keeps the per-thread buffers
    out of the limit. A `program` (Python source) runs in place of the
    `modinv.cli` module, with argv as its arguments."""
    src = os.path.dirname(os.path.dirname(modinv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["OPENBLAS_NUM_THREADS"] = "1"
    limit = 2**30
    return subprocess.run(
        [sys.executable, *(["-c", program] if program else ["-m", "modinv.cli"]), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("command", ["check", "modular", "classify"])
def test_ring_file_with_an_integer_past_the_digit_limit_exits_2(tmp_path, command):
    # json.load raises a plain ValueError for an integer of more than 4300
    # digits (Python's int() limit); it is a usage error like bad syntax.
    data = ring_to_json(builtin_so_level1(16))
    text = json.dumps(data).replace('"name"', f'"big": {"9" * 5000}, "name"', 1)
    (tmp_path / "big.json").write_text(text)
    done = run_limited(tmp_path, command, "big.json")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: big.json: JSON number too long to parse\n"


def test_builtin_checks_the_twists_conductor_before_building(tmp_path):
    # Building Z_2 at this conductor would form its cyclotomic polynomial.
    done = run_limited(tmp_path, "builtin", "cyclic", "--n", "2", "--twists", "0,1/1000000007")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: global conductor 1000000007, above the limit of {MAX_CONDUCTOR}\n"
    )


def test_bound_scale_past_the_budget_exits_3_before_allocating(tmp_path):
    # Every pivot level past the first has about 10**10 children per parent:
    # the budget is spent before their coefficients are allocated.
    (tmp_path / "so16.json").write_text(dump_ring(builtin_so_level1(16)))
    done = run_limited(tmp_path, "invariants", "so16.json", "--bound-scale", "10000000000")
    assert done.returncode == 3
    assert done.stderr.startswith("warning: enumeration exceeded the node budget of ")
    assert json.loads(done.stdout)["budget_exhausted"] is True


# `modinv` that prints its own peak RSS, in MB, as its last stderr line.
PEAK_RSS = """
import resource, sys
from modinv.cli import main
code = main(sys.argv[1:])
unit = 2**20 if sys.platform == "darwin" else 2**10
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit, file=sys.stderr)
sys.exit(code)
"""


def test_one_search_expansion_stays_bounded(tmp_path):
    # SO(16) at --bound-scale 10000: each parent past the first level has
    # 10,001 children, and the default budget holds 999 parents. Expanded at
    # once they peaked at about 510 MB; SEARCH_EXPANSION caps the parents
    # expanded together.
    (tmp_path / "so16.json").write_text(dump_ring(builtin_so_level1(16)))
    done = run_limited(
        tmp_path, "classify", "so16.json", "--bound-scale", "10000", program=PEAK_RSS
    )
    assert done.returncode == 3
    *rest, peak = done.stderr.splitlines()
    assert any(
        line.startswith("warning: enumeration exceeded the node budget of 10000000 ")
        for line in rest
    )
    assert float(peak) < 200


def test_one_parent_expansion_stays_bounded(tmp_path):
    # SO(16) at --bound-scale 1000000: each parent past the first level has
    # 1,000,001 children, more than SEARCH_EXPANSION allows for one parent.
    # Expanded whole, one parent peaked at about 465 MB; its coefficients
    # are now expanded a range at a time, and the budget ends the search at
    # the same node.
    (tmp_path / "so16.json").write_text(dump_ring(builtin_so_level1(16)))
    done = run_limited(
        tmp_path, "classify", "so16.json", "--bound-scale", "1000000", program=PEAK_RSS
    )
    assert done.returncode == 3
    *rest, peak = done.stderr.splitlines()
    assert rest == [
        "warning: enumeration exceeded the node budget of 10000000 after 9000010 nodes, "
        "reaching pivot level 5 of 5; 4 invariants found before the cutoff"
    ]
    assert float(peak) < 200


def test_invariant_file_with_a_syntax_error_exits_2(tmp_path):
    (tmp_path / "so16.json").write_text(dump_ring(builtin_so_level1(16)))
    (tmp_path / "bad.json").write_text("[[1,0,0,0],\n[0,1")
    done = run_limited(tmp_path, "classify", "so16.json", "--invariant", "bad.json")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: bad.json: invalid JSON at line 2, column 5\n"


SU2_3_FILE = ring_to_json(builtin_su2(3))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ring_from_json_raises_only_ring_file_errors(data):
    # An arbitrary JSON value at any path of a valid ring file: the whole
    # file, a field, or any entry inside one.
    root = copy.deepcopy(SU2_3_FILE)
    parent, key, node = None, None, root
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    value = data.draw(json_values)
    if parent is None:
        root = value
    else:
        parent[key] = value
    try:
        ring_from_json(root)
    except RingFileError:
        pass
