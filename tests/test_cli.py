"""Command-line interface: ring-file round trips, exit codes, report
determinism."""

import json
from fractions import Fraction

import pytest

from modinv.cli import main
from modinv.fusion import builtin_cyclic, builtin_so_level1, builtin_su2
from modinv.ringfile import RingFileError, dump_ring, load_ring, ring_from_json, ring_to_json


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


def test_ring_file_rejects_bad_fields():
    data = ring_to_json(builtin_so_level1(16))
    bad = dict(data)
    bad["twists"] = ["0", "1/2", "1", "not-a-number"]
    with pytest.raises(RingFileError, match="twists"):
        ring_from_json(bad)
    bad = dict(data)
    bad["fusion"] = [[0, 0, 9, 1]]
    with pytest.raises(RingFileError, match="out of range"):
        ring_from_json(bad)


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
    code, _, err = run(capsys, "builtin", "su2")
    assert code == 2
    assert "--level" in err


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
    report = json.loads(out)
    assert report["ring"]["conductor"] == 2
    assert report["modular"]["nondegenerate"] is True
    assert report["modular"]["central_charge"] == "8"


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
    data = ring_to_json(builtin_so_level1(16))
    data["dims"] = "auto"
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert "--numeric" in err
    code, out, _ = run(capsys, "invariants", str(path), "--numeric")
    assert code == 0
    report = json.loads(out)
    assert len(report["invariants"]) == 6
    assert all(not inv["verified"] for inv in report["invariants"])


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
    for path, code, prefix in [(tmp_path / "nope.json", 2, "error:"), (rejected, 1, "rejected:")]:
        got, _, err = run(capsys, "classify", str(ring_path), "--invariant", str(path))
        assert (got, err.split(" ")[0]) == (code, prefix)
