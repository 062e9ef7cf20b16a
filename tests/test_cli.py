import json
from pathlib import Path

import pytest

from lhsseq.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_sseq_split_case(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "sseq",
            "--spec",
            str(CONFIGS / "split_27.cfg"),
            "--max-degree",
            "14",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    # 1/(1-s)^3 coefficients
    assert report["poincare"]["coefficients"][:5] == [1, 3, 6, 10, 15]
    assert report["report_version"] == 1


def test_sseq_case_f_with_overrides(tmp_path):
    out = tmp_path / "f.json"
    rc = main(
        [
            "sseq",
            "--spec",
            str(CONFIGS / "extraspecial_27.cfg"),
            "--overrides",
            str(CONFIGS / "extraspecial_27_overrides.cfg"),
            "--max-degree",
            "16",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["poincare"]["coefficients"][:7] == [1, 2, 4, 6, 7, 8, 9]
    assert len(report["overrides_applied"]) == 2


def test_reports_are_byte_identical(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.json"
        rc = main(
            [
                "sseq",
                "--spec",
                str(CONFIGS / "c9_x_c3.cfg"),
                "--max-degree",
                "12",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.json"
    rc = main(
        [
            "oracle",
            "--spec",
            str(CONFIGS / "metacyclic_27.cfg"),
            "--max-degree",
            "6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cohomology_dims"] == [1, 2, 2, 2, 2, 2, 3]


def test_compare_subcommand_matches(tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(
        [
            "compare",
            "--spec",
            str(CONFIGS / "c9_x_c3.cfg"),
            "--max-degree",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert all(v == "match" for v in report["verdicts"].values())


def test_massey_subcommand(capsys):
    rc = main(
        [
            "massey",
            "--p",
            "3",
            "--exponents",
            "1,1",
            "--a",
            "x1*y2 - x2*y1",
            "--b",
            "x1*y2 - x2*y1",
            "--c",
            "y1*y2",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "x1*x2^2*y2 - x1^2*x2*y1" in text


def test_massey_undefined_exits_nonzero():
    rc = main(["massey", "--p", "3", "--exponents", "1", "--a", "x1", "--b", "x1", "--c", "x1"])
    assert rc == 1


def test_verify_homotopy_suite():
    assert main(["verify", "--suite", "homotopy"]) == 0


def test_verify_ladder_suite():
    assert main(["verify", "--suite", "ladder"]) == 0


def test_expand_subcommand(capsys):
    rc = main(
        ["expand", "--num", "1,1", "--den", "1,-1", "--den", "1,0,0,0,0,0,-1", "--N", "8"]
    )
    assert rc == 0
    got = capsys.readouterr().out.strip().splitlines()[0]
    assert got.split() == ["1", "2", "2", "2", "2", "2", "3", "4", "4"]


def test_bad_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2*y3"}')
    rc = main(["sseq", "--spec", str(bad), "--max-degree", "8"])
    assert rc == 2


def test_non_prime_modulus_errors(capsys):
    rc = main(["massey", "--p", "4", "--exponents", "1", "--a", "y1", "--b", "y1", "--c", "y1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_group_error_in_spec_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "x1*y1"}')
    rc = main(["sseq", "--spec", str(bad), "--max-degree", "8"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_integer_modulus_in_spec_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{p: three, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}')
    rc = main(["sseq", "--spec", str(bad), "--max-degree", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_missing_spec_file_errors(tmp_path, capsys):
    rc = main(["oracle", "--spec", str(tmp_path / "absent.cfg"), "--max-degree", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_expand_non_unit_denominator_errors(capsys):
    rc = main(["expand", "--num", "1", "--den", "2,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
