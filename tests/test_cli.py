import json
import time
from pathlib import Path

import pytest

from lhsseq.cli import build_parser, main

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
    assert "page_mismatches" not in report


@pytest.mark.slow
def test_compare_rank3_to_degree_seven_at_the_default_budget(tmp_path):
    # the small oracle reaches degree 7 on the order-81 spec (the dense double
    # complex needed a 242M-entry D_7 there); the engine's pages are known to
    # differ, so only the oracle's verdict and the mismatch list are checked
    out = tmp_path / "cmp.json"
    spec = CONFIGS.parent / "perfbench" / "specs" / "rank3_order81.cfg"
    t0 = time.monotonic()
    main(["compare", "--spec", str(spec), "--max-degree", "7", "--out", str(out)])
    assert time.monotonic() - t0 < 20
    report = json.loads(out.read_text())
    assert report["verdicts"]["oracle_einf_vs_group_cohomology"] == "match"
    mismatches = report["page_mismatches"]
    keys = [(m["r"], m["i"], m["j"]) for m in mismatches]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(m["engine"] != m["oracle"] for m in mismatches)
    first = [f"page {r} at {(i, j)}" for r, i, j in keys[:5]]
    verdict = report["verdicts"]["pages_engine_vs_oracle"]
    assert verdict.startswith("mismatch(") and all(f in verdict for f in first)
    assert verdict.count("page ") == min(5, len(keys))


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


@pytest.mark.parametrize("exponents", ["1,x", ""])
def test_massey_non_integer_exponents_error(exponents, capsys):
    rc = main(["massey", "--p", "3", "--exponents", exponents,
               "--a", "y1", "--b", "y1", "--c", "y1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_trivial_quotient_oracle_pages_and_compare(tmp_path, capsys):
    # a_c = 0 for c >= 1 over the trivial quotient: the oracle's
    # perturbation series must stop at the empty column
    spec = tmp_path / "c3.cfg"
    spec.write_text('{p: 3, kernel_m: 1, quotient: [], xi: "0"}')
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--pages", "--spec", str(spec), "--max-degree", "4", "--out", str(out)])
    assert rc == 0 and json.loads(out.read_text())["cohomology_dims"] == [1] * 5
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--spec", str(spec), "--max-degree", "4", "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0 and report["cohomology_dims"] == [1] * 5
    assert list(report["verdicts"].values()) == ["match"] * 4


@pytest.mark.parametrize("text,message", [
    ('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2", xi_prim: "0"}',
     "unknown spec field 'xi_prim'"),
    ('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2", p: 5}',
     "spec field 'p' is given twice"),
])
def test_unknown_or_repeated_spec_field_errors(text, message, tmp_path, capsys):
    # a misspelt xi_prime would otherwise be replaced by the Bockstein
    # class, and a repeated p would overwrite the first
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    rc = main(["sseq", "--spec", str(bad), "--max-degree", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.strip().splitlines()) == 1


def test_sseq_refuses_kernel_m_above_one_and_compare_reports_it(tmp_path, capsys):
    # at kernel_m = 2 the engine's pages are not those of the group the
    # spec builds (dim H^n(C_9 x C_3) = n + 1): sseq refuses, while
    # compare still runs and reports the mismatch
    spec = tmp_path / "m2.cfg"
    spec.write_text('{p: 3, kernel_m: 2, quotient: [1], xi: "x1", xi_prime: "0"}')
    out = tmp_path / "sseq.json"
    rc = main(["sseq", "--spec", str(spec), "--max-degree", "8", "--out", str(out)])
    assert rc == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sseq does not support kernel_m > 1")
    assert len(captured.err.strip().splitlines()) == 1
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--spec", str(spec), "--max-degree", "4", "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 1 and report["cohomology_dims"] == [1, 2, 3, 4, 5]
    assert report["verdicts"]["engine_einf_vs_group_cohomology"].startswith("mismatch")


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


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_budget_exceeded_errors(capsys):
    assert main(["verify", "--suite", "ladder", "--budget", "10"]) == 2
    assert _one_line_error(capsys)


def test_sseq_r_max_below_two_errors(capsys):
    rc = main(["sseq", "--spec", str(CONFIGS / "split_27.cfg"), "--r-max", "1"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_compare_r_max_below_two_errors(capsys):
    rc = main(["compare", "--spec", str(CONFIGS / "split_27.cfg"), "--r-max", "1"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_sseq_negative_max_degree_errors(capsys):
    rc = main(["sseq", "--spec", str(CONFIGS / "split_27.cfg"), "--max-degree", "-3"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_oracle_negative_max_degree_errors(capsys):
    rc = main(["oracle", "--spec", str(CONFIGS / "split_27.cfg"), "--max-degree", "-3"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_oracle_over_budget_group_errors_at_once(tmp_path, capsys):
    # |E| = 101^3: its table would need 101^6 entries, refused before the
    # 101^2 x 101^2 cocycle table is built
    spec = tmp_path / "big.cfg"
    spec.write_text('{p: 101, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}')
    t0 = time.monotonic()
    assert main(["oracle", "--spec", str(spec), "--max-degree", "2"]) == 2
    assert time.monotonic() - t0 < 1.0
    assert _one_line_error(capsys)


def test_prime_beyond_exact_arithmetic_errors(tmp_path, capsys):
    # 67108879 is the first prime above 2^26
    spec = tmp_path / "p.cfg"
    spec.write_text('{p: 67108879, kernel_m: 1, quotient: [1], xi: "x1"}')
    # N=4 is below r_max as well: the spec is read, and refused, first
    assert main(["sseq", "--spec", str(spec), "--max-degree", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p = 67108879 exceeds 2^26") and len(err.strip().splitlines()) == 1
    rc = main(["massey", "--p", "67108879", "--exponents", "1",
               "--a", "y1", "--b", "y1", "--c", "y1"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_sseq_max_degree_below_r_max_errors(capsys):
    # valid_through = N - r_max < 0 would print an empty series
    rc = main(["sseq", "--spec", str(CONFIGS / "split_27.cfg"), "--max-degree", "6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --max-degree 6 leaves no trusted coefficient")
    assert "use --max-degree 7 or more" in err and len(err.strip().splitlines()) == 1
    assert main(["sseq", "--spec", str(CONFIGS / "split_27.cfg"), "--max-degree", "8",
                 "--r-max", "9"]) == 2
    assert "use --max-degree 9 or more" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_verify_without_pairs_errors(pairs, capsys):
    assert main(["verify", "--suite", "products", "--pairs", pairs]) == 2
    assert _one_line_error(capsys)


def test_oracle_pages_without_a_page_errors(capsys):
    rc = main(["oracle", "--pages", "--spec", str(CONFIGS / "split_27.cfg"), "--r-max", "0"])
    assert rc == 2
    assert _one_line_error(capsys)


def test_expand_negative_degree_errors(capsys):
    assert main(["expand", "--num", "1", "--den", "1,-1", "--N", "-1"]) == 2
    assert _one_line_error(capsys)


REQUIRED_ARGS = {
    "sseq": ["--spec", "s.cfg"],
    "oracle": ["--spec", "s.cfg"],
    "compare": ["--spec", "s.cfg"],
    "massey": ["--p", "3", "--exponents", "1", "--a", "y1", "--b", "y1", "--c", "y1"],
    "verify": [],
    "expand": ["--num", "1", "--den", "1"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_budget_and_seed_only_where_read(command, capsys):
    parser = build_parser()
    for flag, readers in (("--budget", {"oracle", "compare", "verify"}),
                          ("--seed", {"sseq", "verify"})):
        argv = [command, *REQUIRED_ARGS[command], flag, "1"]
        if command in readers:
            assert getattr(parser.parse_args(argv), flag[2:]) == 1
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
