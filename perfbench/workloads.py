"""The benchmark's workloads and the references their outputs are checked against.

Every reference here is independent of the code path a workload times:
the Poincare coefficients of `sseq` are checked against a closed-form
series and against minimal-resolution dimensions, never against another
engine run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

SPECS = "perfbench/specs"
EXTRASPECIAL_27 = ("--spec", "configs/extraspecial_27.cfg",
                   "--overrides", "configs/extraspecial_27_overrides.cfg")


def series_f(through: int) -> list[int]:
    """Coefficients 0..through of the paper's series (f),
    (1+s+2s^2+2s^3+s^4+s^5)/((1-s)(1-s^6)): dim H^n of the extraspecial
    group of order 27 and exponent 3."""
    num = [1, 1, 2, 2, 1, 1] + [0] * max(0, through - 5)
    out = []
    running = 0
    for n in range(through + 1):
        running += num[n]  # divide by (1 - s)
        out.append(running + (out[n - 6] if n >= 6 else 0))  # by (1 - s^6)
    return out


# dim H^n(E; F_3) for n = 0..15, E the order-81 group of
# specs/rank3_order81.cfg, read off a minimal free resolution over F_3[E]
# (lhsseq.oracle.minimal_resolution to degree 16).  `certify.py`
# re-derives the list and proves it: d^2 = 0, every d_n is a module map
# with entries in the augmentation ideal, and rank d_n + rank d_{n+1} =
# |E| b_n with ranks from an elimination that shares no code with lhsseq.
RANK3_ORDER81_DIMS = [1, 3, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 17, 19, 21, 22]

# dim H^n(E; F_5) for n = 0..5, E the extraspecial group of order 125 and
# exponent 5 (specs/extraspecial_125.cfg); certified the same way.
EXTRASPECIAL_125_DIMS = [1, 2, 4, 6, 7, 8]

# Wrong results the program is known to give, by invocation label, with
# every mismatch of the report, as check_poincare words it.  Each is still
# checked and counted in `wrong_results` on every run; the run stays
# correct only while the report's problem reads exactly as listed here, so
# a change at any degree through valid_through makes it incorrect.
KNOWN_WRONG = {
    # ROADMAP item 3: pages 5..r_max miss a d_5 that the minimal
    # resolution shows, and nothing in the report warns about it.
    "sseq rank3_order81 N=22": (
        "mismatches (degree: reported/reference) 6: 10/9, 7: 14/11, 8: 18/13, 9: 21/14, "
        "10: 24/15, 11: 27/16, 12: 31/17, 13: 37/19, 14: 43/21, 15: 48/22"),
    # valid_through = N - r_max ignores the d_r, r > r_max, that the report
    # lists under possible_higher_differentials; from degree 13 on the
    # coefficients exceed dim H^n of the group.
    "sseq extraspecial_27 N=40": (
        "mismatches (degree: reported/reference) 13: 20/18, 14: 22/20, 15: 26/22, "
        "16: 27/23, 17: 30/24, 18: 31/25, 19: 36/26, 20: 38/28, 21: 44/30, 22: 45/31, "
        "23: 50/32, 24: 51/33, 25: 58/34, 26: 60/36, 27: 68/38, 28: 69/39, 29: 76/40, "
        "30: 77/41, 31: 86/42, 32: 88/44, 33: 98/46"),
}


def check_poincare(reference: list[int]) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        pd = report["poincare"]
        top = pd["valid_through"]
        got = pd["coefficients"]
        if len(got) != top + 1:
            return f"{len(got)} coefficients for valid_through {top}"
        if top >= len(reference):
            return f"valid_through {top} is past the reference (degree {len(reference) - 1})"
        bad = [f"{n}: {g}/{w}" for n, (g, w) in enumerate(zip(got, reference)) if g != w]
        return f"mismatches (degree: reported/reference) {', '.join(bad)}" if bad else None

    return check


COMPARE_VERDICTS = ("pages_engine_vs_oracle", "oracle_einf_vs_group_cohomology",
                    "engine_einf_vs_group_cohomology", "page_drops_telescope")


def check_compare(report: dict) -> str | None:
    verdicts = report["verdicts"]
    if sorted(verdicts) != sorted(COMPARE_VERDICTS):
        return f"verdicts {sorted(verdicts)}"
    bad = {k: v for k, v in verdicts.items() if v != "match"}
    return f"verdicts not match: {bad}" if bad else None


def check_dims(order: int, reference: list[int]) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        if report["group_order"] != order:
            return f"group order {report['group_order']}, expected {order}"
        if report["cohomology_dims"] != reference:
            return f"dims {report['cohomology_dims']}, reference {reference}"
        return None

    return check


def check_verify(report: dict) -> str | None:
    results = report["results"]
    nonzero = {k: v for k, v in results.items() if v != 0}
    if not results or nonzero or report["all_pass"] is not True:
        return f"all_pass {report['all_pass']}, nonzero residuals {nonzero}"
    return None


@dataclass(frozen=True)
class Invocation:
    """One `lhsseq` command line (without --out) and the check of its report."""

    label: str
    args: tuple[str, ...]
    check: Callable[[dict], str | None]


def workload(name: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of a workload; only `verify` uses the seed."""
    if name == "sseq":
        return [
            Invocation("sseq extraspecial_27 N=40",
                       ("sseq", *EXTRASPECIAL_27, "--max-degree", "40"),
                       check_poincare(series_f(40))),
            Invocation("sseq rank3_order81 N=22",
                       ("sseq", "--spec", f"{SPECS}/rank3_order81.cfg", "--max-degree", "22"),
                       check_poincare(RANK3_ORDER81_DIMS)),
        ]
    if name == "compare":
        return [Invocation("compare extraspecial_27 deg=8",
                           ("compare", *EXTRASPECIAL_27, "--max-degree", "8"),
                           check_compare)]
    if name == "resolve":
        return [Invocation("oracle extraspecial_125 deg=5",
                           ("oracle", "--spec", f"{SPECS}/extraspecial_125.cfg",
                            "--max-degree", "5"),
                           check_dims(125, EXTRASPECIAL_125_DIMS))]
    if name == "verify":
        seed %= 2**32  # the range numpy's RandomState accepts
        return [Invocation(f"verify all slow seed={seed}",
                           ("verify", "--suite", "all", "--slow", "--seed", str(seed)),
                           check_verify)]
    raise KeyError(name)


WORKLOADS = ("sseq", "compare", "resolve", "verify")
