"""Command-line front end.

Subcommands:
    sseq     run the spectral sequence of an extension spec file
    oracle   minimal-resolution cohomology dimensions of the extension group
    compare  three-way check: engine pages vs the double-complex oracle vs
             the cohomology dimensions of the constructed group
    massey   one Massey triple product in H*(G) for G finite abelian
    verify   the identity suites (products, coboundary formulas, ladder,
             the t^n recursion, the triple homotopy)
    expand   power-series expansion of an integer rational function

Machine-readable reports are canonical JSON (sorted keys, no timing), so
identical inputs give byte-identical files; timing goes to the text log.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .cohomology import MasseyUndefinedError, massey_triple
from .engine import DEFAULT_R_MAX, EngineError, expand_rational, run
from .extensions import build_extension_group
from .fplinalg import DEFAULT_BUDGET, BudgetExceeded
from .groups import AbelianPGroupSpec, GroupError
from .oracle import cohomology_dims, double_complex_ss, euler_telescope
from .parsing import ParseError, parse_class, parse_extension_spec, parse_overrides

REPORT_VERSION = 2


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    if getattr(args, "json", False):
        print(text)


def _load_spec(args):
    with open(args.spec) as fh:
        return parse_extension_spec(fh.read())


def _load_overrides(args, spec):
    if not getattr(args, "overrides", None):
        return []
    with open(args.overrides) as fh:
        return parse_overrides(fh.read(), spec)


def _page_tables(tables: dict) -> dict:
    """{r: {(i, j): dim}} as the report's {"r": {"i,j": dim}}."""
    return {str(r): {f"{i},{j}": d for (i, j), d in tab.items()} for r, tab in tables.items()}


def cmd_sseq(args) -> int:
    spec = _load_spec(args)
    if spec.experimental:
        # the engine reads xi as the d_2 class, but the group the spec
        # builds has d_2(u) = 0 there; compare and oracle show the mismatch
        raise EngineError(
            f"sseq does not support kernel_m > 1 (got {spec.kernel_m}): the engine's pages "
            "would not be those of the extension the spec builds; run compare to see them differ")
    if args.max_degree < args.r_max:
        raise ParseError(
            f"--max-degree {args.max_degree} leaves no trusted coefficient (valid_through = "
            f"max degree - r_max = {args.max_degree - args.r_max}); "
            f"use --max-degree {args.r_max} or more")
    overrides = _load_overrides(args, spec)
    rng = np.random.RandomState(args.seed) if args.randomize else None
    t0 = time.time()
    result = run(spec, args.max_degree, overrides=overrides, r_max=args.r_max, rng=rng)
    elapsed = time.time() - t0
    pd = result["poincare"]
    report = {
        "report_version": REPORT_VERSION,
        "command": "sseq",
        "spec": spec.describe(),
        "max_degree": args.max_degree,
        "r_max": args.r_max,
        "pages": _page_tables({r: page.dims_table() for r, page in result["pages"].items()}),
        "poincare": {
            "coefficients": pd.coefficients,
            "valid_through": pd.valid_through,
        },
        "overrides_applied": [
            {
                "r": ov.r,
                "source": str(ov.source),
                "value": str(ov.value),
                "provenance": ov.provenance,
            }
            for ov in overrides
        ],
        "possible_higher_differentials": [
            [r, list(src), list(tgt)] for r, src, tgt in result["possible_higher"]
        ],
    }
    print(f"extension: {report['spec']}")
    print(f"Poincare coefficients (degrees 0..{pd.valid_through}):")
    print("  " + " ".join(str(c) for c in pd.coefficients))
    if result["possible_higher"]:
        print(
            f"note: {len(result['possible_higher'])} bidegree pairs could carry "
            f"differentials beyond page {args.r_max} (see the report)"
        )
    _print_bigraded(result["pages"][args.r_max])
    print(f"[{elapsed:.2f}s]")
    _emit(report, args)
    return 0


def _print_bigraded(page):
    top = page.valid_through
    print(f"E_{page.r} page dimensions (rows j, columns i, total degree <= {top}):")
    max_j = max((j for j in range(top + 1) if any(page.dim(i, j) for i in range(top - j + 1))),
                default=0)
    for j in range(max_j, -1, -1):
        row = [str(page.dim(i, j)) for i in range(top - j + 1)]
        print(f"  j={j:<2} " + " ".join(f"{v:>3}" for v in row))


def cmd_oracle(args) -> int:
    if args.pages and args.r_max < 1:
        raise ParseError(f"--r-max must be at least 1 with --pages (pages start at E_1), "
                         f"got {args.r_max}")
    spec = _load_spec(args)
    t0 = time.time()
    if args.pages:
        oracle = double_complex_ss(spec, args.max_degree, r_max=args.r_max, budget=args.budget)
        order, dims = oracle.group_order, oracle.cohomology_dims
    else:
        e = build_extension_group(spec, args.budget)
        order, dims = e.order, cohomology_dims(e, args.max_degree, spec.p, args.budget)
    report = {
        "report_version": REPORT_VERSION,
        "command": "oracle",
        "spec": spec.describe(),
        "group_order": order,
        "cohomology_dims": dims,
    }
    if args.pages:
        report["pages"] = _page_tables(oracle.tables)
    print(f"group of order {order}; dim H^n for n = 0..{args.max_degree}:")
    print("  " + " ".join(str(d) for d in dims))
    print(f"[{time.time() - t0:.2f}s]")
    _emit(report, args)
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args)
    overrides = _load_overrides(args, spec)
    deg = args.max_degree
    t0 = time.time()
    engine = run(spec, deg + DEFAULT_R_MAX, overrides=overrides, r_max=args.r_max)
    oracle = double_complex_ss(spec, deg, r_max=args.r_max, budget=args.budget)
    gdims = oracle.cohomology_dims
    verdicts = {}
    mismatches = []  # every differing (r, i, j), sorted
    for r in range(2, args.r_max + 1):
        etab = {
            k: v for k, v in engine["pages"][r].dims_table().items() if sum(k) <= deg
        }
        otab = {k: v for k, v in oracle.tables.get(r, {}).items() if sum(k) <= deg}
        for i, j in sorted(set(etab) | set(otab)):
            if etab.get((i, j), 0) != otab.get((i, j), 0):
                mismatches.append({"r": r, "i": i, "j": j, "engine": etab.get((i, j), 0),
                                   "oracle": otab.get((i, j), 0)})
    detail = [f"page {m['r']} at {(m['i'], m['j'])}: engine {m['engine']}, oracle {m['oracle']}"
              for m in mismatches[:5]]
    verdicts["pages_engine_vs_oracle"] = f"mismatch({detail})" if mismatches else "match"
    einf = oracle.total_dims(args.r_max, deg)
    verdicts["oracle_einf_vs_group_cohomology"] = (
        "match" if einf == gdims else f"mismatch(oracle {einf} vs dims {gdims})"
    )
    etot = engine["pages"][args.r_max].total_dims(deg)
    verdicts["engine_einf_vs_group_cohomology"] = (
        "match" if etot == gdims else f"mismatch(engine {etot} vs dims {gdims})"
    )
    kills = euler_telescope(oracle, deg)
    verdicts["page_drops_telescope"] = (
        "match" if all(all(k >= 0 for k in row) for row in kills) else "mismatch(negative kill count)"
    )
    report = {
        "report_version": REPORT_VERSION,
        "command": "compare",
        "spec": spec.describe(),
        "max_degree": deg,
        "verdicts": verdicts,
        "cohomology_dims": gdims,
    }
    if mismatches:
        report["page_mismatches"] = mismatches
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    print(f"[{time.time() - t0:.2f}s]")
    _emit(report, args)
    return 0 if all(v == "match" for v in verdicts.values()) else 1


def cmd_massey(args) -> int:
    try:
        exponents = tuple(int(x) for x in args.exponents.split(","))
    except ValueError:
        raise ParseError(
            f"--exponents must be comma-separated integers, got {args.exponents!r}") from None
    group = AbelianPGroupSpec(args.p, exponents)
    a = parse_class(args.a, group)
    b = parse_class(args.b, group)
    c = parse_class(args.c, group)
    report = {
        "report_version": REPORT_VERSION,
        "command": "massey",
        "group": {"p": args.p, "exponents": list(group.exponents)},
        "inputs": [str(a), str(b), str(c)],
    }
    try:
        res = massey_triple(a, b, c)
    except MasseyUndefinedError as exc:
        report["defined"] = False
        print(f"undefined: {exc}")
        _emit(report, args)
        return 1
    contains_zero = res.contains_zero()
    report.update(
        {
            "defined": True,
            "representative": str(res.representative),
            "indeterminacy_basis": sorted(str(v) for v in res.indeterminacy_basis),
            "contains_zero": contains_zero,
        }
    )
    print(f"<{a}, {b}, {c}> = {res.representative}")
    print(f"indeterminacy dimension {len(res.indeterminacy_basis)}; "
          f"contains zero: {contains_zero}")
    _emit(report, args)
    return 0


def _verify_products(rng, pairs, complex_of):
    from .verifier import derivation_residual, twist_residual

    results = {}
    for name, _ in _test_extensions(slow=False):
        cx = complex_of(name)
        worst_a = worst_d = worst_t = done = 0
        while done < pairs:
            i1, j1, i2, j2 = rng.randint(0, 4, size=4)
            if i1 + j1 + i2 + j2 > 3:
                continue
            done += 1
            phi, theta = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
            worst_d = max(worst_d, derivation_residual(cx, phi, theta))
            worst_t = max(worst_t, twist_residual(cx, phi, theta))
            rho = cx.random_cochain(rng, 0, min(3 - i1 - j1 - i2 - j2, 1))
            lhs = cx.product(cx.product(phi, theta, "cup"), rho, "cup")
            rhs = cx.product(phi, cx.product(theta, rho, "cup"), "cup")
            worst_a = max(worst_a, (lhs - rhs).max_residual())
        results[f"cup-associativity-p{cx.p}"] = worst_a
        results[f"derivation-property-p{cx.p}"] = worst_d
        results[f"twisted-product-p{cx.p}"] = worst_t
    return results


def _test_extensions(slow: bool):
    from .cohomology import CohoClass, cup
    from .extensions import ExtensionSpec

    q2 = AbelianPGroupSpec(2, (1,))
    q3 = AbelianPGroupSpec(3, (1,))
    out = [
        ("C2.C4.C2", ExtensionSpec(p=2, kernel_m=1, quotient=q2, xi=CohoClass.x(q2, 0))),
        ("C3.C9.C3", ExtensionSpec(p=3, kernel_m=1, quotient=q3, xi=CohoClass.x(q3, 0))),
    ]
    if slow:
        q33 = AbelianPGroupSpec(3, (1, 1))
        xi = cup(CohoClass.y(q33, 0), CohoClass.y(q33, 1))
        out.append(("extraspecial27", ExtensionSpec(p=3, kernel_m=1, quotient=q33, xi=xi)))
    return out


def _verify_cup1(rng, pairs, slow, complex_of):
    from .verifier import check_lemma1

    results = {}
    for name, _ in _test_extensions(slow):
        cx = complex_of(name)
        worst = done = 0
        n_pairs = pairs if cx.ng <= 3 else max(4, pairs // 20)
        while done < n_pairs:
            i1, j1, i2, j2 = rng.randint(0, 4, size=4)
            if i1 + j1 + i2 + j2 > 3:
                continue
            done += 1
            phi, theta = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
            for fname, r in check_lemma1(cx, phi, theta):
                if r is not None:
                    worst = max(worst, r.max_residual())
        results[f"coboundary-formulas-{name}"] = worst
        results[f"complex-identities-{name}"] = cx.complex_identity_residual(2)
    return results


def _verify_ladder(ladder_of):
    from .verifier import row_zero_class_report

    results = {}
    for name, _ in _test_extensions(slow=False):
        ladder = ladder_of(name)
        results[f"ladder-{name}"] = max(ladder.residuals().values())
        report = row_zero_class_report(ladder.complex, ladder)
        results[f"class-identification-{name}"] = (
            0 if report["xi_class_matches"] and report["xi_prime_is_unit_multiple_of_bockstein"] else 1
        )
    return results


def _verify_tpower(ladder_of):
    from .verifier import build_eta_family

    results = {}
    for name, _ in _test_extensions(slow=False):
        for n in (1, 2):
            _, res = build_eta_family(ladder_of(name), n)
            results[f"tpower-n{n}-{name}"] = max(res.values())
    return results


def _verify_homotopy(budget):
    from .diagonals import (
        cyclic_diagonal,
        cyclic_triple_homotopy,
        homotopy_identity_residual,
    )
    from .resolutions import cyclic_resolution

    results = {}
    for order, p in [(2, 2), (3, 3), (4, 2), (5, 5), (9, 3)]:
        res = cyclic_resolution(order, p, 7)
        results[f"triple-homotopy-order{order}"] = homotopy_identity_residual(
            res, cyclic_diagonal(res), cyclic_triple_homotopy(res), 6, budget
        )
    return results


def cmd_verify(args) -> int:
    if args.pairs < 1:
        raise ParseError(f"--pairs must be at least 1, got {args.pairs}")
    from .verifier import build_double_complex, build_ladder

    rng = np.random.RandomState(args.seed)
    specs = dict(_test_extensions(slow=True))
    # one double complex and one ladder per test extension, shared by the suites
    complex_of = functools.cache(
        lambda name: build_double_complex(specs[name], 3, budget=args.budget))
    ladder_of = functools.cache(lambda name: build_ladder(complex_of(name)))
    suites = {
        "products": lambda: _verify_products(rng, args.pairs, complex_of),
        "cup1": lambda: _verify_cup1(rng, args.pairs, args.slow, complex_of),
        "ladder": lambda: _verify_ladder(ladder_of),
        "tpower": lambda: _verify_tpower(ladder_of),
        "homotopy": lambda: _verify_homotopy(args.budget),
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    results = {}
    t0 = time.time()
    for suite in chosen:
        results.update(suites[suite]())
    failed = {k: v for k, v in results.items() if v != 0}
    for k in sorted(results):
        print(f"{k}: max residual {results[k]} -> {'pass' if results[k] == 0 else 'FAIL'}")
    print(f"[{time.time() - t0:.2f}s]")
    report = {
        "report_version": REPORT_VERSION,
        "command": "verify",
        "suites": chosen,
        "seed": args.seed,
        "results": results,
        "all_pass": not failed,
    }
    _emit(report, args)
    return 0 if not failed else 1


def cmd_expand(args) -> int:
    from .engine import poly_mul

    try:
        num = [int(x) for x in args.num.split(",")]
        den = [1]
        for d in args.den:
            den = poly_mul(den, [int(x) for x in d.split(",")])
        coeffs = expand_rational(num, den, args.N)
    except ValueError as exc:
        raise ParseError(f"expand: {exc}") from exc
    print(" ".join(str(c) for c in coeffs))
    _emit(
        {
            "report_version": REPORT_VERSION,
            "command": "expand",
            "numerator": num,
            "denominator": den,
            "coefficients": coeffs,
        },
        args,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lhsseq",
        description="exact mod-p spectral sequences of central extensions",
    )
    ap.add_argument("--version", action="version", version=f"lhsseq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, spec_file=True, seed=False, budget=False):
        if spec_file:
            sp.add_argument("--spec", required=True, help="extension spec file")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="most entries any one array may hold (default 2^27); "
                                 "it bounds each array, not the sum of those alive at once")
        sp.add_argument("--out", help="write the machine-readable report here")
        sp.add_argument("--json", action="store_true", help="print the report as JSON")

    sp = sub.add_parser("sseq", help="run the spectral sequence of an extension")
    common(sp, seed=True)
    sp.add_argument("--max-degree", type=int, default=20)
    sp.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)
    sp.add_argument("--overrides", help="higher-differential override file")
    sp.add_argument(
        "--randomize",
        action="store_true",
        help="randomize the representative choices inside d4 (pages must not change)",
    )
    sp.set_defaults(func=cmd_sseq)

    sp = sub.add_parser("oracle", help="brute-force cohomology of the extension group")
    common(sp, budget=True)
    sp.add_argument("--max-degree", type=int, default=8)
    sp.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)
    sp.add_argument("--pages", action="store_true", help="also compute page tables")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare", help="engine vs oracle vs group cohomology")
    common(sp, budget=True)
    sp.add_argument("--max-degree", type=int, default=8)
    sp.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)
    sp.add_argument("--overrides")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("massey", help="a Massey triple product in H*(G)")
    common(sp, spec_file=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--exponents", required=True, help="e.g. 1,1 for C_p + C_p")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", required=True)
    sp.set_defaults(func=cmd_massey)

    sp = sub.add_parser("verify", help="identity suites with exact residuals")
    common(sp, spec_file=False, seed=True, budget=True)
    sp.add_argument(
        "--suite",
        default="all",
        choices=["all", "products", "cup1", "ladder", "tpower", "homotopy"],
    )
    sp.add_argument("--pairs", type=int, default=100)
    sp.add_argument("--slow", action="store_true", help="include the order-27 grid")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("expand", help="expand an integer rational function")
    common(sp, spec_file=False)
    sp.add_argument("--num", required=True, help="comma-separated coefficients")
    sp.add_argument(
        "--den",
        action="append",
        required=True,
        help="denominator factor coefficients; repeat to multiply factors",
    )
    sp.add_argument("--N", type=int, default=12)
    sp.set_defaults(func=cmd_expand)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= getattr(args, "seed", 0) < 2**32:  # the seeds numpy's RandomState takes
            raise ParseError(f"--seed must be in 0..2^32 - 1, got {args.seed}")
        return args.func(args)
    except (ParseError, EngineError, MasseyUndefinedError, GroupError, BudgetExceeded,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
