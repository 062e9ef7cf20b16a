import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lhsseq.cohomology import CohoClass, RingContext, cup, triple_h
from lhsseq.engine import (
    Cell,
    DifferentialOverride,
    EngineContext,
    EngineError,
    _init_page,
    differential_matrix,
    expand_rational,
    poly_mul,
    run,
)
from lhsseq.extensions import ExtensionSpec
from lhsseq.fplinalg import mul_mod, rref, subquotient_of
from lhsseq.groups import AbelianPGroupSpec
from lhsseq.oracle import double_complex_ss
from lhsseq.parsing import parse_class, parse_e2, parse_extension_spec, parse_overrides

# ---- closed-form expected series (power series of the stated rational
# functions; the engine must reproduce their coefficients) --------------

ONE_MINUS_S = [1, -1]
ONE_MINUS_S2 = [1, 0, -1]
ONE_MINUS_S6 = [1, 0, 0, 0, 0, 0, -1]

SERIES = {
    "a": ([1], poly_mul(poly_mul(ONE_MINUS_S, ONE_MINUS_S), ONE_MINUS_S)),
    "b": ([1], poly_mul(ONE_MINUS_S, ONE_MINUS_S)),
    "c": ([1, 1], poly_mul(ONE_MINUS_S, ONE_MINUS_S6)),
    "d": ([1, 1, 1], poly_mul(poly_mul(ONE_MINUS_S2, ONE_MINUS_S2), ONE_MINUS_S)),
    "e": ([1, 0, 1], poly_mul(ONE_MINUS_S6, poly_mul(ONE_MINUS_S, ONE_MINUS_S))),
    "f": ([1, 1, 2, 2, 1, 1], poly_mul(ONE_MINUS_S6, ONE_MINUS_S)),
}

CASE_F_OVERRIDES = """
# higher differentials of the order-27 extraspecial extension
d5 | t^2*x1*y2 - t^2*x2*y1 | x1^3*x2 - x2^3*x1 | Kudo transgression
d5 | t^2*u*y1*y2 | u*x1^3*y2 - u*x2^3*y1 | integral Bockstein comparison, unit multiple fixed to 1
"""


ROOT = Path(__file__).resolve().parents[1]
# every extension spec in configs/ (the *_overrides.cfg files are not specs)
CONFIG_SPECS = sorted(
    p.stem for p in (ROOT / "configs").glob("*.cfg") if not p.stem.endswith("_overrides")
)


def config_spec(name: str) -> ExtensionSpec:
    return parse_extension_spec((ROOT / "configs" / f"{name}.cfg").read_text())


def series_for(xi_name: str, m: int, n: int) -> str:
    if xi_name == "0":
        return "a"
    if xi_name == "x1":
        return "b"
    if xi_name == "x1 + y1*y2":
        return "c" if n == 1 else "b"
    assert xi_name == "y1*y2"
    if m == 1 and n == 1:
        return "f"
    if m > 1 and n > 1:
        return "d"
    return "e"


def make_spec(xi_name: str, m: int, n: int) -> ExtensionSpec:
    quotient = AbelianPGroupSpec(3, (m, n))
    return ExtensionSpec(p=3, kernel_m=1, quotient=quotient, xi=parse_class(xi_name, quotient))


def overrides_for(spec, xi_name, m, n):
    if series_for(xi_name, m, n) == "f":
        return parse_overrides(CASE_F_OVERRIDES, spec)
    return []


# ---- expand_rational ---------------------------------------------------


def test_expand_geometric():
    assert expand_rational([1], [1, -1], 6) == [1] * 7


def test_expand_case_c():
    got = expand_rational(*SERIES["c"], 8)
    assert got == [1, 2, 2, 2, 2, 2, 3, 4, 4]


def test_expand_case_e():
    got = expand_rational(*SERIES["e"], 6)
    assert got == [1, 2, 4, 6, 8, 10, 13]


def test_expand_case_f():
    got = expand_rational(*SERIES["f"], 6)
    assert got == [1, 2, 4, 6, 7, 8, 9]


def test_expand_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        expand_rational([1], [0, 1], 3)


# ---- starting page -----------------------------------------------------


def test_init_page_rank_two_rows():
    page = _init_page(EngineContext(make_spec("y1*y2", 1, 1), 12))
    for i in range(6):
        for j in range(6):
            assert page.dim(i, j) == i + 1


def test_init_page_trivial_quotient():
    q = AbelianPGroupSpec(3, ())
    spec = ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=CohoClass.zero(q))
    page = _init_page(EngineContext(spec, 8))
    assert all(page.dim(0, j) == 1 for j in range(8))
    assert all(page.dim(i, j) == 0 for i in range(1, 8) for j in range(8))


def test_init_page_c9_quotient():
    spec = make_spec("0", 2, 2)
    page = _init_page(EngineContext(spec, 10))
    # dim H^i(C_9 + C_9) = i + 1 as well
    assert page.dim(3, 4) == 4


@pytest.mark.parametrize("name", CONFIG_SPECS)
def test_e2_cells_equal_the_whole_space_subquotient(name):
    # E_2 is built without elimination; its cells must be exactly what
    # subquotient_of makes of the identity with no boundaries: the unit
    # vectors as representatives, and page coordinates equal to E_2 ones
    ctx = EngineContext(config_spec(name), 12)
    page = _init_page(ctx)
    # the row block: rows 0..2p-1 of every column with H^i(G) != 0
    assert len(page.cells) == sum(min(2 * ctx.p, 13 - i) for i in range(13) if ctx.ring.dim(i))
    for (i, j), cell in page.cells.items():
        d = ctx.ring.dim(i)
        want = subquotient_of(np.eye(d, dtype=np.int64), [], d, ctx.p)
        assert cell.steps == () and cell.dim == want.dim and not want.boundary_basis.size
        got_a, want_a = cell.reps, want.quotient_reps
        assert got_a.dtype == want_a.dtype and got_a.shape == want_a.shape
        assert (got_a == want_a).all()
        assert (cell.reduce(want_a) == want.reduce(want_a)).all()


# ---- closed differential formulas ---------------------------------------


def test_d2_matches_multiplication_by_xi():
    spec = make_spec("y1*y2", 1, 1)
    ctx = EngineContext(spec, 10)
    page = _init_page(ctx)
    diffs = differential_matrix(ctx, page)
    # at (2, 1): u*chi -> xi*chi for chi in H^2; E_2 representatives are
    # the unit vectors, so page column k is the image of basis class k
    mat = diffs[(2, 1)]
    xi = spec.xi
    for col, mon in enumerate(ctx.ring.basis(2)):
        chi = CohoClass(spec.quotient, {mon: 1})
        assert (mat[:, col] == ctx.ring.to_vector(cup(xi, chi), 4) % 3).all()
    # xi H^1 = 0 and even rows die under d2: zero page matrices are left out
    assert (1, 1) not in diffs and (1, 2) not in diffs


def test_paper_d4_values_case_e():
    # quotient C_9 + C_3, xi = y1*y2: d4(t^2 y2) = -u x2^2 y1 and
    # d4(t^i u y1) = 0
    spec = make_spec("y1*y2", 2, 1)
    ctx = EngineContext(spec, 14)
    result = run(spec, 14)
    page4 = result["pages"][4]
    # evaluate the formula directly on the representative of t^2 y2
    vec = ctx.ring.to_vector(CohoClass.y(spec.quotient, 1), 1)
    from lhsseq.engine import _formula_value

    val = _formula_value(ctx, 4, 1, 4, vec[None])
    want = -ctx.ring.to_vector(
        cup(cup(CohoClass.x(spec.quotient, 1), CohoClass.x(spec.quotient, 1)),
            CohoClass.y(spec.quotient, 0)),
        5,
    ) % 3
    assert (val % 3 == want % 3).all()
    # odd-row source t^1 u y1 and t^2 u y1: the Massey product vanishes
    vec_y1 = ctx.ring.to_vector(CohoClass.y(spec.quotient, 0), 1)
    assert _formula_value(ctx, 4, 1, 3, vec_y1[None]) is None or not _formula_value(
        ctx, 4, 1, 3, vec_y1[None]
    ).any()
    v5 = _formula_value(ctx, 4, 1, 5, vec_y1[None])
    assert v5 is None or not v5.any()


def test_paper_d4_values_case_f():
    # quotient C_3 + C_3, xi = y1*y2: d4(t^i u (x1y2 - x2y1)) =
    # i t^{i-1} (x1 x2^2 y2 - x1^2 x2 y1), and d4(t^2 y_i) = u xi' x_i
    spec = make_spec("y1*y2", 1, 1)
    ctx = EngineContext(spec, 14)
    q = spec.quotient
    chi = parse_class("x1*y2 - x2*y1", q)
    from lhsseq.engine import _formula_value

    for i_pow in (1, 2):
        vec = ctx.ring.to_vector(chi, 3)
        val = _formula_value(ctx, 4, 3, 2 * i_pow + 1, vec[None])
        want = (i_pow * ctx.ring.to_vector(parse_class("x1*x2^2*y2 - x1^2*x2*y1", q), 7)) % 3
        assert (val % 3 == want).all()
    for idx, name in ((0, "x1"), (1, "x2")):
        vec = ctx.ring.to_vector(CohoClass.y(q, idx), 1)
        val = _formula_value(ctx, 4, 1, 4, vec[None])
        want = ctx.ring.to_vector(
            cup(parse_class("x1*y2 - x2*y1", q), parse_class(name, q)), 5
        )
        assert (val % 3 == want).all()


# the two benchmark specs, read only
BENCH_SPECS = sorted((ROOT / "perfbench" / "specs").glob("*.cfg"))


@pytest.mark.parametrize(
    "path",
    [ROOT / "configs" / f"{name}.cfg" for name in CONFIG_SPECS] + BENCH_SPECS,
    ids=lambda path: path.stem,
)
def test_massey_map_columns_are_triple_h(path):
    """The composition massey_map builds, against triple_h one basis class
    at a time; split_27 has xi = 0 and c9_x_c3 has xi' = 0."""
    spec = parse_extension_spec(path.read_text())
    ctx = EngineContext(spec, 12)
    for d in range(13):
        m = ctx.massey_map(d)
        assert m.shape == (ctx.ring.dim(d + 4), ctx.ring.dim(d))
        for j, mon in enumerate(ctx.ring.basis(d)):
            h = triple_h(spec.xi_prime, CohoClass(spec.quotient, {mon: 1}), spec.xi)
            assert (m[:, j] == ctx.ring.to_vector(h, d + 4)).all(), (d, mon)


def test_massey_map_covers_vanishing_xi_and_xi_prime():
    assert config_spec("split_27").xi.is_zero()
    assert config_spec("c9_x_c3").xi_prime.is_zero()


def test_d4_zero_when_p_divides_power():
    spec = make_spec("y1*y2", 1, 1)
    ctx = EngineContext(spec, 16)
    from lhsseq.engine import _formula_value

    vec = ctx.ring.to_vector(parse_class("x1*y2 - x2*y1", spec.quotient), 3)
    assert _formula_value(ctx, 4, 3, 7, vec[None]) is None  # t^3 u chi, 3 | 3



def test_d4_rejects_a_representative_that_should_have_died():
    # xi = x1: x1*y1 != 0, so y1 at (1, 3) does not survive to page 4
    spec = make_spec("x1", 1, 1)
    ctx = EngineContext(spec, 10)
    from lhsseq.engine import _formula_value

    vec = ctx.ring.to_vector(CohoClass.y(spec.quotient, 0), 1)
    with pytest.raises(EngineError, match="survival conditions"):
        _formula_value(ctx, 4, 1, 3, vec[None])


def test_d4_rejects_an_unsolvable_chi_prime():
    # xi = y1*y2 kills H^1, but xi' * 1 != 0: t^2 at (0, 4) dies on page 3,
    # and fed to d4 it has no chi' with xi chi' = xi' chi
    ctx = EngineContext(make_spec("y1*y2", 1, 1), 10)
    from lhsseq.engine import _formula_value

    with pytest.raises(EngineError, match="no solution of xi"):
        _formula_value(ctx, 4, 0, 4, np.ones((1, 1), dtype=np.int64))


def test_d_squared_check_raises_on_a_nonzero_composite():
    from lhsseq.engine import check_d_squared

    one = np.ones((1, 1), dtype=np.int64)
    diffs = {(0, 1): one, (2, 0): one}
    with pytest.raises(EngineError, match=r"d_2\^2 != 0 at bidegree \(0, 1\)"):
        check_d_squared(diffs, 2, 3)
    check_d_squared({(0, 1): one, (2, 0): 0 * one}, 2, 3)


def test_differential_value_off_the_target_cycles_is_rejected():
    from lhsseq.engine import _page_block

    tgt = Cell(np.array([[1, 0]]), (subquotient_of([[1, 0]], [], 2, 3),))
    assert _page_block(2, (0, 1), tgt, np.array([[2, 0]])).tolist() == [[2]]
    with pytest.raises(EngineError, match="not a page-2 cycle"):
        _page_block(2, (0, 1), tgt, np.array([[1, 1]]))


# ---- full runs against the closed forms ---------------------------------


@pytest.mark.parametrize("xi_name", ["0", "x1", "x1 + y1*y2", "y1*y2"])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_engine_matches_closed_form(xi_name, m, n):
    spec = make_spec(xi_name, m, n)
    result = run(spec, 20, overrides=overrides_for(spec, xi_name, m, n))
    pd = result["poincare"]
    case = series_for(xi_name, m, n)
    want = expand_rational(*SERIES[case], 12)
    assert pd.coefficients[:13] == want, (xi_name, m, n, case)


def test_collapse_when_xi_zero():
    spec = make_spec("0", 1, 1)
    result = run(spec, 12)
    pages = result["pages"]
    for r in range(3, 8):
        assert pages[r].dims_table() == pages[2].dims_table()


def test_row_dimension_law_all_quotients():
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        page = _init_page(EngineContext(make_spec("y1*y2", m, n), 12))
        for i in range(13):
            for j in range(13 - i):
                assert page.dim(i, j) == i + 1


def test_total_dimension_monotone():
    spec = make_spec("y1*y2", 1, 1)
    result = run(spec, 16, overrides=overrides_for(spec, "y1*y2", 1, 1))
    pages = result["pages"]
    for r in range(2, 7):
        a = pages[r].total_dims(9)
        b = pages[r + 1].total_dims(9)
        assert all(x >= y for x, y in zip(a, b))


def test_t_cubed_is_permanent_cycle_through_page_seven():
    # t^3 sits at (0, 6); no formula differential may move it for p = 3
    spec = make_spec("y1*y2", 1, 1)
    result = run(spec, 16, overrides=overrides_for(spec, "y1*y2", 1, 1))
    for r in range(2, 8):
        assert result["pages"][r].dim(0, 6) == 1


def test_d3_even_row_coefficient_vanishes_mod_p():
    # d3(t^3 chi) carries coefficient 3 = 0: row 6 maps to zero at page 3
    spec = make_spec("y1*y2", 2, 1)
    ctx = EngineContext(spec, 16)
    from lhsseq.engine import _formula_value

    vec = ctx.ring.to_vector(CohoClass.one(spec.quotient), 0)
    assert _formula_value(ctx, 3, 0, 6, vec[None]) is None


# ---- overrides -----------------------------------------------------------


def test_override_bidegree_validation():
    spec = make_spec("y1*y2", 1, 1)
    with pytest.raises(EngineError):
        DifferentialOverride(
            r=5,
            source=parse_e2("t^2*u*y1*y2", spec),
            value=parse_e2("x1^3*x2", spec),  # wrong row
        )


def test_override_r_must_be_at_least_five():
    spec = make_spec("y1*y2", 1, 1)
    with pytest.raises(EngineError):
        DifferentialOverride(
            r=4,
            source=parse_e2("t^2*u*y1*y2", spec),
            value=parse_e2("u*x1^3*y2", spec),
        )


def _run_with_override(line):
    spec = make_spec("y1*y2", 1, 1)
    run(spec, 14, overrides=parse_overrides(line, spec))


def test_override_source_outside_the_computed_range_is_rejected():
    # the case f d5 moved up eight rows: its source (3, 20) is past N = 14
    with pytest.raises(EngineError, match=r"source \(3, 20\) is outside the computed range"):
        _run_with_override("d5 | t^10*x1*y2 - t^10*x2*y1 | t^8*x1^3*x2 - t^8*x2^3*x1 | past N")


def test_override_source_that_dies_before_the_page_is_rejected():
    # d2(t^2 u) = t^2 xi != 0, so t^2 u is not a page-5 class
    with pytest.raises(EngineError, match=r"t\^2\*u does not survive to page 5"):
        _run_with_override("d5 | t^2*u | u*x1^2*y1 | killed by d2")


def test_override_source_that_is_zero_on_the_page_is_rejected():
    # t^2 xi = d2(t^2 u) is a boundary: a cycle, but zero from page 3 on
    with pytest.raises(EngineError, match=r"\*t\^2 is zero on page 5"):
        _run_with_override("d5 | t^2*y1*y2 | x1^3*y1 | a boundary")


def test_override_with_two_values_is_rejected():
    # one source mapped to v and to -v: the difference 2v must vanish on the page
    spec = make_spec("y1*y2", 1, 1)
    text = """
d5 | t^2*x1*y2 - t^2*x2*y1 | x1^3*x2 - x2^3*x1 | v
d5 | t^2*x1*y2 - t^2*x2*y1 | x2^3*x1 - x1^3*x2 | -v
"""
    with pytest.raises(EngineError, match="not well defined on the page"):
        run(spec, 14, overrides=parse_overrides(text, spec))

def test_override_source_product_off_the_page_cycles_is_rejected():
    # source * rho must be a page-r cycle: a cell whose cycles miss the
    # products of t^2 (x1 y2 - x2 y1) with H^1 makes differential_matrix refuse
    spec = make_spec("y1*y2", 1, 1)
    ctx = EngineContext(spec, 14)
    page = run(spec, 14, r_max=5)["pages"][5]
    d = ctx.ring.dim(4)
    e0 = np.eye(d, dtype=np.int64)[:1]
    page.cells[(4, 4)] = Cell(e0, (subquotient_of(e0, [], d, 3, [0]),))
    ovs = parse_overrides(CASE_F_OVERRIDES, spec)[:1]
    with pytest.raises(EngineError, match=r"source product at \(4, 4\) is not a page-5 cycle"):
        differential_matrix(ctx, page, ovs)


def test_empty_overrides_give_zero_differential():
    spec = make_spec("y1*y2", 2, 2)
    r1 = run(spec, 12)
    for r in (5, 6, 7):
        assert r1["pages"][r].dims_table() == r1["pages"][4].dims_table()


def test_choice_independence_of_d4():
    # randomized chi' solutions and Massey representatives must not
    # change any page dimensions (cases e and f)
    for xi_name, m, n in [("y1*y2", 2, 1), ("y1*y2", 1, 1)]:
        spec = make_spec(xi_name, m, n)
        ovs = overrides_for(spec, xi_name, m, n)
        base = run(spec, 14, overrides=ovs)
        base_e5 = base["pages"][5].dims_table()
        base_series = base["poincare"].coefficients
        for seed in range(20):
            rng = np.random.RandomState(seed)
            res = run(spec, 14, overrides=ovs, rng=rng)
            assert res["pages"][5].dims_table() == base_e5, (xi_name, seed)
            assert res["poincare"].coefficients == base_series


def test_possible_higher_differentials_reported():
    spec = make_spec("y1*y2", 1, 1)
    result = run(spec, 16, overrides=overrides_for(spec, "y1*y2", 1, 1))
    flags = result["possible_higher"]
    assert all(r > 7 for r, _, _ in flags)


# ---- config parsing ------------------------------------------------------


def test_parse_extension_spec_record():
    spec = parse_extension_spec('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}')
    assert spec.p == 3
    assert spec.quotient.exponents == (1, 1)
    assert spec.xi == cup(
        CohoClass.y(spec.quotient, 0), CohoClass.y(spec.quotient, 1)
    )


def test_parse_extension_spec_zero_class():
    spec = parse_extension_spec('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "0"}')
    assert spec.xi.is_zero()


def test_parse_rejects_overlong_monomial():
    from lhsseq.parsing import ParseError
    from lhsseq.groups import GroupError

    with pytest.raises((ParseError, GroupError)):
        parse_extension_spec('{p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2*y3"}')


def test_parse_e2_round_trip():
    spec = make_spec("y1*y2", 1, 1)
    el = parse_e2("t^2*u*y1*y2", spec)
    assert el.bidegree == (2, 5) and str(el) == "(y1*y2)*t^2*u"
    el2 = parse_e2("t^2*x1*y2 - t^2*x2*y1", spec)
    assert el2.bidegree == (3, 4) and str(el2) == "(x1*y2 - x2*y1)*t^2"
    from lhsseq.parsing import ParseError

    for text in ("0", "t^2*y1 - t^2*y1", "t*y1 + y1*y2"):
        with pytest.raises(ParseError, match="expected a single-bidegree element"):
            parse_e2(text, spec)


def test_poincare_data_invariants():
    for xi_name, m, n in [("0", 1, 1), ("y1*y2", 1, 1), ("x1", 2, 2)]:
        spec = make_spec(xi_name, m, n)
        pd = run(spec, 14, overrides=overrides_for(spec, xi_name, m, n))["poincare"]
        assert pd.coefficients[0] == 1
        assert all(c >= 0 for c in pd.coefficients)
        assert len(pd.coefficients) == pd.valid_through + 1


def test_trivial_quotient_runs_to_kernel_cohomology():
    q = AbelianPGroupSpec(3, ())
    spec = ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=CohoClass.zero(q))
    result = run(spec, 12)
    # H*(C_3): one dimension in every degree
    assert result["poincare"].coefficients == [1] * 6


# ---- page tables against a recorded fixture ------------------------------

# E_2..E_5 dims tables at N=16 of every spec in configs/, recorded from an
# earlier engine; pages 2-5 are fixed by the d2/d3/d4 formulas alone
PAGE_TABLES = json.loads((ROOT / "tests" / "data" / "pages_e2_e5_n16.json").read_text())


def test_page_fixture_covers_every_config():
    assert sorted(PAGE_TABLES) == CONFIG_SPECS


def _through(table: dict, top: int) -> dict:
    """The entries "i,j" of a fixture table with i + j <= top."""
    return {k: v for k, v in table.items() if sum(map(int, k.split(","))) <= top}


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", CONFIG_SPECS)
def test_pages_two_to_five_match_the_fixture(name, seed):
    # seed None is a plain run; a seed randomizes the d4 choices, as
    # `sseq --randomize --seed` does, and must not change any page.  The
    # fixture's cells of total degree 16 are truncation artefacts (they
    # never got their outgoing d_r), so the pages are compared through 15
    rng = None if seed is None else np.random.RandomState(seed)
    pages = run(config_spec(name), 16, r_max=5, rng=rng)["pages"]
    for r in range(2, 6):
        got = {f"{i},{j}": d for (i, j), d in pages[r].dims_table().items()}
        assert got == _through(PAGE_TABLES[name][str(r)], 15), (name, r)


# ---- engine invariants ---------------------------------------------------


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", CONFIG_SPECS)
def test_page_totals_never_increase_and_e2_rows_are_the_ring(name, seed):
    # E_2^{i,j} = H^i(G) (x) H^j(C_3), one copy of H^i(G) in every row j; each
    # page is a subquotient of the one before, so no total degree grows
    spec = config_spec(name)
    overrides_file = ROOT / "configs" / f"{name}_overrides.cfg"
    ovs = parse_overrides(overrides_file.read_text(), spec) if overrides_file.exists() else []
    rng = None if seed is None else np.random.RandomState(seed)
    N = 16
    pages = run(spec, N, overrides=ovs, rng=rng)["pages"]
    ring = RingContext(spec.quotient)
    assert {(i, j): pages[2].dim(i, j) for i in range(N + 1) for j in range(N + 1 - i)} == {
        (i, j): ring.dim(i) for i in range(N + 1) for j in range(N + 1 - i)}
    for r in range(2, max(pages)):
        before, after = pages[r].total_dims(N), pages[r + 1].total_dims(N)
        assert all(b >= a for b, a in zip(before, after)), (r, before, after)


# ---- the subspaces behind the pages --------------------------------------

# RREF(B_r) and RREF(Z_r) of every cell of pages 2..7 at N=12, in E_2
# coordinates, as the first 16 hex digits of the sha256 of the JSON
# [shape, rows]; recorded from an earlier engine that stored each page as
# subspaces Z_r >= B_r of E_2, with the same digests for rng None and seed 0
SUBSPACES = json.loads((ROOT / "tests" / "data" / "page_subspaces_n12.json").read_text())
PIN_SPECS = {
    **{name: ROOT / "configs" / f"{name}.cfg" for name in CONFIG_SPECS},
    "rank3_order81": ROOT / "perfbench" / "specs" / "rank3_order81.cfg",
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(json.dumps([list(a.shape), a.tolist()]).encode()).hexdigest()[:16]


def test_subspace_fixture_covers_every_pinned_spec():
    assert sorted(SUBSPACES) == sorted(PIN_SPECS)


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("name", sorted(PIN_SPECS))
def test_page_subspaces_match_the_fixture(name, seed):
    # pages pin the subspaces, not just their dimensions: a cell's step
    # adds its boundary basis (page coordinates) times the previous
    # representatives to B, and Z = B + span(representatives).  Compared
    # through total degree 11, the last one whose cells get their d_r
    path = PIN_SPECS[name]
    spec = parse_extension_spec(path.read_text())
    overrides_file = path.with_name(f"{name}_overrides.cfg")
    ovs = parse_overrides(overrides_file.read_text(), spec) if overrides_file.exists() else []
    rng = None if seed is None else np.random.RandomState(seed)
    pages = run(spec, 12, overrides=ovs, rng=rng)["pages"]
    p = spec.p
    bidegrees = [(i, j) for i in range(12) for j in range(12 - i) if pages[2].cell(i, j)]
    bnd = {(i, j): np.zeros((0, pages[2].cell(i, j).reps.shape[1]), dtype=np.int64)
           for i, j in bidegrees}
    for r in range(2, 8):
        got = {}
        for i, j in bidegrees:
            cell = pages[r].cell(i, j)
            before = pages[r - 1].cell(i, j) if r > 2 else cell
            if len(cell.steps) > len(before.steps):
                new = mul_mod(cell.steps[-1].boundary_basis, before.reps, p)
                bnd[(i, j)] = rref(np.concatenate([bnd[(i, j)], new]), p)[0]
            z = rref(np.concatenate([bnd[(i, j)], cell.reps]), p)[0]
            got[f"{i},{j}"] = f"{_digest(bnd[(i, j)])} {_digest(z)}"
        assert got == _through(SUBSPACES[name][str(r)], 11), (name, r)


# ---- the row block -------------------------------------------------------


def _config_with_overrides(name: str):
    spec = config_spec(name)
    overrides_file = ROOT / "configs" / f"{name}_overrides.cfg"
    return spec, parse_overrides(overrides_file.read_text(), spec) if overrides_file.exists() else []


@pytest.mark.parametrize("text, deg", [
    ((ROOT / "configs" / "extraspecial_27.cfg").read_text(), 13),
    # the quaternion group of order 8
    ('{p: 2, kernel_m: 1, quotient: [1, 1], xi: "x1 + y1*y2 + x2"}', 12),
], ids=["extraspecial_27", "quaternion_8"])
def test_oracle_pages_are_row_periodic_through_page_2p_plus_1(text, deg):
    # the lemma the engine's row block rests on, checked on the formula-free
    # side: t^p lives to E_{2p+1}, so through that page the cells at (i, j)
    # and (i, j + 2p) agree
    spec = parse_extension_spec(text)
    period = 2 * spec.p
    tables = double_complex_ss(spec, deg, r_max=period + 1).tables
    pairs = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i - period)]
    for r in range(2, period + 2):
        assert any(tables[r].get(ij, 0) for ij in pairs), r
        for i, j in pairs:
            assert tables[r].get((i, j), 0) == tables[r].get((i, j + period), 0), (r, i, j)


def test_overrides_act_on_every_t_cubed_multiple():
    # the case f sources sit at (3, 4) and (2, 5); given on the block, they
    # also act on t^{3k} times themselves, the first of which (degree 13)
    # the pages missed when overrides acted in their own row only
    spec = make_spec("y1*y2", 1, 1)
    result = run(spec, 40, overrides=parse_overrides(CASE_F_OVERRIDES, spec))
    assert result["poincare"].coefficients == expand_rational(*SERIES["f"], 33)
    assert all(len(page.cells) <= 2 * 3 * 41 for page in result["pages"].values())


# dim H^n(E; F_3) for n = 0..15, E the order-81 group of
# perfbench/specs/rank3_order81.cfg, from its minimal resolution (the
# benchmark's reference, proved there by rank d_n + rank d_{n+1} = |E| b_n)
RANK3_ORDER81_DIMS = [1, 3, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16, 17, 19, 21, 22]


def test_rank3_overrides_give_the_group_cohomology():
    spec = parse_extension_spec((ROOT / "perfbench" / "specs" / "rank3_order81.cfg").read_text())
    ovs = parse_overrides((ROOT / "configs" / "rank3_order81_overrides.cfg").read_text(), spec)
    assert run(spec, 22, overrides=ovs)["poincare"].coefficients == RANK3_ORDER81_DIMS


def test_override_on_a_page_past_2p_is_rejected():
    # t^3 need not survive d_7, so a d_7 cannot be extended over its powers
    with pytest.raises(EngineError, match=r"d_7 override at p = 3: past page 2p = 6"):
        _run_with_override("d7 | t^3*y1 | x1^3*x2 | past 2p")


def test_override_on_page_r_max_or_later_is_rejected():
    # pages turn through d_{r_max - 1}: a d5 with r_max = 5 would be listed
    # as applied and never act
    spec = make_spec("y1*y2", 1, 1)
    for r_max in (4, 5):
        with pytest.raises(EngineError, match=rf"d_5 override with r_max = {r_max}: .* never act"):
            run(spec, 14, overrides=parse_overrides(CASE_F_OVERRIDES, spec), r_max=r_max)


def test_every_override_at_p_2_is_rejected():
    # at p = 2 the first override page, 5, is already past 2p = 4
    spec = parse_extension_spec('{p: 2, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}')
    with pytest.raises(EngineError, match=r"d_5 override at p = 2: past page 2p = 4"):
        run(spec, 14, overrides=parse_overrides("d5 | u^5 | u*x1^2*y1 | p = 2", spec))


def test_override_source_above_the_block_is_rejected():
    # the case f d5 times t^3: its source (3, 10) is in range but above
    # row 2p - 1 = 5, where the line it was multiplied from already acts
    with pytest.raises(EngineError, match=r"row 10 >= 2p = 6: give the override divided by t\^3"):
        _run_with_override("d5 | t^5*x1*y2 - t^5*x2*y1 | t^3*x1^3*x2 - t^3*x2^3*x1 | times t^3")


def test_overrides_with_a_larger_kernel_are_rejected():
    spec = parse_extension_spec(
        '{p: 3, kernel_m: 2, quotient: [1, 1], xi: "y1*y2", xi_prime: "x1*y2 - x2*y1"}')
    with pytest.raises(EngineError, match="overrides need kernel_m = 1, got 2"):
        run(spec, 14, overrides=parse_overrides(CASE_F_OVERRIDES, spec))


def test_turn_page_builds_one_subquotient_per_changed_block_cell(monkeypatch):
    from lhsseq import engine

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return subquotient_of(*args, **kwargs)

    monkeypatch.setattr(engine, "subquotient_of", counting)
    spec, ovs = _config_with_overrides("extraspecial_27")
    ctx = EngineContext(spec, 24)
    page = _init_page(ctx)
    while page.r < 7:
        r = page.r
        diffs = differential_matrix(ctx, page, ovs)
        assert all(m.any() for m in diffs.values())  # a zero matrix is a missing key
        # E_3 repeats its rows 0 and 1, so turning E_2 works on those alone
        turned = [(i, j) for i, j in page.cells if r > 2 or j < 2]
        changed = {(i, j) for i, j in turned if (i, j) in diffs or (i - r, j + r - 1) in diffs}
        calls.clear()
        new = engine.turn_page(ctx, page, diffs)
        assert len(calls) == len(changed), r
        assert all(new.cells[ij] is page.cells[ij] for ij in turned if ij not in changed)
        assert r > 2 or all(new.cells[(i, j)] is new.cells[(i, j % 2)] for i, j in new.cells)
        page = new


@pytest.mark.parametrize("seed", [0, 3])
def test_randomized_runs_draw_once_per_block_bidegree(seed, monkeypatch):
    # every block bidegree with a target evaluates its own d_3 and d_4
    # (d_2 on E_2 is multiplication by xi), so with an rng d_4 draws its
    # choices once per block bidegree; the pages are those of the plain run
    from lhsseq import engine

    calls = []
    formula_value = engine._formula_value

    def counting(ctx, r, i, j, reps):
        calls.append((r, i, j))
        return formula_value(ctx, r, i, j, reps)

    monkeypatch.setattr(engine, "_formula_value", counting)
    spec, ovs = _config_with_overrides("extraspecial_27")
    pages = run(spec, 16, overrides=ovs, rng=np.random.RandomState(seed))["pages"]
    want = [(r, i, j) for r in (3, 4) for (i, j), cell in pages[r].cells.items()
            if cell.dim and (i + r, j - r + 1) in pages[r].cells]
    assert sorted(calls) == sorted(want)
    assert all(j < 2 * spec.p for _, _, j in calls)
    plain = run(spec, 16, overrides=ovs)["pages"]
    assert all(pages[r].dims_table() == plain[r].dims_table() for r in plain)


def test_shared_arrays_are_read_only():
    # a column's E_2 cell serves all its block rows, and a cell that d_r
    # leaves alone passes to the next page as the same object
    spec, _ = _config_with_overrides("extraspecial_27")
    pages = run(spec, 20, r_max=5)["pages"]
    cell = next(c for ij, c in pages[5].cells.items() if c.steps and c is pages[4].cells[ij])
    with pytest.raises(ValueError):
        cell.reps[0, 0] = 1
    for a in (cell.steps[-1].boundary_basis, cell.steps[-1].quotient_reps):
        with pytest.raises(ValueError):
            a[...] = 0
    ctx = EngineContext(spec, 20)
    e2 = _init_page(ctx)
    assert e2.cells[(1, 0)] is e2.cells[(1, 5)]
    with pytest.raises(ValueError):
        e2.cells[(1, 0)].reps[0, 0] = 0
    diffs = differential_matrix(ctx, e2)
    with pytest.raises(ValueError):
        next(iter(diffs.values()))[...] = 0
