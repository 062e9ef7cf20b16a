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
    apply_overrides,
    differential_matrix,
    expand_rational,
    poly_mul,
    run,
)
from lhsseq.extensions import ExtensionSpec
from lhsseq.fplinalg import mul_mod, rref, subquotient_of
from lhsseq.groups import AbelianPGroupSpec
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
    assert len(page.cells) == sum(13 - i for i in range(13) if ctx.ring.dim(i))
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
    diffs = differential_matrix(ctx, page, 2)
    # at (1, 1): u*chi -> xi*chi for chi in H^1; E_2 representatives are
    # the unit vectors, so page column k is the image of basis class k
    mat = diffs[(1, 1)]
    xi = spec.xi
    for col, mon in enumerate(ctx.ring.basis(1)):
        chi = CohoClass(spec.quotient, {mon: 1})
        assert (mat[:, col] == ctx.ring.to_vector(cup(xi, chi), 3) % 3).all()
    # even rows die under d2
    assert not diffs[(1, 2)].any()


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
    # products of t^2 (x1 y2 - x2 y1) with H^1 makes apply_overrides refuse
    spec = make_spec("y1*y2", 1, 1)
    ctx = EngineContext(spec, 14)
    page = run(spec, 14, r_max=5)["pages"][5]
    d = ctx.ring.dim(4)
    e0 = np.eye(d, dtype=np.int64)[:1]
    page.cells[(4, 4)] = Cell(e0, (subquotient_of(e0, [], d, 3, [0]),))
    ovs = parse_overrides(CASE_F_OVERRIDES, spec)[:1]
    with pytest.raises(EngineError, match=r"source product at \(4, 4\) is not a page-5 cycle"):
        apply_overrides(ctx, page, ovs)


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
    assert el.single_bidegree() == (2, 5)
    el2 = parse_e2("t^2*x1*y2 - t^2*x2*y1", spec)
    assert el2.single_bidegree() == (3, 4)


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


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", CONFIG_SPECS)
def test_pages_two_to_five_match_the_fixture(name, seed):
    # seed None is a plain run; a seed randomizes the d4 choices, as
    # `sseq --randomize --seed` does, and must not change any page
    rng = None if seed is None else np.random.RandomState(seed)
    pages = run(config_spec(name), 16, r_max=5, rng=rng)["pages"]
    for r in range(2, 6):
        got = {f"{i},{j}": d for (i, j), d in pages[r].dims_table().items()}
        assert got == PAGE_TABLES[name][str(r)], (name, r)


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
    # representatives to B, and Z = B + span(representatives)
    path = PIN_SPECS[name]
    spec = parse_extension_spec(path.read_text())
    overrides_file = path.with_name(f"{name}_overrides.cfg")
    ovs = parse_overrides(overrides_file.read_text(), spec) if overrides_file.exists() else []
    rng = None if seed is None else np.random.RandomState(seed)
    pages = run(spec, 12, overrides=ovs, rng=rng)["pages"]
    p = spec.p
    bnd = {ij: np.zeros((0, cell.reps.shape[1]), dtype=np.int64)
           for ij, cell in pages[2].cells.items()}
    for r in range(2, 8):
        got = {}
        for (i, j), cell in pages[r].cells.items():
            before = pages[r - 1].cells[(i, j)] if r > 2 else cell
            if len(cell.steps) > len(before.steps):
                new = mul_mod(cell.steps[-1].boundary_basis, before.reps, p)
                bnd[(i, j)] = rref(np.concatenate([bnd[(i, j)], new]), p)[0]
            z = rref(np.concatenate([bnd[(i, j)], cell.reps]), p)[0]
            got[f"{i},{j}"] = f"{_digest(bnd[(i, j)])} {_digest(z)}"
        assert got == SUBSPACES[name][str(r)], (name, r)


# ---- rows that share their cells and page matrices -------------------------


def _config_with_overrides(name: str):
    spec = config_spec(name)
    overrides_file = ROOT / "configs" / f"{name}_overrides.cfg"
    return spec, parse_overrides(overrides_file.read_text(), spec) if overrides_file.exists() else []


def test_interior_rows_share_their_last_page_cells():
    # d_2, d_3 and d_4 read row j only through j mod 2p, and the override
    # sources sit below row 2p, so away from the truncation edge the cells
    # of rows j and j + 2p go through equal steps on every page
    spec, ovs = _config_with_overrides("extraspecial_27")
    page = run(spec, 40, overrides=ovs)["pages"][7]
    period = 2 * spec.p
    pairs = [(i, j) for (i, j) in page.cells
             if period <= j and i + j + period <= page.valid_through]
    assert len(pairs) > 100
    for i, j in pairs:
        assert page.cells[(i, j)] is page.cells[(i, j + period)], (i, j)


def _content(d):
    return None if d is None or not d.any() else (d.shape, d.tobytes())


def test_turn_page_builds_one_subquotient_per_distinct_triple(monkeypatch):
    from lhsseq import engine

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return subquotient_of(*args, **kwargs)

    monkeypatch.setattr(engine, "subquotient_of", counting)
    spec, ovs = _config_with_overrides("extraspecial_27")
    ctx = EngineContext(spec, 24)
    page = _init_page(ctx)
    shared = 0
    while page.r < 7:
        r = page.r
        diffs = differential_matrix(ctx, page, r) if r < 5 else apply_overrides(ctx, page, ovs)
        triples = [
            (id(cell), _content(diffs.get((i, j))), _content(diffs.get((i - r, j + r - 1))))
            for (i, j), cell in page.cells.items()
        ]
        changed = [t for t in triples if t[1:] != (None, None)]
        calls.clear()
        page = engine.turn_page(ctx, page, diffs)
        assert len(calls) == len(set(changed)), r
        shared += len(changed) - len(set(changed))
    assert shared > 100


@pytest.mark.parametrize("seed,next_draw", [(0, 244911223), (3, 24504130)])
def test_randomized_runs_draw_once_per_bidegree(seed, next_draw, monkeypatch):
    # with an rng, d_r is not shared between rows: every bidegree with a
    # target draws its own d_4 choices, so the stream (and with it every
    # randomized report) is the one an engine without sharing consumed;
    # next_draw was recorded from such an engine
    from lhsseq import engine

    calls = []
    formula_value = engine._formula_value

    def counting(ctx, r, i, j, reps):
        calls.append((r, i, j))
        return formula_value(ctx, r, i, j, reps)

    monkeypatch.setattr(engine, "_formula_value", counting)
    spec, ovs = _config_with_overrides("extraspecial_27")
    rng = np.random.RandomState(seed)
    pages = run(spec, 16, overrides=ovs, rng=rng)["pages"]
    want = [(r, i, j) for r in (2, 3, 4) for (i, j), cell in pages[r].cells.items()
            if cell.dim and (i + r, j - r + 1) in pages[r].cells]
    assert sorted(calls) == sorted(want)
    assert rng.randint(0, 1 << 30) == next_draw


def test_shared_arrays_are_read_only():
    spec, ovs = _config_with_overrides("extraspecial_27")
    page = run(spec, 20, overrides=ovs, r_max=5)["pages"][5]
    cells = list(page.cells.values())
    cell = max((c for c in cells if c.steps), key=lambda c: sum(c is d for d in cells))
    assert sum(cell is d for d in cells) > 1 and cell.steps
    with pytest.raises(ValueError):
        cell.reps[0, 0] = 1
    for a in (cell.steps[-1].boundary_basis, cell.steps[-1].quotient_reps):
        with pytest.raises(ValueError):
            a[...] = 0
    ctx = EngineContext(spec, 20)
    diffs = differential_matrix(ctx, _init_page(ctx), 2)
    with pytest.raises(ValueError):
        diffs[(1, 1)][...] = 0
