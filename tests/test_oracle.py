import numpy as np
import pytest

from lhsseq import oracle as oracle_module
from lhsseq.cohomology import CohoClass, cup
from lhsseq.engine import expand_rational, poly_mul, run
from lhsseq.extensions import ExtensionSpec, build_extension_group
from lhsseq.fplinalg import BudgetExceeded
from lhsseq.groups import AbelianPGroupSpec, FiniteGroupTable, GroupError, cyclic_group
from lhsseq.oracle import (
    cohomology_dims,
    double_complex_ss,
    euler_telescope,
    minimal_resolution,
)
from lhsseq.parsing import parse_extension_spec

C3C3 = AbelianPGroupSpec(3, (1, 1))


def ext_spec(xi_text_cls):
    return ExtensionSpec(p=3, kernel_m=1, quotient=C3C3, xi=xi_text_cls)


def y1y2():
    return cup(CohoClass.y(C3C3, 0), CohoClass.y(C3C3, 1))


def test_cyclic_minimal_resolution_is_periodic():
    data = minimal_resolution(cyclic_group(3), 5)
    assert data.ranks == [1] * 6
    assert data.is_minimal()
    # d alternates g-1 and the norm (up to the choice of representative)
    e1 = data.entry(1, 0, 0)
    assert sorted(np.nonzero(e1)[0].tolist()) != [] and e1.sum() % 3 == 0
    e2 = data.entry(2, 0, 0)
    assert (e2 == e2[0]).all() and e2[0] != 0  # a multiple of the norm


def test_minimal_resolution_kunneth_rank_two():
    g = C3C3.group_table()
    data = minimal_resolution(g, 5)
    assert data.ranks == [1, 2, 3, 4, 5, 6]


def test_trivial_group_dims():
    triv = FiniteGroupTable(np.zeros((1, 1), dtype=int))
    assert cohomology_dims(triv, 4, p=3) == [1, 0, 0, 0, 0]


def test_c9_x_c3_dims_linear():
    g = AbelianPGroupSpec(3, (2, 1)).group_table()
    assert cohomology_dims(g, 6) == [n + 1 for n in range(7)]


def test_non_p_group_rejected():
    with pytest.raises(GroupError):
        minimal_resolution(cyclic_group(6), 3, p=3)


def test_prime_inferred_from_the_order():
    # 17 is past any short list of candidate primes
    assert cohomology_dims(cyclic_group(17), 2) == [1, 1, 1]


def test_ranks_invariant_under_relabelling():
    spec = ext_spec(y1y2())
    e = build_extension_group(spec)
    base = cohomology_dims(e, 5)
    rng = np.random.RandomState(7)
    perm = rng.permutation(e.order)
    inv = np.argsort(perm)
    shuffled = FiniteGroupTable(perm[e.mul[inv][:, inv]])
    assert cohomology_dims(shuffled, 5) == base


def test_extraspecial_dims_match_series():
    spec = ext_spec(y1y2())
    e = build_extension_group(spec)
    want = expand_rational([1, 1, 2, 2, 1, 1], poly_mul([1, 0, 0, 0, 0, 0, -1], [1, -1]), 6)
    assert cohomology_dims(e, 6) == want == [1, 2, 4, 6, 7, 8, 9]


def test_metacyclic_dims_regression():
    # frozen after the first oracle computation; equals the series
    # (1+s)/((1-s)(1-s^6)) degreewise
    spec = ext_spec(CohoClass.x(C3C3, 0) + y1y2())
    e = build_extension_group(spec)
    assert cohomology_dims(e, 8) == [1, 2, 2, 2, 2, 2, 3, 4, 4]


# -- the double complex page oracle ---------------------------------------


def test_split_case_collapses():
    spec = ext_spec(CohoClass.zero(C3C3))
    oracle = double_complex_ss(spec, 5, r_max=4)
    for r in (2, 3, 4):
        for (i, j), d in oracle.tables[r].items():
            assert d == i + 1
    assert oracle.tables[2] == oracle.tables[4]


def test_oracle_e2_rows_match_engine_init():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=2)
    for (i, j), d in oracle.tables[2].items():
        assert d == i + 1


def test_oracle_matches_engine_small_degree():
    from lhsseq.parsing import parse_overrides

    spec = ext_spec(y1y2())
    ov = parse_overrides(
        "d5 | t^2*x1*y2 - t^2*x2*y1 | x1^3*x2 - x2^3*x1 | Kudo\n"
        "d5 | t^2*u*y1*y2 | u*x1^3*y2 - u*x2^3*y1 | Bockstein",
        spec,
    )
    deg = 5
    oracle = double_complex_ss(spec, deg, r_max=7)
    engine = run(spec, 13, overrides=ov)
    for r in range(2, 8):
        etab = {
            k: v for k, v in engine["pages"][r].dims_table().items() if sum(k) <= deg
        }
        otab = {k: v for k, v in oracle.tables[r].items() if sum(k) <= deg}
        assert etab == otab, r


def test_euler_telescope_nonnegative():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=7)
    for kills in euler_telescope(oracle, 4):
        assert all(k >= 0 for k in kills)


def test_einf_totals_equal_group_cohomology_small():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=7)
    e = build_extension_group(spec)
    assert oracle.total_dims(7, 5) == cohomology_dims(e, 5) == oracle.cohomology_dims
    assert oracle.group_order == e.order


def test_minimal_resolution_budget():
    g = C3C3.group_table()
    # degree 1: two generators translate the 8-dim kernel of the
    # augmentation (2 x 8 x 9 = 144 entries), then d_1 is 9 x 18 = 162
    with pytest.raises(BudgetExceeded, match="kernel of d_0 needs 144 entries"):
        minimal_resolution(g, 2, budget=143)
    with pytest.raises(BudgetExceeded, match="d_1 of the minimal resolution needs 162"):
        minimal_resolution(g, 2, budget=161)
    assert minimal_resolution(g, 1, budget=162).ranks == [1, 2]


def test_double_complex_budget_before_any_rank_profile(monkeypatch):
    # the order-81 extension of C3^3: D_6 (103M entries) fits the default
    # budget, D_7 does not, and it is refused before any rank profile
    def no_profile(*args):
        raise AssertionError("rank profile taken before the budget check")

    monkeypatch.setattr(oracle_module, "rank_profile", no_profile)
    spec = parse_extension_spec('{p: 3, kernel_m: 1, quotient: [1, 1, 1], xi: "y1*y2 + x3"}')
    with pytest.raises(BudgetExceeded, match="D_7 needs 241,724,736 entries"):
        double_complex_ss(spec, 7)
