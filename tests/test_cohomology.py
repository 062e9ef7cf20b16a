import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhsseq.cohomology import (
    CohoClass,
    MasseyUndefinedError,
    RingContext,
    bockstein,
    cup,
    massey_triple,
    monomial_basis,
    triple_h,
)
from lhsseq.groups import AbelianPGroupSpec, GroupError
from lhsseq.parsing import parse_class

C3C3 = AbelianPGroupSpec(3, (1, 1))
C9C3 = AbelianPGroupSpec(3, (2, 1))


def y(g, i):
    return CohoClass.y(g, i)


def x(g, i):
    return CohoClass.x(g, i)


# -- ring structure ----------------------------------------------------


def test_exterior_square_vanishes_odd_p():
    assert cup(y(C3C3, 0), y(C3C3, 0)).is_zero()


def test_y_square_is_x_mod_two():
    g = AbelianPGroupSpec(2, (1,))
    assert cup(y(g, 0), y(g, 0)) == x(g, 0)


def test_anticommutativity_of_degree_one():
    a, b = y(C3C3, 0), y(C3C3, 1)
    assert cup(a, b) == cup(b, a).scale(-1)


def test_theorem_fixture_product():
    # (x1 y2 - x2 y1) * y1 = -(y1 y2) x1
    g = C3C3
    lhs = cup(cup(x(g, 0), y(g, 1)) - cup(x(g, 1), y(g, 0)), y(g, 0))
    rhs = cup(cup(y(g, 0), y(g, 1)), x(g, 0)).scale(-1)
    assert lhs == rhs


def test_cup_graded_commutative_exhaustive():
    for g in (C3C3, C9C3):
        for d1, d2 in itertools.product(range(1, 5), repeat=2):
            for m1 in monomial_basis(g, d1):
                for m2 in monomial_basis(g, d2):
                    a = CohoClass(g, {m1: 1})
                    b = CohoClass(g, {m2: 1})
                    sign = -1 if (d1 * d2) % 2 else 1
                    assert cup(a, b) == cup(b, a).scale(sign)


def test_cup_associative_random():
    rng = np.random.RandomState(0)
    g = C3C3
    for _ in range(30):
        degs = rng.randint(1, 4, size=3)
        classes = []
        for d in degs:
            basis = monomial_basis(g, int(d))
            terms = {m: int(rng.randint(0, 3)) for m in basis}
            classes.append(CohoClass(g, terms, int(d)))
        a, b, c = classes
        assert cup(cup(a, b), c) == cup(a, cup(b, c))


# -- Bockstein ---------------------------------------------------------


def test_bockstein_exponent_rules():
    assert bockstein(y(C3C3, 0)) == x(C3C3, 0)
    assert bockstein(y(C9C3, 0)).is_zero()  # exponent 2 factor
    assert bockstein(y(C9C3, 1)) == x(C9C3, 1)
    assert bockstein(x(C3C3, 0)).is_zero()


def test_bockstein_derivation_on_y1y2():
    # beta(y1 y2) = x1 y2 - y1 x2 over C_3 + C_3
    g = C3C3
    got = bockstein(cup(y(g, 0), y(g, 1)))
    want = cup(x(g, 0), y(g, 1)) - cup(y(g, 0), x(g, 1))
    assert got == want


def test_bockstein_squares_to_zero_and_derivation_random():
    rng = np.random.RandomState(1)
    for g in (C3C3, C9C3):
        for _ in range(20):
            d1, d2 = rng.randint(1, 4, size=2)
            a = CohoClass(
                g, {m: int(rng.randint(0, 3)) for m in monomial_basis(g, int(d1))}, int(d1)
            )
            b = CohoClass(
                g, {m: int(rng.randint(0, 3)) for m in monomial_basis(g, int(d2))}, int(d2)
            )
            assert bockstein(bockstein(a)).is_zero()
            lhs = bockstein(cup(a, b))
            sign = -1 if d1 % 2 else 1
            rhs = cup(bockstein(a), b) + cup(a, bockstein(b)).scale(sign)
            assert lhs == rhs


# -- dimensions --------------------------------------------------------


def test_dims_cyclic_c9():
    ring = RingContext(AbelianPGroupSpec(3, (2,)))
    assert [ring.dim(n) for n in range(7)] == [1] * 7


def test_dims_rank_two():
    ring = RingContext(C3C3)
    assert [ring.dim(n) for n in range(9)] == [n + 1 for n in range(9)]


def test_dims_trivial_group():
    ring = RingContext(AbelianPGroupSpec(3, ()))
    assert [ring.dim(n) for n in range(5)] == [1, 0, 0, 0, 0]


# -- Massey products ---------------------------------------------------


def make_cyclic(order: int):
    p = 2 if order % 2 == 0 else (3 if order % 3 == 0 else 5)
    m = 0
    o = order
    while o > 1:
        o //= p
        m += 1
    g = AbelianPGroupSpec(p, (m,))
    return g, CohoClass.y(g, 0), CohoClass.x(g, 0)


def t_power(g, t, k):
    out = CohoClass.one(g)
    for _ in range(k):
        out = cup(out, t)
    return out


def test_cyclic_triple_product_order_three():
    g, u, t = make_cyclic(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        a = cup(t_power(g, t, i), u)
        b = cup(t_power(g, t, j), u)
        c = cup(t_power(g, t, k), u)
        res = massey_triple(a, b, c)
        assert res.representative == t_power(g, t, i + j + k + 1)
        assert res.indeterminacy_basis == []


@pytest.mark.parametrize("order", [5, 9, 27])
def test_cyclic_triple_product_vanishes(order):
    g, u, t = make_cyclic(order)
    for i, j, k in itertools.product(range(2), repeat=3):
        a = cup(t_power(g, t, i), u)
        b = cup(t_power(g, t, j), u)
        c = cup(t_power(g, t, k), u)
        res = massey_triple(a, b, c)
        assert res.representative.is_zero()


def test_undefined_massey_raises():
    g, u, t = make_cyclic(3)
    with pytest.raises(MasseyUndefinedError):
        massey_triple(t, t, t)  # t*t != 0


def test_rank_two_fixture():
    # <x1 y2 - y1 x2, x1 y2 - y1 x2, y1 y2> = x1 x2^2 y2 - x1^2 x2 y1 on C_3+C_3
    g = C3C3
    a = cup(x(g, 0), y(g, 1)) - cup(y(g, 0), x(g, 1))
    b = cup(y(g, 0), y(g, 1))
    assert cup(a, a).is_zero()
    assert cup(a, b).is_zero()
    res = massey_triple(a, a, b)
    want = cup(cup(cup(x(g, 0), x(g, 1)), x(g, 1)), y(g, 1)) - cup(
        cup(cup(x(g, 0), x(g, 0)), x(g, 1)), y(g, 0)
    )
    assert res.representative == want


def test_row_killer_product_vanishes_when_first_factor_exponent_two():
    # <x2 y1, y1, y1 y2> = <y1, y1, y1> x2 y2 = 0 over C_9 + C_3
    g = C9C3
    a = cup(x(g, 1), y(g, 0))
    b = y(g, 0)
    c = cup(y(g, 0), y(g, 1))
    res = massey_triple(a, b, c)
    assert res.representative.is_zero()


def test_same_product_nonzero_over_c3c3():
    # over C_3 + C_3 the analogous product is x1 x2 y2 up to indeterminacy
    g = C3C3
    a = cup(x(g, 1), y(g, 0))
    b = y(g, 0)
    c = cup(y(g, 0), y(g, 1))
    res = massey_triple(a, b, c)
    want = cup(cup(x(g, 0), x(g, 1)), y(g, 1))
    assert res.representative == want
    assert not res.contains_zero()


def test_h_is_trilinear():
    rng = np.random.RandomState(2)
    g = C3C3
    for _ in range(10):
        basis1 = monomial_basis(g, 1)
        a1 = CohoClass(g, {m: int(rng.randint(0, 3)) for m in basis1}, 1)
        a2 = CohoClass(g, {m: int(rng.randint(0, 3)) for m in basis1}, 1)
        b = CohoClass(g, {m: int(rng.randint(0, 3)) for m in basis1}, 1)
        c = CohoClass(g, {m: int(rng.randint(0, 3)) for m in basis1}, 1)
        lhs = triple_h(a1 + a2, b, c)
        rhs = triple_h(a1, b, c) + triple_h(a2, b, c)
        assert lhs == rhs


# -- RingContext -------------------------------------------------------


def test_ring_context_round_trip():
    ctx = RingContext(C3C3)
    for d in range(5):
        for mon in monomial_basis(C3C3, d):
            v = ctx.to_vector(CohoClass(C3C3, {mon: 2}))
            expected = np.zeros(len(ctx.basis(d)), dtype=np.int64)
            expected[ctx.basis(d).index(mon)] = 2
            assert (v == expected).all()


def test_multiplication_matrix_agrees_with_cup():
    ctx = RingContext(C3C3)
    g = C3C3
    xi = cup(y(g, 0), y(g, 1))
    m = ctx.multiplication_matrix(xi, 2)
    for j, mon in enumerate(monomial_basis(g, 2)):
        prod = cup(xi, CohoClass(g, {mon: 1}))
        assert (m[:, j] == ctx.to_vector(prod, 4)).all()


@st.composite
def classes(draw):
    """A homogeneous class over a random abelian p-group, p = 2 included
    (where y_i^2 = x_i on factors of order two)."""
    p = draw(st.sampled_from([2, 3, 5]))
    group = AbelianPGroupSpec(p, tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))))
    basis = monomial_basis(group, draw(st.integers(0, 6)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis)))
    return CohoClass(group, dict(zip(basis, coeffs)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(classes())
def test_parse_class_round_trips(c):
    assert parse_class(str(c), c.group) == c


def test_monomial_codes_refuse_to_overflow_int64():
    """Codes of H^n at rank r run below 2^r (n//2 + 1)^r, which must stay
    below 2^63: at rank 12 that holds through degree 37 (2^12 19^12 <
    2^63 < 2^12 20^12), not at degree 38."""
    ring = RingContext(AbelianPGroupSpec(3, (1,) * 12))
    empty = np.zeros((0, 12), dtype=np.int64)
    assert ring._codes(empty, empty, 37).shape == (0,)
    with pytest.raises(GroupError, match="overflow int64"):
        ring._codes(empty, empty, 38)
