"""Property tests of the ring H*(G; F_p), G a sum of cyclic p-groups:
`cup` is graded-commutative and associative, `bockstein` is a graded
derivation with beta^2 = 0, and the multiplication and contraction
matrices of `RingContext`, built by index arithmetic on the monomial
basis, agree with `cup` and `contract`.

Groups are drawn with p in {2, 3, 5}, rank 1-3 and exponents 1-2; classes
are random combinations of the monomial basis in degrees 0-4.  Examples
are derandomized: every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lhsseq.cohomology import (
    CohoClass,
    RingContext,
    bockstein,
    contract,
    cup,
    monomial_basis,
)
from lhsseq.groups import AbelianPGroupSpec

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
GROUPS = st.builds(
    AbelianPGroupSpec,
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple),
)


def draw_class(data, group: AbelianPGroupSpec) -> CohoClass:
    degree = data.draw(st.integers(0, 4))
    basis = monomial_basis(group, degree)
    coeffs = data.draw(st.lists(st.integers(0, group.p - 1),
                                min_size=len(basis), max_size=len(basis)))
    return CohoClass(group, dict(zip(basis, coeffs)), degree)


def sign(*degrees: int) -> int:
    """(-1)^(product of the degrees)."""
    prod = 1
    for d in degrees:
        prod *= d
    return -1 if prod % 2 else 1


@SETTINGS
@given(st.data())
def test_cup_is_graded_commutative(data):
    g = data.draw(GROUPS)
    a, b = draw_class(data, g), draw_class(data, g)
    assert cup(a, b) == cup(b, a).scale(sign(a.degree, b.degree))


@SETTINGS
@given(st.data())
def test_cup_is_associative(data):
    g = data.draw(GROUPS)
    a, b, c = (draw_class(data, g) for _ in range(3))
    assert cup(cup(a, b), c) == cup(a, cup(b, c))


@SETTINGS
@given(st.data())
def test_bockstein_is_a_graded_derivation_squaring_to_zero(data):
    g = data.draw(GROUPS)
    a, b = draw_class(data, g), draw_class(data, g)
    assert bockstein(bockstein(a)).is_zero()
    want = cup(bockstein(a), b) + cup(a, bockstein(b)).scale(sign(a.degree))
    assert bockstein(cup(a, b)) == want


@SETTINGS
@given(st.data())
def test_multiplication_matrix_columns_are_cup_products(data):
    g = data.draw(GROUPS)
    cls = draw_class(data, g)
    degree = data.draw(st.integers(0, 5))
    ring = RingContext(g)
    m = ring.multiplication_matrix(cls, degree)
    assert m.shape == (ring.dim(degree + cls.degree), ring.dim(degree))
    for j, mon in enumerate(ring.basis(degree)):
        want = ring.to_vector(cup(cls, CohoClass(g, {mon: 1})), degree + cls.degree)
        assert (m[:, j] == want).all(), (str(cls), mon)


@SETTINGS
@given(st.data())
def test_contraction_matrix_columns_are_contract(data):
    g = data.draw(GROUPS)
    k = data.draw(st.integers(0, g.rank - 1))
    degree = data.draw(st.integers(0, 6))
    ring = RingContext(g)
    m = ring.contraction_matrix(k, degree)
    assert m.shape == (ring.dim(degree - 1), ring.dim(degree))
    for j, mon in enumerate(ring.basis(degree)):
        want = ring.to_vector(contract(CohoClass(g, {mon: 1}), k), degree - 1)
        assert (m[:, j] == want).all(), (k, mon)
