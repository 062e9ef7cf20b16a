import numpy as np
import pytest

from lhsseq.cohomology import CohoClass, bockstein, cup
from lhsseq.extensions import (
    ExtensionSpec,
    build_extension_group,
    extension_projection,
    kernel_injection,
)
from lhsseq.groups import AbelianPGroupSpec, GroupError

C3C3 = AbelianPGroupSpec(3, (1, 1))


def is_abelian(e) -> bool:
    return bool((e.mul == e.mul.T).all())


def element_order(e, a: int) -> int:
    k, x = 1, a
    while x != e.identity:
        x = e.multiply(x, a)
        k += 1
    return k


def commutator_subgroup(e) -> set[int]:
    """The subgroup generated by the commutators a b (b a)^-1."""
    n = e.order
    comms = {e.multiply(e.multiply(a, b), e.inverse(e.multiply(b, a)))
             for a in range(n) for b in range(n)}
    frontier = set(comms)
    while frontier:
        frontier = {e.multiply(x, y) for x in frontier for y in comms} - comms
        comms |= frontier
    return comms


def spec_with_xi(xi, quotient=C3C3, kernel_m=1):
    return ExtensionSpec(p=quotient.p, kernel_m=kernel_m, quotient=quotient, xi=xi)


def y1y2(q=C3C3):
    return cup(CohoClass.y(q, 0), CohoClass.y(q, 1))


def test_split_extension_is_elementary_abelian():
    e = build_extension_group(spec_with_xi(CohoClass.zero(C3C3)))
    assert e.order == 27
    assert is_abelian(e)
    assert all(element_order(e, a) in (1, 3) for a in range(27))


def test_extraspecial_27_exponent_three():
    e = build_extension_group(spec_with_xi(y1y2()))
    assert e.order == 27
    assert not is_abelian(e)
    assert all(element_order(e, a) in (1, 3) for a in range(27))
    assert len(commutator_subgroup(e)) == 3


def test_metacyclic_27():
    xi = CohoClass.x(C3C3, 0) + y1y2()
    e = build_extension_group(spec_with_xi(xi))
    assert e.order == 27
    assert not is_abelian(e)
    # metacyclic of order 27: an element of order 9 exists
    assert max(element_order(e, a) for a in range(27)) == 9


def test_c9_x_c3_from_x1():
    e = build_extension_group(spec_with_xi(CohoClass.x(C3C3, 0)))
    assert is_abelian(e)
    assert max(element_order(e, a) for a in range(27)) == 9


def test_kernel_is_central_and_projection_is_morphism():
    spec = spec_with_xi(y1y2())
    e = build_extension_group(spec)
    pi = extension_projection(spec)
    q = C3C3.group_table()
    for a in range(27):
        for b in range(27):
            assert pi[e.multiply(a, b)] == q.multiply(pi[a], pi[b])
    for c in kernel_injection(spec):
        assert e.centralizes(int(c))


def test_c4_from_carry_cocycle():
    q = AbelianPGroupSpec(2, (1,))
    spec = spec_with_xi(CohoClass.x(q, 0), quotient=q)
    e = build_extension_group(spec)
    assert e.order == 4
    assert max(element_order(e, a) for a in range(4)) == 4


def test_c9_from_carry_cocycle():
    q = AbelianPGroupSpec(3, (1,))
    spec = spec_with_xi(CohoClass.x(q, 0), quotient=q)
    e = build_extension_group(spec)
    assert e.order == 9
    assert max(element_order(e, a) for a in range(9)) == 9


def test_xi_prime_defaults_to_bockstein():
    spec = spec_with_xi(y1y2())
    from lhsseq.cohomology import bockstein

    assert spec.xi_prime == bockstein(y1y2())


def test_kernel_m1_refuses_an_explicit_xi_prime():
    # any other degree-3 class would run d_3 and d_4 on a class that is not
    # the extension's beta(xi); even beta(xi) itself is not taken
    for xi_prime in (cup(CohoClass.x(C3C3, 0), CohoClass.y(C3C3, 1)), bockstein(y1y2())):
        with pytest.raises(GroupError, match="derived as the Bockstein of xi when kernel_m = 1"):
            ExtensionSpec(p=3, kernel_m=1, quotient=C3C3, xi=y1y2(), xi_prime=xi_prime)


def test_kernel_m2_requires_explicit_xi_prime():
    with pytest.raises(GroupError):
        ExtensionSpec(p=3, kernel_m=2, quotient=C3C3, xi=y1y2())
    spec = ExtensionSpec(
        p=3, kernel_m=2, quotient=C3C3, xi=y1y2(), xi_prime=CohoClass.zero(C3C3, 3)
    )
    assert spec.experimental
    e = build_extension_group(spec)
    assert e.order == 81


def test_malformed_xi_rejected():
    q = AbelianPGroupSpec(3, (1, 1, 1))
    bad = cup(cup(CohoClass.y(q, 0), CohoClass.y(q, 1)), CohoClass.y(q, 2))
    with pytest.raises(GroupError):
        spec_with_xi(bad, quotient=q)


def test_commutator_order_p_for_bilinear_class():
    for quotient in (C3C3, AbelianPGroupSpec(3, (2, 1))):
        e = build_extension_group(spec_with_xi(y1y2(quotient), quotient=quotient))
        assert len(commutator_subgroup(e)) == 3
