import itertools

import numpy as np
import pytest

from lhsseq.groups import (
    AbelianPGroupSpec,
    FiniteGroupTable,
    GroupError,
    cyclic_group,
    direct_product,
)


def test_cyclic_group_axioms():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.inverse(2) == 4
    assert (g.mul == g.mul.T).all()


def test_direct_product_encoding():
    g = direct_product(cyclic_group(3), cyclic_group(2))
    # (1, 1) * (2, 1) = (0, 0)
    assert g.multiply(1 * 2 + 1, 2 * 2 + 1) == 0
    assert g.order == 6


def test_bad_table_rejected():
    with pytest.raises(GroupError):
        FiniteGroupTable(np.array([[0, 1], [0, 1]]))


def test_abelian_spec_encode_decode():
    # mixed radix, first factor most significant: a bijection onto the
    # coordinate tuples
    spec = AbelianPGroupSpec(3, (2, 1))
    assert spec.order == 27
    assert [spec.decode(idx) for idx in range(27)] == list(
        itertools.product(range(9), range(3)))
    assert spec.decode(4 * 3 + 2) == (4, 2)


def test_abelian_spec_table_matches_encoding():
    spec = AbelianPGroupSpec(3, (1, 1))
    g = spec.group_table()
    for a in range(9):
        for b in range(9):
            ca, cb = spec.decode(a), spec.decode(b)
            s = tuple((u + v) % n for u, v, n in zip(ca, cb, spec.factor_orders))
            assert spec.decode(g.multiply(a, b)) == s


@pytest.mark.parametrize("p", [1, 4, 9, 15])
def test_abelian_spec_rejects_non_prime(p):
    with pytest.raises(GroupError):
        AbelianPGroupSpec(p, (1,))
