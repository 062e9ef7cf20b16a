import ast
from pathlib import Path

import numpy as np
import pytest

import lhsseq

from lhsseq.cohomology import CohoClass, cup
from lhsseq.extensions import ExtensionSpec, build_extension_group
from lhsseq.fplinalg import BudgetExceeded
from lhsseq.groups import AbelianPGroupSpec
from lhsseq.oracle import minimal_resolution
from lhsseq.resolutions import (
    abelian_minimal_resolution,
    cyclic_resolution,
    homology_dims,
    tensor_resolution,
)


def test_cyclic_resolution_differentials():
    g3 = cyclic_resolution(3, 3, 4)
    assert g3.entry(1, 0, 0).tolist() == [2, 1, 0]  # g - 1
    assert g3.entry(2, 0, 0).tolist() == [1, 1, 1]  # the norm


def test_cyclic_resolution_d_squared_and_minimality():
    # every entry is in the augmentation ideal mod 3, but C_6 is no 3-group
    res6 = cyclic_resolution(6, 3, 4)
    assert res6.check_d_squared()
    assert not res6.is_minimal()


def test_tensor_ranks_match_monomial_count():
    a = cyclic_resolution(3, 3, 5)
    b = cyclic_resolution(3, 3, 5)
    t = tensor_resolution(a, b)
    assert [t.rank(n) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_tensor_d_squared_c2_c4():
    t = tensor_resolution(cyclic_resolution(2, 2, 5), cyclic_resolution(4, 2, 5))
    assert t.check_d_squared()


def test_tensor_koszul_sign():
    # d(e1 (x) e1) = (g-1)e0 (x) e1 - e1 (x) (h-1)e0 over C_3 x C_3
    a = cyclic_resolution(3, 3, 2)
    b = cyclic_resolution(3, 3, 2)
    t = tensor_resolution(a, b)
    col = t.labels(2).index(((1,), (1,), 1, 1))
    row_01 = t.labels(1).index(((0,), (1,), 0, 1))
    row_10 = t.labels(1).index(((1,), (0,), 1, 0))
    nb = b.group.order
    want = np.zeros((t.rank(1), t.group.order), dtype=np.int64)
    # (g-1) embedded in the first factor: generator index 1*nb
    want[row_01, [nb, 0]] = [1, -1]
    # -(h-1) embedded in the second factor
    want[row_10, [1, 0]] = [-1, 1]
    for r in range(t.rank(1)):
        assert (t.entry(2, r, col) == want[r] % 3).all()


def test_abelian_minimal_c9_ranks_all_one():
    res = abelian_minimal_resolution(AbelianPGroupSpec(3, (2,)), 6)
    assert res.ranks == [1] * 7


def test_abelian_minimal_rank4_count():
    res = abelian_minimal_resolution(AbelianPGroupSpec(3, (1, 1)), 6)
    assert res.rank(4) == 5
    assert sorted(res.labels(4)) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


def test_abelian_minimal_trivial_group():
    res = abelian_minimal_resolution(AbelianPGroupSpec(3, ()), 4)
    assert res.ranks == [1, 0, 0, 0, 0]


def test_abelian_minimal_three_factors():
    res = abelian_minimal_resolution(AbelianPGroupSpec(3, (1, 1, 1)), 4)
    # rank(n) = number of multidegrees in N^3 summing to n
    for n in range(5):
        assert res.rank(n) == (n + 1) * (n + 2) // 2


def extraspecial_27():
    q = AbelianPGroupSpec(3, (1, 1))
    xi = cup(CohoClass.y(q, 0), CohoClass.y(q, 1))
    return build_extension_group(ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=xi))


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic_resolution(4, 2, 4),
        lambda: cyclic_resolution(9, 3, 4),
        lambda: tensor_resolution(cyclic_resolution(2, 2, 4), cyclic_resolution(4, 2, 4)),
        lambda: tensor_resolution(cyclic_resolution(3, 3, 4), cyclic_resolution(3, 3, 4)),
        lambda: abelian_minimal_resolution(AbelianPGroupSpec(3, (1, 1, 1)), 4),
        lambda: abelian_minimal_resolution(AbelianPGroupSpec(3, ()), 3),
        lambda: minimal_resolution(AbelianPGroupSpec(2, (1, 2)).group_table(), 4),
        lambda: minimal_resolution(extraspecial_27(), 4),
    ],
)
def test_exactness_desk_scale(make):
    """Every constructor: d^2 = 0, minimal, exact below the top degree, and
    each dense d_n a module map whose identity columns are the stored images."""
    res = make()
    assert res.check_d_squared()
    assert res.is_minimal()
    assert homology_dims(res, res.max_degree - 1) == [0] * res.max_degree
    group, order = res.group, res.group.order
    for n in range(1, res.max_degree + 1):
        d = res.dense(n)
        assert np.array_equal(d[:, group.identity :: order], res.images[n - 1])
        for g in range(order):
            # g d(v) = d(g v), where g moves coordinate (b, h) to (b, g h)
            src, tgt = ((np.arange(res.rank(m))[:, None] * order + group.mul[g]).ravel()
                        for m in (n - 1, n))
            gd = np.empty_like(d)
            gd[src] = d
            assert np.array_equal(gd, d[:, tgt])


def test_differential_shapes():
    res = abelian_minimal_resolution(AbelianPGroupSpec(2, (1, 1)), 3)
    for n in range(1, 4):
        assert res.images[n - 1].shape == (res.rank(n - 1) * 4, res.rank(n))
        assert res.dense(n).shape == (res.rank(n - 1) * 4, res.rank(n) * 4)


def test_tensor_resolution_budget():
    a = cyclic_resolution(3, 3, 2)
    # over C3 x C3, the images of d_1 are 9 x 2 and of d_2 18 x 3 = 54 entries
    assert tensor_resolution(a, a, budget=54).ranks == [1, 2, 3]
    with pytest.raises(BudgetExceeded, match="d_2 of the C3xC3 tensor resolution needs 54"):
        tensor_resolution(a, a, budget=53)


def test_dense_view_is_read_only_in_resolutions():
    # the dense d_n exist for the certificate code alone: no package module
    # but resolutions.py reads Resolution.differentials
    readers = [
        path.name for path in sorted(Path(lhsseq.__file__).parent.glob("*.py"))
        if path.name != "resolutions.py"
        and any(isinstance(node, ast.Attribute) and node.attr == "differentials"
                for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert readers == []
