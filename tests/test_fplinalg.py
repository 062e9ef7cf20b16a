import itertools

import numpy as np
import pytest

from lhsseq.fplinalg import (
    LinAlgError,
    _mul_add,
    _reduce,
    kernel_basis,
    rank,
    rank_profile,
    rref,
    solve_linear,
    subquotient_of,
)


def brute_rank(m, p):
    """Rank by exhaustive row reduction over fractions-free arithmetic."""
    m = [list(int(x) % p for x in row) for row in np.atleast_2d(m)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_identity_mod3():
    assert rank(np.eye(3, dtype=int), 3) == 3


def test_rank_zero_matrix():
    assert rank(np.zeros((4, 7), dtype=int), 5) == 0


def test_rank_dependent_rows_mod5():
    m = [[1, 2], [2, 4]]
    assert brute_rank(m, 5) == 1
    assert rank(m, 5) == 1


def test_kernel_identity_empty():
    assert kernel_basis(np.eye(3, dtype=int), 3).shape[0] == 0


def test_kernel_zero_matrix_full():
    k = kernel_basis(np.zeros((2, 3), dtype=int), 7)
    assert k.shape == (3, 3)
    assert (k == np.eye(3, dtype=int)).all()


def test_kernel_sum_vector_mod2():
    # Oracle: enumerate all 8 vectors of F_2^3.
    m = np.array([[1, 1, 1]])
    true_kernel = [v for v in itertools.product(range(2), repeat=3) if sum(v) % 2 == 0]
    k = kernel_basis(m, 2)
    assert k.shape[0] == 2
    for v in k:
        assert tuple(v) in true_kernel
        assert int(v.sum()) % 2 == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_plus_nullity(p):
    rng = np.random.RandomState(0)
    for _ in range(25):
        m = rng.randint(0, p, size=(rng.randint(1, 6), rng.randint(1, 6)))
        assert rank(m, p) + kernel_basis(m, p).shape[0] == m.shape[1]
        assert rank(m, p) == brute_rank(m, p)


def test_solve_identity():
    t = [2, 0, 1]
    x = solve_linear(np.eye(3, dtype=int), t, 3)
    assert (x == t).all()


def test_solve_inconsistent_is_none():
    assert solve_linear(np.zeros((2, 2), dtype=int), [1, 0], 3) is None


def test_solve_underdetermined_mod3():
    # Oracle: enumerate all 9 candidate vectors.
    m = np.array([[1, 1], [0, 0]])
    t = np.array([2, 0])
    sols = [
        v
        for v in itertools.product(range(3), repeat=2)
        if ((m @ np.array(v)) % 3 == t).all()
    ]
    x = solve_linear(m, t, 3)
    assert tuple(x) in sols
    assert (x == [2, 0]).all()  # free variable zeroed


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_exactness_random(p):
    rng = np.random.RandomState(1)
    for _ in range(40):
        m = rng.randint(0, p, size=(rng.randint(1, 5), rng.randint(1, 5)))
        t = rng.randint(0, p, size=m.shape[0])
        x = solve_linear(m, t, p)
        aug = np.concatenate([m, t.reshape(-1, 1)], axis=1)
        if x is None:
            assert brute_rank(aug, p) > brute_rank(m, p)
        else:
            assert ((m @ x) % p == t % p).all()


def test_subquotient_full_space():
    sq = subquotient_of(np.eye(3, dtype=int), [], 3, 3)
    assert sq.dim == 3
    assert (sq.reduce([1, 2, 0]) == [1, 2, 0]).all()


def test_subquotient_cycles_equal_boundaries():
    basis = np.eye(2, dtype=int)
    sq = subquotient_of(basis, basis, 2, 5)
    assert sq.dim == 0
    assert (sq.reduce([3, 4]) == np.zeros(0)).all()


def test_subquotient_dim_by_rank_arithmetic():
    # F_3^3, cycles {e1, e2}, boundaries {e1+e2}: dim = 2 - 1 = 1.
    cycles = [[1, 0, 0], [0, 1, 0]]
    boundaries = [[1, 1, 0]]
    sq = subquotient_of(cycles, boundaries, 3, 3)
    assert sq.dim == 1
    for b in boundaries:
        assert not sq.reduce(b).any()


def test_subquotient_rejects_non_cycle_boundary():
    with pytest.raises(LinAlgError):
        subquotient_of([[1, 0, 0]], [[0, 1, 0]], 3, 3)


def test_subquotient_reduce_is_linear():
    rng = np.random.RandomState(2)
    p = 5
    cycles = rng.randint(0, p, size=(4, 6))
    boundaries = (2 * cycles[:2]) % p
    sq = subquotient_of(cycles, boundaries, 6, p)
    for _ in range(20):
        a = (rng.randint(0, p, size=4) @ cycles) % p
        b = (rng.randint(0, p, size=4) @ cycles) % p
        lhs = sq.reduce((a + b) % p)
        rhs = (sq.reduce(a) + sq.reduce(b)) % p
        assert (lhs == rhs).all()


def test_subquotient_lift_round_trip():
    sq = subquotient_of(np.eye(4, dtype=int), [[1, 1, 0, 0]], 4, 3)
    for coords in itertools.product(range(3), repeat=sq.dim):
        v = sq.lift(coords)
        assert (sq.reduce(v) == coords).all()


def test_rref_is_canonical_under_row_shuffle():
    rng = np.random.RandomState(3)
    m = rng.randint(0, 5, size=(5, 7))
    r1, piv1 = rref(m, 5)
    perm = rng.permutation(5)
    r2, piv2 = rref(m[perm], 5)
    assert piv1 == piv2
    assert (r1 == r2).all()


def test_float_product_splits_its_inner_dimension():
    # at p near 2^21 one chunk holds 2048 products, so 5000 need three
    p = 2097143
    rng = np.random.RandomState(4)
    a = rng.randint(p - 1000, p, size=(3, 5000))
    b = rng.randint(p - 1000, p, size=(5000, 3))
    c = rng.randint(0, p, size=(3, 3))
    want = [
        [(int(c[i, j]) + sum(int(x) * int(y) for x, y in zip(a[i], b[:, j]))) % p
         for j in range(3)]
        for i in range(3)
    ]
    assert _mul_add(a, b, p, c).tolist() == want


def test_float_product_refuses_p_past_two_to_the_26():
    ok = np.ones((2, 2), dtype=np.int64)
    assert _mul_add(ok, ok, 67108859, ok).tolist() == [[3, 3], [3, 3]]
    with pytest.raises(LinAlgError):
        _mul_add(ok, ok, 67108879, ok)


@pytest.mark.parametrize("p", [3, 5, 7, 2097143])
def test_float_reduction_is_exact_next_to_multiples_of_p(p):
    # near 2^53, x * (1/p) rounds across an integer both ways (p = 5 and
    # p = 2097143 need the correction up and down respectively)
    rng = np.random.RandomState(6)
    top = ((1 << 53) - 2 * p) // p
    k = rng.randint(top // 2, top, size=20000).astype(np.int64)
    x = np.concatenate([k * p - 1, k * p, k * p + 1])
    assert (_reduce(x.astype(np.float64), p).astype(np.int64) == x % p).all()


def test_blocked_rref_of_known_rank():
    # 600 x 500 = L R mod 5 with rank exactly 300: L = [I; *], R = [I | *]
    p, k = 5, 300
    rng = np.random.RandomState(5)
    left = np.vstack([np.eye(k, dtype=np.int64), rng.randint(0, p, size=(300, k))])
    right = np.hstack([np.eye(k, dtype=np.int64), rng.randint(0, p, size=(k, 200))])
    m = (left @ right) % p
    r, pivots = rref(m, p)
    assert pivots == list(range(k))
    assert (r == right).all()
    assert rank(m, p) + kernel_basis(m, p).shape[0] == 500
    assert not ((m @ kernel_basis(m, p).T) % p).any()
    # the first k rows are independent, so they carry every pivot
    assert rank_profile(m, p) == [(i, i) for i in range(k)]
