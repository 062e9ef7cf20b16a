"""Property tests of the F_p elimination kernel against a plain reference.

Matrices are drawn as (shape, rank, density, seed) and built with numpy,
so shapes reach past the 2^17-entry crossover where `rref` switches to
panels of 64 columns.  Examples are derandomized: every run checks the
same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lhsseq.fplinalg import kernel_basis, rank, rank_profile, rref

PRIMES = st.sampled_from([2, 3, 5, 7])
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def reference_rref(m, p):
    """Gauss-Jordan one column at a time, swapping in the topmost usable row."""
    r = np.array(m, dtype=np.int64) % p
    row = 0
    pivots = []
    for col in range(r.shape[1]):
        nz = np.nonzero(r[row:, col])[0]
        if not nz.size:
            continue
        sel = row + int(nz[0])
        r[[row, sel]] = r[[sel, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r[:row], pivots


# (rows, cols): tiny or empty; 362 x 360..364 straddles 2^17 entries;
# large ones cross several 64-column panel boundaries
TINY = st.tuples(st.integers(0, 9), st.integers(0, 9))
SMALL = st.tuples(st.integers(0, 40), st.integers(0, 40))
AT_CROSSOVER = st.tuples(st.just(362), st.integers(360, 364))
LARGE = st.tuples(st.integers(365, 450), st.integers(365, 450))


@st.composite
def matrices(draw, shapes):
    """(m, p): a product L R mod p of bounded rank, some rows zeroed."""
    p = draw(PRIMES)
    rows, cols = draw(shapes)
    k = draw(st.integers(0, min(rows, cols)))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = (rng.randint(0, p, size=(rows, k)) @ rng.randint(0, p, size=(k, cols))) % p
    m[rng.random_sample(rows) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return m, p


@SETTINGS
@given(matrices(st.one_of(TINY, SMALL, AT_CROSSOVER, LARGE)))
def test_rref_equals_reference_on_both_sides_of_the_crossover(case):
    m, p = case
    r, pivots = rref(m, p)
    want, want_pivots = reference_rref(m, p)
    assert pivots == want_pivots
    assert r.shape == want.shape and (r == want).all()


@SETTINGS
@given(matrices(SMALL), st.integers(0, 2**32 - 1))
def test_rref_is_idempotent_and_canonical_under_row_operations(case, seed):
    m, p = case
    r, pivots = rref(m, p)
    assert rref(r, p)[1] == pivots and (rref(r, p)[0] == r).all()
    # a random invertible matrix: unit lower triangular times unit upper
    n = m.shape[0]
    rng = np.random.RandomState(seed)
    low = np.tril(rng.randint(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.randint(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    r2, pivots2 = rref((((low @ up) % p) @ m) % p, p)
    assert pivots2 == pivots and (r2 == r).all()


@SETTINGS
@given(matrices(st.one_of(SMALL, LARGE)))
def test_rank_plus_nullity_is_the_column_count(case):
    m, p = case
    k = kernel_basis(m, p)
    assert rank(m, p) + k.shape[0] == m.shape[1]
    assert not ((m @ k.T) % p).any()


@SETTINGS
@given(matrices(TINY))
def test_rank_profile_is_the_leading_minor_rank_difference(case):
    m, p = case
    rows, cols = m.shape
    lead = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    for a in range(1, rows + 1):
        for b in range(1, cols + 1):
            lead[a, b] = len(reference_rref(m[:a, :b], p)[1])
    diff = lead[1:, 1:] - lead[:-1, 1:] - lead[1:, :-1] + lead[:-1, :-1]
    want = sorted(zip(*np.nonzero(diff)))
    assert sorted(rank_profile(m, p)) == [(int(i), int(j)) for i, j in want]


@SETTINGS
@given(matrices(st.one_of(AT_CROSSOVER, LARGE)), st.integers(0, 2**32 - 1))
def test_rank_profile_counts_corner_ranks_past_the_crossover(case, seed):
    m, p = case
    pairs = np.array(rank_profile(m.copy(), p), dtype=np.int64).reshape(-1, 2)
    rng = np.random.RandomState(seed)
    for _ in range(3):
        a = rng.randint(0, m.shape[0] + 1)
        b = rng.randint(0, m.shape[1] + 1)
        inside = int(((pairs[:, 0] < a) & (pairs[:, 1] < b)).sum())
        assert inside == len(reference_rref(m[:a, :b], p)[1])
