"""Property tests of the F_p elimination kernel and of `Subquotient`
against plain references.

Matrices are drawn as (shape, rank, density, seed) and built with numpy,
so shapes reach past the 2^17-entry crossover where `rref` switches to
panels of 64 columns.  Primes are drawn on both sides of each boundary
of the elimination's working type (int16 to p = 7, int32 from 11 to
2423, int64 from 2437).  Examples are derandomized: every run checks the
same cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhsseq.fplinalg import (
    _LOOP_PIVOTS,
    LinAlgError,
    _eliminate,
    kernel_basis,
    mul_mod,
    rank,
    rank_profile,
    rref,
    solve_linear,
    subquotient_of,
)

# 7 | 11 and 2423 | 2437 straddle the int16/int32 and int32/int64 lanes
PRIMES = st.sampled_from([2, 3, 5, 7, 11, 2423, 2437])
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


# Every lane-boundary prime also runs as an explicit example of each
# property below, whatever the derandomized draws pick.
LANE_PRIMES = [7, 11, 2423, 2437]


def matrix_case(p, rows, cols, k, seed, zero_rows):
    """(m, p): a product L R mod p of rank at most k, a share zero_rows of
    its rows zeroed."""
    rng = np.random.RandomState(seed)
    m = (rng.randint(0, p, size=(rows, k)) @ rng.randint(0, p, size=(k, cols))) % p
    m[rng.random_sample(rows) < zero_rows] = 0
    return m, p


@st.composite
def matrices(draw, shapes):
    """matrix_case draws: a prime, a shape, a rank bound, a seed."""
    p = draw(PRIMES)
    rows, cols = draw(shapes)
    k = draw(st.integers(0, min(rows, cols)))
    seed = draw(st.integers(0, 2**32 - 1))
    return matrix_case(p, rows, cols, k, seed, draw(st.sampled_from([0.0, 0.3])))


def lane_examples(case, *args):
    """One explicit example (case(p, seed=p), *args) per lane-boundary prime."""
    def mark(test):
        for p in LANE_PRIMES:
            test = example(case(p, p), *args)(test)
        return test
    return mark


def loop_dtypes(p):
    """The signed integer types that hold the column loop's bound
    _LOOP_PIVOTS (p-1)^2 + p: every type _eliminate may run on at p."""
    bound = _LOOP_PIVOTS * (p - 1) ** 2 + p
    return [t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max]


def assert_rref_equals_reference(m, p):
    """rref(m) equals the reference, and so does _eliminate in place on
    every integer type that holds its bound: rank_profile relies on it
    leaving residues everywhere, the RREF in the pivot rows and zero in
    the others."""
    r, pivots = rref(m, p)
    want, want_pivots = reference_rref(m, p)
    assert pivots == want_pivots
    assert r.dtype == np.int64
    assert r.shape == want.shape and (r == want).all()
    for dtype in loop_dtypes(p):
        a = m.astype(dtype)
        piv_rows, piv_cols = _eliminate(a, p)
        assert a.dtype == dtype and piv_cols == want_pivots
        assert ((a >= 0) & (a < p)).all()
        assert (a[piv_rows] == want).all()
        assert not np.delete(a, piv_rows, axis=0).any()


@SETTINGS
@given(matrices(st.one_of(TINY, SMALL, AT_CROSSOVER, LARGE)))
@lane_examples(lambda p, seed: matrix_case(p, 400, 380, 300, seed, 0.3))
def test_rref_equals_reference_on_both_sides_of_the_crossover(case):
    assert_rref_equals_reference(*case)


# p = 67108859, the largest prime below MAX_PRIME = 2^26, is the worst case
# of the column loop's int64 bound 362 (p-1)^2 + p < 2^63.  (rows, cols,
# rank): one plain panel of the full 362 pivots (362 x 362 is under 2^17),
# the plain path at 128 columns, and blocked ones, some with zero rows left
@pytest.mark.parametrize("rows, cols, k", [
    (362, 362, 362), (362, 362, 250), (300, 128, 128),
    (362, 363, 362), (440, 300, 300), (300, 440, 300), (420, 400, 280),
])
def test_rref_equals_reference_at_the_largest_prime(rows, cols, k):
    p = 67108859
    rng = np.random.RandomState(rows * 1000 + cols + k)
    m = _random(rng, p, (rows, cols))
    if k < min(rows, cols):
        m = mul_mod(m[:, :k], _random(rng, p, (k, cols)), p)
    assert rank(m, p) == k
    assert_rref_equals_reference(m, p)


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
@lane_examples(lambda p, seed: matrix_case(p, 370, 420, 330, seed, 0.3))
def test_rank_plus_nullity_is_the_column_count(case):
    m, p = case
    k, free = kernel_basis(m, p)
    assert k.dtype == np.int64
    assert rank(m, p) + k.shape[0] == m.shape[1]
    assert not ((m @ k.T) % p).any()
    assert (k[:, free] == np.eye(len(free), dtype=np.int64)).all()


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


@SETTINGS
@given(
    matrices(st.one_of(TINY, SMALL, AT_CROSSOVER)),
    st.lists(st.sampled_from(["image", "random", "repeat"]), max_size=6),
    st.integers(0, 2**32 - 1),
)
@lane_examples(lambda p, seed: matrix_case(p, 362, 364, 250, seed, 0.3),
               ["image", "random", "repeat", "image", "random"], 1)
def test_block_solve_equals_one_column_solves(case, kinds, seed):
    # image columns are consistent; random ones mostly are not (m has
    # bounded rank); a repeat is a unit multiple of an earlier column plus
    # an image, so an inconsistent one gets no pivot of its own
    m, p = case
    rng = np.random.RandomState(seed)
    cols = []
    for kind in kinds:
        image = m @ rng.randint(0, p, size=m.shape[1])
        if kind == "image":
            cols.append(image % p)
        elif kind == "repeat" and cols:
            cols.append((rng.randint(1, p) * cols[rng.randint(len(cols))] + image) % p)
        else:
            cols.append(rng.randint(0, p, size=m.shape[0]))
    t = np.array(cols, dtype=np.int64).reshape(len(cols), m.shape[0]).T
    x, consistent = solve_linear(m, t, p)
    assert x.shape == (m.shape[1], len(cols)) and consistent.shape == (len(cols),)
    assert x.dtype == np.int64
    # int64 products are exact here: PRIMES stop at 2437
    assert not ((m @ x - t) % p * consistent).any()
    for c in range(len(cols)):
        want = solve_linear(m, t[:, c], p)
        assert want is None or want.dtype == np.int64
        assert bool(consistent[c]) == (want is not None)
        assert (x[:, c] == (0 if want is None else want)).all()


# ---- Subquotient laws ------------------------------------------------------

# p = 67108859 is the largest prime below MAX_PRIME = 2^26, where an exact
# float64 product holds two terms per chunk; 7 | 11 and 2423 | 2437
# straddle the boundaries of the elimination's working type
SQ_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 2423, 2437, 67108859])
# (cycle rows, ambient): small, or a cycle matrix past 2^17 entries
SQ_SHAPES = st.one_of(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.integers(363, 380), st.integers(362, 370)),
)
SQ_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _random(rng, p, shape):
    """Residues in [0, p) of any shape, p up to 2^26."""
    return rng.randint(0, p, size=shape, dtype=np.int64)


def subquotient_case(p, rows, n, k, seed, b_rows, escape):
    """(Z, B, p, rng): Z of rank at most k, B b_rows combinations of Z
    rows, and with escape a random vector added to B's last row."""
    rng = np.random.RandomState(seed)
    z = mul_mod(_random(rng, p, (rows, k)), _random(rng, p, (k, n)), p)
    b = mul_mod(_random(rng, p, (b_rows, rows)), z, p)
    if escape:
        b[-1] = (b[-1] + _random(rng, p, n)) % p
    return z, b, p, rng


@st.composite
def subquotients(draw, stray=False):
    """subquotient_case draws.  With stray, Z has rank below the ambient
    dimension, B at least one row, and sometimes a vector escapes Z."""
    p = draw(SQ_PRIMES)
    rows, n = draw(SQ_SHAPES)
    k = draw(st.integers(0, max(0, min(rows, n - stray))))
    seed = draw(st.integers(0, 2**32 - 1))
    b_rows = draw(st.integers(int(stray), 8))
    escape = bool(stray and b_rows and n and draw(st.booleans()))
    return subquotient_case(p, rows, n, k, seed, b_rows, escape)


def _exact(m):
    """Python-int copy: products cannot overflow."""
    return np.asarray(m, dtype=np.int64).astype(object)


@SQ_SETTINGS
@given(subquotients())
@lane_examples(lambda p, seed: subquotient_case(p, 370, 366, 300, seed, 8, False))
def test_subquotient_reduce_is_the_coordinate_map(case):
    z, b, p, rng = case
    n = z.shape[1]
    sq = subquotient_of(z, b, n, p)
    assert sq.dim == rank(z, p) - rank(b, p)
    assert sq.boundary_basis.dtype == sq.quotient_reps.dtype == np.int64
    assert sq.reduce(b).dtype == np.int64
    # representatives have coordinates e_k, boundaries coordinate 0
    assert (sq.reduce(sq.quotient_reps) == np.eye(sq.dim, dtype=np.int64)).all()
    assert sq.reduce(sq.boundary_basis).shape == (sq.boundary_basis.shape[0], sq.dim)
    assert not sq.reduce(sq.boundary_basis).any()
    assert not sq.reduce(b).any()
    # cycles, as combinations of the rows of Z
    v1 = mul_mod(_random(rng, p, (3, z.shape[0])), z, p)
    v2 = mul_mod(_random(rng, p, (3, z.shape[0])), z, p)
    a = int(rng.randint(0, p))
    c1, c2 = sq.reduce(v1), sq.reduce(v2)
    both = sq.reduce((a * _exact(v1) + _exact(v2)) % p)
    assert (both == (a * _exact(c1) + _exact(c2)) % p).all()
    # the coordinates against the definition, in Python ints: v is its
    # boundary part (v on the boundary pivots) plus c_r times the reps
    c_b = _exact(v1)[:, sq._b_pivots]
    residual = (_exact(v1) - c_b.dot(_exact(sq.boundary_basis))
                - _exact(c1).dot(_exact(sq.quotient_reps))) % p
    assert not residual.any()


@SQ_SETTINGS
@given(subquotients(stray=True))
@lane_examples(lambda p, seed: subquotient_case(p, 370, 366, 300, seed, 5, True))
def test_subquotient_of_raises_exactly_when_b_leaves_z(case):
    z, b, p, _ = case
    n = z.shape[1]
    escapes = rank(np.concatenate([z, b]), p) > rank(z, p)
    if escapes:
        with pytest.raises(LinAlgError, match="not contained"):
            subquotient_of(z, b, n, p)
    else:
        sq = subquotient_of(z, b, n, p)
        assert sq.dim == rank(z, p) - rank(b, p)


# (rows, ambient) of a matrix whose kernel is Z: small, or a kernel of at
# least 360 x 420 entries, past 2^17, so every elimination takes panels
KERNEL_SHAPES = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(0, 30)),
    st.tuples(st.integers(0, 60), st.integers(420, 450)),
)


def kernel_case(p, rows, n, k, seed, b_rows, escape):
    """(m, B, p, rng): Z = ker m, m of rank at most k, B b_rows combinations
    of a basis of Z, and with escape a random vector added to B's last row."""
    rng = np.random.RandomState(seed)
    m = mul_mod(_random(rng, p, (rows, k)), _random(rng, p, (k, n)), p)
    z, _ = kernel_basis(m, p)
    b = mul_mod(_random(rng, p, (b_rows, z.shape[0])), z, p)
    if escape:
        b[-1] = (b[-1] + _random(rng, p, n)) % p
    return m, b, p, rng


@st.composite
def kernels(draw):
    """kernel_case draws: Z of bounded codimension, B sometimes escaping."""
    p = draw(SQ_PRIMES)
    rows, n = draw(KERNEL_SHAPES)
    k = draw(st.integers(0, min(rows, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    b_rows = draw(st.integers(0, 12))
    escape = bool(b_rows and n and draw(st.booleans()))
    return kernel_case(p, rows, n, k, seed, b_rows, escape)


def _subquotient_or_error(*args, **kwargs):
    try:
        return subquotient_of(*args, **kwargs)
    except LinAlgError as exc:
        return str(exc)


@SQ_SETTINGS
@given(kernels())
@lane_examples(lambda p, seed: kernel_case(p, 50, 430, 40, seed, 12, False))
def test_subquotient_of_a_kernel_basis_equals_the_echelonized_path(case):
    # a kernel basis given with its free columns, the same basis without
    # them, and a shuffled, rescaled spanning set of Z with redundant rows
    # all give the same Subquotient, field for field
    m, b, p, rng = case
    n = m.shape[1]
    z, free = kernel_basis(m, p)
    units = rng.randint(1, p, size=(z.shape[0], 1), dtype=np.int64)
    extra = mul_mod(_random(rng, p, (rng.randint(0, 4), z.shape[0])), z, p)
    span = np.concatenate([mul_mod(units * np.eye(len(units), dtype=np.int64) % p, z, p),
                           extra])[rng.permutation(z.shape[0] + extra.shape[0])]
    got = _subquotient_or_error(z, b, n, p, free=free)
    for other in (_subquotient_or_error(z, b, n, p), _subquotient_or_error(span, b, n, p)):
        if isinstance(got, str):
            assert got == other
            continue
        assert not isinstance(other, str), other
        assert (got.p, got.ambient_dim, got._b_pivots, got._r_pivots) == (
            other.p, other.ambient_dim, other._b_pivots, other._r_pivots)
        for name in ("boundary_basis", "quotient_reps"):
            x, y = getattr(got, name), getattr(other, name)
            assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all(), name
