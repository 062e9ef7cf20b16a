import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from lhsseq.cohomology import CohoClass, cup
from lhsseq.extensions import ExtensionSpec
from lhsseq.groups import AbelianPGroupSpec, GroupError
from lhsseq.fplinalg import BudgetExceeded
from lhsseq.verifier import (
    BarDoubleComplex,
    _face_pairs,
    _row_ranges,
    _uncancelled,
    build_double_complex,
    build_eta_family,
    build_ladder,
    check_lemma1,
    derivation_residual,
    row_zero_class_report,
    twist_residual,
)


def c4_extension():
    q = AbelianPGroupSpec(2, (1,))
    return ExtensionSpec(p=2, kernel_m=1, quotient=q, xi=CohoClass.x(q, 0))


def c9_extension():
    q = AbelianPGroupSpec(3, (1,))
    return ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=CohoClass.x(q, 0))


def extraspecial27_extension():
    q = AbelianPGroupSpec(3, (1, 1))
    return ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=cup(CohoClass.y(q, 0), CohoClass.y(q, 1)))


def split_extension():
    q = AbelianPGroupSpec(3, (1,))
    return ExtensionSpec(p=3, kernel_m=1, quotient=q, xi=CohoClass.zero(q))


@pytest.fixture(scope="module")
def cx4():
    return build_double_complex(c4_extension(), 3)


@pytest.fixture(scope="module")
def cx9():
    return build_double_complex(c9_extension(), 3)


def random_pairs(cx, rng, count, max_total=3):
    bidegs = [(i, j) for i in range(max_total + 1) for j in range(max_total + 1)]
    done = 0
    while done < count:
        i1, j1 = bidegs[rng.randint(len(bidegs))]
        i2, j2 = bidegs[rng.randint(len(bidegs))]
        if i1 + i2 + j1 + j2 > max_total:
            continue
        done += 1
        yield cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)


# -- the complex itself ----------------------------------------------------


def test_dimension_formula(cx4):
    # |G|^{i+1} |E|^j
    assert cx4.dim(2, 2) == 2**3 * 4**2 == 128


def test_bar_budget():
    with pytest.raises(BudgetExceeded):
        build_double_complex(c4_extension(), 3, budget=100)


def test_bar_budget_past_bound():
    # bound 2: every cochain through degree 2 fits (at most 243 entries),
    # and so does the d0 face matrix into (0, 2) (243 rows x 3 faces); the
    # one into (0, 3) (2,187 x 4) and a product landing there do not
    cx = build_double_complex(c9_extension(), 2, budget=1000)
    rng = np.random.RandomState(0)
    a, b = cx.random_cochain(rng, 0, 1), cx.random_cochain(rng, 0, 2)
    cx.d0(a)
    with pytest.raises(BudgetExceeded, match=r"d0 face matrix out of \(0, 2\) needs 8,748"):
        cx.d0(b)
    with pytest.raises(BudgetExceeded, match=r"product in bidegree \(0, 3\)"):
        cx.product(a, b, "cup")


def tuple_faces(cx, name, i, j, g, s, e):
    """(source index, sign) of each face of d0 or d1 out of (i, j) at the
    target tuple (g, s, e), straight from the bar differentials."""
    G, E = cx.G, cx.E
    if name == "d0":
        x = e[0]
        moved = (G.mul[G.inv[cx.pi[x]], g], s, tuple(E.mul[E.inv[x], d] for d in e[1:]))
        rest = [(g, s, e[: k - 1] + e[k:]) for k in range(1, len(e) + 1)]
    else:
        x = s[0]
        moved = (G.mul[g, x], tuple(G.mul[G.inv[x], d] for d in s[1:]), e)
        rest = [(g, s[: k - 1] + s[k:], e) for k in range(1, len(s) + 1)]
    sign = (-1) ** i if name == "d0" else 1
    return [(cx.index(*t), sign * (-1) ** k) for k, t in enumerate([moved] + rest)]


@pytest.mark.parametrize("fixture", ["cx4", "cx9"])
def test_face_matrices_match_the_tuple_definition(fixture, request):
    cx = request.getfixturevalue(fixture)
    for total in range(4):
        for i in range(total + 1):
            j = total - i
            for name, (ti, tj) in [("d0", (i, j + 1)), ("d1", (i + 1, j))]:
                idx, signs = getattr(cx, f"{name}_matrix")(i, j)
                assert idx.shape == (len(signs), cx.dim(ti, tj))
                assert (idx.dtype, signs.dtype) == (np.int32, np.int64)
                assert 0 <= idx.min() and idx.max() < cx.dim(i, j)
                for g, s, e in itertools.product(
                    range(cx.ng),
                    itertools.product(range(cx.ng), repeat=ti),
                    itertools.product(range(cx.ne), repeat=tj),
                ):
                    r = cx.index(g, s, e)
                    got = list(zip(idx[:, r].tolist(), signs.tolist()))
                    assert got == tuple_faces(cx, name, i, j, g, s, e), (name, i, j, r)


def test_face_matrix_int32_index_guard():
    # 9 * 27^6 = 3.5e9 rows pass a budget of 2^40 but not int32 indices
    cx = build_double_complex(extraspecial27_extension(), 6, budget=2**40)
    with pytest.raises(BudgetExceeded, match=r"d0 face matrix out of \(0, 5\).*int32"):
        cx.d0_matrix(0, 5)
    assert not cx._dmat


def test_face_matrix_memory():
    cx = build_double_complex(extraspecial27_extension(), 3)
    tracemalloc.start()
    idx, signs = cx.d0_matrix(0, 3)  # 4.78M rows x 5 faces, 96 MB
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (idx.dtype, idx.shape) == (np.int32, (5, cx.dim(0, 4)))
    assert signs.tolist() == [1, -1, 1, -1, 1]
    assert peak <= 1.05 * idx.nbytes
    assert not cx._digits
    c = cx.random_cochain(np.random.RandomState(0), 0, 3)
    tracemalloc.start()
    out = cx.d0(c)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the output plus one block's temporaries: as many rows as the matrix has
    # columns, each with two words of 8 bytes (the values a face gathers and
    # their signed copy), and a few small arrays
    assert peak <= out.values.nbytes + cx.dim(0, 3) * 2 * 8 + 4096


def test_complex_identities_exhaustive(cx4, cx9):
    assert cx4.complex_identity_residual(3) == 0
    assert cx9.complex_identity_residual(2) == 0


def test_face_matrix_products_cancel_exactly(cx9):
    # each face pair of d0 d0 and d1 d1 is one column vector, and each cancels
    # a pair of the opposite sign equal to it entry for entry
    for left, right in [(cx9.d0_matrix(0, 2), cx9.d0_matrix(0, 1)),
                        (cx9.d1_matrix(1, 1), cx9.d1_matrix(0, 1))]:
        pairs = _face_pairs(left, right)
        assert len(pairs) == len(left[1]) * len(right[1])
        assert all(v.shape == (left[0].shape[1],) for _, v in pairs)
        assert _uncancelled(pairs) == []
        assert len(_uncancelled(pairs[1:])) == 1


# d0 (3, 0) -> (3, 1) is read through total degree 2 only by d0 d1 + d1 d0.
@pytest.mark.parametrize("which,i,j", [("d0", 1, 1), ("d1", 1, 1), ("d0", 3, 0)])
def test_complex_identities_detect_a_corrupted_face(which, i, j, monkeypatch):
    cx = build_double_complex(c9_extension(), 3)
    # not row 0, the all-identity tuple, whose image under the next
    # differential cancels, but the column of the last face of the last row
    def corrupt(idx, cols):
        idx[-1, -1] = (idx[-1, -1] + 1) % cols

    if i + j <= 2:
        # a right operand: the cached matrix, which every later read shares
        corrupt(getattr(cx, f"{which}_matrix")(i, j)[0], cx.dim(i, j))
    else:
        # a left operand only, built in row blocks at each use and never
        # cached: corrupt the block that holds the last row
        build, hit = BarDoubleComplex._face_matrix, []
        last = cx.dim(*cx._target_axes(which, i, j)[:2]) - 1

        def corrupted(self, name, a, b, rows=None):
            m = build(self, name, a, b, rows)
            if (name, a, b) == (which, i, j) and rows is not None and last in rows:
                corrupt(m[0], cx.dim(i, j))
                hit.append(rows)
            return m

        monkeypatch.setattr(BarDoubleComplex, "_face_matrix", corrupted)
    assert cx.complex_identity_residual(2) != 0
    if i + j > 2:
        assert len(hit) == 1 and hit[0].start > 0
        assert (which, i, j) not in cx._dmat


@pytest.mark.parametrize("fixture", ["cx4", "cx9"])
def test_face_matrix_blocks_stack_to_the_full_matrix(fixture, request):
    # the row blocks of the d^2 check, and blocks cut finer and coarser than
    # it cuts them, are the full matrix's rows, entry for entry
    cx = request.getfixturevalue(fixture)
    for total in range(4):
        for i in range(total + 1):
            j = total - i
            for name in ("d0", "d1"):
                full, signs = cx._face_matrix(name, i, j)
                sizes = cx._target_axes(name, i, j)[2]
                for step in sorted({1, 5, cx.dim(i, j), full.shape[1]}):
                    ranges = list(_row_ranges(sizes, step))
                    assert all(0 < len(r) <= step for r in ranges)
                    assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
                    blocks = [cx._face_matrix(name, i, j, r) for r in ranges]
                    for (b, s), r in zip(blocks, ranges):
                        assert (b.shape, b.dtype) == ((len(signs), len(r)), np.int32)
                        assert np.array_equal(s, signs), (name, i, j, step)
                    m = np.concatenate([b for b, _ in blocks], axis=1)
                    assert np.array_equal(m, full), (name, i, j, step)


def test_complex_identities_exact_past_int8():
    # all faces of row 0 (the all-identity tuple) hit column 0, in d0 out of
    # (0, 3) and in d0 out of (0, 2), so row 0 of their composite sums every
    # face pair at column 0: the signs of d0(0, 2) then add up to 0, and with
    # face 0's sign made 257 to 256 = 1 mod 3.  A face pair's sign or a row's
    # sum kept in int8 would wrap 257 back to 1 and the residual would read 0.
    cx = build_double_complex(c9_extension(), 3)
    idx, signs = cx.d0_matrix(0, 2)
    assert (idx[:, 0] == 0).all() and (cx._face_matrix("d0", 0, 3, range(1))[0] == 0).all()
    signs[0] += 256
    assert cx.complex_identity_residual(2) == 1


@pytest.mark.parametrize("spec,top", [(c4_extension, 2), (c9_extension, 1)])
def test_complex_identities_match_a_dense_referee(spec, top, monkeypatch):
    # one face index of d0 out of (1, 0), which the check reads both as a right
    # operand and in left blocks, corrupted alike in the full matrix and in
    # the block that holds its row; the referee multiplies dense matrices
    cx = build_double_complex(spec(), 3)
    build, p = BarDoubleComplex._face_matrix, cx.p
    row = cx.dim(1, 1) // 2 + 1

    def corrupted(self, name, a, b, rows=None):
        idx, signs = build(self, name, a, b, rows)
        r = row - (0 if rows is None else rows.start)
        if (name, a, b) == ("d0", 1, 0) and 0 <= r < idx.shape[1]:
            idx = idx.copy()
            idx[0, r] = (idx[0, r] + 1) % cx.dim(1, 0)
        return idx, signs

    monkeypatch.setattr(BarDoubleComplex, "_face_matrix", corrupted)

    def dense(name, i, j):
        idx, signs = cx._face_matrix(name, i, j)
        a = np.zeros((idx.shape[1], cx.dim(i, j)), dtype=np.int64)
        for k, s in enumerate(signs):
            a[np.arange(idx.shape[1]), idx[k]] += s  # no row repeats a column within one face
        return a

    worst = 0
    for i in range(top + 1):
        for j in range(top + 1 - i):
            for m in (dense("d0", i, j + 1) @ dense("d0", i, j),
                      dense("d1", i + 1, j) @ dense("d1", i, j),
                      dense("d0", i + 1, j) @ dense("d1", i, j)
                      + dense("d1", i, j + 1) @ dense("d0", i, j)):
                r = m % p
                worst = max(worst, int(np.minimum(r, p - r).max()))
    assert worst == 1
    assert cx.complex_identity_residual(top) == worst


@pytest.mark.slow
def test_complex_identities_extraspecial_27():
    cx = build_double_complex(extraspecial27_extension(), 3)
    tracemalloc.start()
    assert cx.complex_identity_residual(2) == 0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the left operands out of total degree 3 (d0 out of (0, 3) alone would
    # be 96 MB) are built in blocks and dropped; only the right operands stay
    assert peak <= 64 * 2**20
    assert all(i + j < 3 for _, i, j in cx._dmat)


def test_unit_cochain_is_identity(cx9):
    rng = np.random.RandomState(3)
    one = cx9.unit()
    for i, j in [(0, 0), (1, 1), (2, 0), (0, 2)]:
        phi = cx9.random_cochain(rng, i, j)
        assert (cx9.product(phi, one, "cup") - phi).is_zero()
        assert (cx9.product(one, phi, "cup") - phi).is_zero()


def test_cup_associative_random(cx4):
    rng = np.random.RandomState(4)
    done = 0
    while done < 50:
        degs = [(rng.randint(0, 2), rng.randint(0, 3)) for _ in range(3)]
        if sum(i + j for i, j in degs) > 3:
            continue
        done += 1
        a, b, c = (cx4.random_cochain(rng, i, j) for i, j in degs)
        lhs = cx4.product(cx4.product(a, b, "cup"), c, "cup")
        rhs = cx4.product(a, cx4.product(b, c, "cup"), "cup")
        assert (lhs - rhs).is_zero()


def test_twist_product_identity(cx9):
    rng = np.random.RandomState(5)
    for phi, theta in random_pairs(cx9, rng, 30):
        assert twist_residual(cx9, phi, theta) == 0


def test_differentials_are_derivations(cx9):
    rng = np.random.RandomState(6)
    for phi, theta in random_pairs(cx9, rng, 30):
        assert derivation_residual(cx9, phi, theta) == 0


def test_out_of_bounds_product_rejected(cx4):
    rng = np.random.RandomState(7)
    a = cx4.random_cochain(rng, 2, 1)
    b = cx4.random_cochain(rng, 2, 2)
    with pytest.raises(GroupError):
        cx4.product(a, b, "cup")
    with pytest.raises(GroupError):
        cx4.product(a, b, "nope")


def test_cup1_products_refuse_a_negative_bidegree(cx4):
    rng = np.random.RandomState(8)
    a, b = cx4.random_cochain(rng, 0, 1), cx4.random_cochain(rng, 0, 2)
    with pytest.raises(GroupError, match="negative bidegree"):
        cx4.product(a, b, "cup10")
    a, b = cx4.random_cochain(rng, 1, 0), cx4.random_cochain(rng, 2, 0)
    with pytest.raises(GroupError, match="negative bidegree"):
        cx4.product(a, b, "cup01")


# sha256 over every product's values, in the order of the loops below
PRODUCT_DIGEST = "e1535799791846bffc67e5dd9968f0f9ede901d88d9fc8492eaddb544fa48f45"


def test_product_values_are_pinned(cx4, cx9):
    h = hashlib.sha256()
    for cx, seed in ((cx4, 0), (cx9, 1)):
        rng = np.random.RandomState(seed)
        for i1, j1, i2, j2 in itertools.product(range(4), repeat=4):
            if i1 + j1 + i2 + j2 > 3:
                continue
            a, b = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
            for kind in ("cup", "wedge", "cup10", "cup01", "twist"):
                if (kind == "cup10" and i1 + i2 == 0) or (kind == "cup01" and j1 + j2 == 0):
                    continue
                h.update(cx.product(a, b, kind).values.astype(np.int64).tobytes())
    assert h.hexdigest() == PRODUCT_DIGEST


# the module docstring's table: the split of each kind on the P and Q sides
SPLITS = {"cup": ("ab", "ab"), "wedge": ("ba", "ab"), "twist": ("ba", "ba"),
          "cup10": ("cup1", "ab"), "cup01": ("ba", "cup1")}


def split_terms(split, d, m, n, grp):
    """(a's digits, b's digits, anchor, exponent, the factor reading the
    relative piece) of each term of one side's split of the digits d."""
    t, d = len(d), (grp.identity, *d)  # d[0] is the identity
    rel = lambda x, ds: tuple(int(grp.mul[grp.inv[x], y]) for y in ds)
    if split == "ab":
        return [(d[1:m + 1], rel(d[m], d[m + 1:]), d[m], 0, "b")]
    if split == "ba":
        return [(rel(d[n], d[n + 1:]), d[1:n + 1], d[n], m * n, "a")]
    out = []
    for k in range(m if n else 0):  # cup1
        c = k + n
        out.append((d[1:k + 1] + d[c:], rel(d[k], d[k + 1:c + 1]), d[k],
                    t + (t - k - 1) * (c - k - 1), "b"))
    return out


def tuple_product(cx, a, b, kind, g, s, e):
    """The product's value at the target tuple (g, s, e), term by term."""
    G, p_split, q_split = cx.G, *SPLITS[kind]
    total = 0
    for pa, pb, s_anchor, p_exp, p_rel in split_terms(p_split, s, a.i, b.i, G):
        for qa, qb, e_anchor, q_exp, q_rel in split_terms(q_split, e, a.j, b.j, cx.E):
            x = {"a": g, "b": g}
            x[p_rel] = G.mul[x[p_rel], s_anchor]
            x[q_rel] = G.mul[G.inv[cx.pi[e_anchor]], x[q_rel]]
            sign = (-1) ** (p_exp + q_exp + b.i * a.j + len(s) * (q_split == "cup1"))
            total += (sign * int(a.values[cx.index(x["a"], pa, qa)])
                      * int(b.values[cx.index(x["b"], pb, qb)]))
    return total % cx.p


def product_cases(cx, rng, max_total=3):
    """(a, b, kind) for a random pair in each pair of bidegrees through
    `max_total` and each kind that lands in a bidegree."""
    for i1, j1, i2, j2 in itertools.product(range(max_total + 1), repeat=4):
        if i1 + j1 + i2 + j2 <= max_total:
            a, b = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
            for kind in SPLITS:
                if (kind != "cup10" or i1 + i2) and (kind != "cup01" or j1 + j2):
                    yield a, b, kind


@pytest.mark.parametrize("fixture", ["cx4", "cx9", "cx27"])
def test_products_match_the_tuple_definition(fixture, request):
    # every target row through total degree 3 on the cyclic complexes, and
    # 30 sampled rows per case on the order-27 complex, whose E is non-abelian
    cx = request.getfixturevalue(fixture) if fixture != "cx27" else (
        build_double_complex(extraspecial27_extension(), 3))
    rng = np.random.RandomState(11)
    for a, b, kind in product_cases(cx, rng):
        c = cx.product(a, b, kind)
        sizes = (cx.ng,) * (c.i + 1) + (cx.ne,) * c.j
        rows = range(len(c.values)) if fixture != "cx27" else rng.randint(len(c.values), size=30)
        for r in rows:
            g, *digits = np.unravel_index(r, sizes)
            s, e = tuple(digits[:c.i]), tuple(digits[c.i:])
            want = tuple_product(cx, a, b, kind, g, s, e)
            assert c.values[r] == want, (kind, a.i, a.j, b.i, b.j, r)


def test_product_plans_and_memory():
    cx = build_double_complex(extraspecial27_extension(), 3)
    rng = np.random.RandomState(3)
    # a cup1 pass: the coboundary formulas on a pair in each pair of
    # bidegrees through total degree 2 (products land through degree 3)
    for i1, j1, i2, j2 in itertools.product(range(3), repeat=4):
        if i1 + j1 + i2 + j2 <= 2:
            phi, theta = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
            assert all(r is None or r.is_zero() for _, r in check_lemma1(cx, phi, theta))
    nbytes = 0
    for _, _, shape, plan in cx._plans.values():
        for t in (t for _, *terms in plan for factor in terms for t in factor):
            # a table on at most three of the target's digit axes, broadcast over the rest
            assert t.ndim == len(shape) and all(n in (1, size) for n, size in zip(t.shape, shape))
            assert sum(n > 1 for n in t.shape) <= 3
            nbytes += t.nbytes
    assert len(cx._plans) > 50 and nbytes < 2**20
    a, b = cx.random_cochain(rng, 0, 1), cx.random_cochain(rng, 0, 2)
    cx.product(a, b, "cup")
    tracemalloc.start()
    out = cx.product(a, b, "cup")  # 177,147 rows
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the output and one index vector per factor, into which its values are
    # gathered, beside the one ufunc buffer of numpy's broadcasting add
    assert peak <= 3 * out.values.nbytes + np.getbufsize() * 8 + 4096
    assert not cx._digits


# -- coboundary formulas ---------------------------------------------------


def test_lemma1_unit_pair(cx4):
    one = cx4.unit()
    for name, r in check_lemma1(cx4, one, one):
        assert r is None or r.is_zero(), name


@pytest.mark.parametrize("fixture,pairs,seed", [("cx4", 100, 0), ("cx9", 60, 1)])
def test_lemma1_random_pairs(fixture, pairs, seed, request):
    cx = request.getfixturevalue(fixture)
    rng = np.random.RandomState(seed)
    for phi, theta in random_pairs(cx, rng, pairs):
        for name, r in check_lemma1(cx, phi, theta):
            assert r is None or r.max_residual() == 0, (name, phi.i, phi.j)


@pytest.mark.slow
def test_lemma1_extraspecial_27():
    cx = build_double_complex(extraspecial27_extension(), 3)
    rng = np.random.RandomState(2)
    cases = [((0, 1), (1, 1)), ((1, 0), (0, 2)), ((1, 1), (1, 0)), ((0, 2), (0, 1))]
    for (i1, j1), (i2, j2) in cases:
        phi, theta = cx.random_cochain(rng, i1, j1), cx.random_cochain(rng, i2, j2)
        for name, r in check_lemma1(cx, phi, theta):
            assert r is None or r.max_residual() == 0, name


# -- the ladder -------------------------------------------------------------


@pytest.fixture(scope="module")
def ladder4(cx4):
    return build_ladder(cx4)


@pytest.fixture(scope="module")
def ladder9(cx9):
    return build_ladder(cx9)


def test_ladder_invariants(ladder4, ladder9):
    assert max(ladder4.residuals().values()) == 0
    assert max(ladder9.residuals().values()) == 0


def test_ladder_split_case():
    cx = build_double_complex(split_extension(), 3)
    ladder = build_ladder(cx)
    assert max(ladder.residuals().values()) == 0
    report = row_zero_class_report(cx, ladder)
    assert report["xi_class_matches"]  # the zero class


def test_xi_class_identification(cx4, ladder4, cx9, ladder9):
    for cx, ladder in [(cx4, ladder4), (cx9, ladder9)]:
        report = row_zero_class_report(cx, ladder)
        assert report["xi_class_matches"]
        assert report["xi_prime_is_unit_multiple_of_bockstein"]


def test_xi_prime_nonzero_when_bockstein_nonzero():
    # kernel C_3, quotient C_3 + C_3, xi = y1 y2 has beta(xi) != 0
    q = AbelianPGroupSpec(3, (1, 1))
    spec = ExtensionSpec(
        p=3, kernel_m=1, quotient=q, xi=cup(CohoClass.y(q, 0), CohoClass.y(q, 1))
    )
    cx = build_double_complex(spec, 2)
    # the full ladder needs bound 3, too large here; check the xi class only
    with pytest.raises(GroupError):
        build_ladder(cx)


def test_ladder_dense_solve_cap():
    # every cochain through degree 3 (at most 2,187 entries) and every face
    # matrix the ladder reads (at most 2,916) fits; the dense u solve,
    # 246 x 27, does not
    cx = build_double_complex(c9_extension(), 3, budget=3000)
    with pytest.raises(BudgetExceeded, match="dense u solve"):
        build_ladder(cx)


@pytest.mark.parametrize("n", [1, 2])
def test_eta_recursion(ladder4, ladder9, n):
    for ladder in (ladder4, ladder9):
        etas, residuals = build_eta_family(ladder, n)
        assert max(residuals.values()) == 0
        if n == 1:
            assert etas[(3, 1)] is None and etas[(4, 1)] is None


def test_eta_bidegrees(ladder9):
    etas, _ = build_eta_family(ladder9, 2)
    for idx in (1, 2, 3, 4):
        c = etas[(idx, 2)]
        assert (c.i, c.j) == (idx, 4 - idx)
