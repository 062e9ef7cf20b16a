import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from lhsseq.cohomology import CohoClass, RingContext, cup
from lhsseq.extensions import ExtensionSpec
from lhsseq.groups import AbelianPGroupSpec, GroupError
from lhsseq.fplinalg import BudgetExceeded, mul_mod, rank
from lhsseq.verifier import (
    BarDoubleComplex,
    _box,
    _row_ranges,
    _row_cohomology_subquotient,
    _uncancelled,
    bar_differential_matrix,
    build_double_complex,
    build_eta_family,
    build_ladder,
    check_lemma1,
    derivation_residual,
    monomial_bar_cochain,
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
    # and so does the d0 image in (0, 2) (243 entries); the one in (0, 3)
    # (2,187 entries) and a product landing there do not
    cx = build_double_complex(c9_extension(), 2, budget=1000)
    rng = np.random.RandomState(0)
    a, b = cx.random_cochain(rng, 0, 1), cx.random_cochain(rng, 0, 2)
    cx.d0(a)
    with pytest.raises(BudgetExceeded, match=r"d0 image of a cochain in \(0, 2\) needs 2,187"):
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
    idx, signs = cx.d0_matrix(0, 3)  # 4.78M rows x 5 faces, 96 MB, built on request only
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (idx.dtype, idx.shape) == (np.int32, (5, cx.dim(0, 4)))
    assert signs.tolist() == [1, -1, 1, -1, 1]
    assert peak <= 1.05 * idx.nbytes
    c = cx.random_cochain(np.random.RandomState(0), 0, 3)
    tracemalloc.start()
    out = cx.d0(c)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the output plus the temporaries of face 0 at one value of its dropped
    # digit: as many entries as c has, in two words of 8 bytes (a gather and
    # the next one, along another axis), and a few small arrays
    assert peak <= out.values.nbytes + cx.dim(0, 3) * 2 * 8 + 4096


def face_matrix_image(cx, name, c):
    """d0 or d1 of the cochain c as its face matrix times c.values, summed by np.add.at."""
    idx, signs = cx._face_matrix(name, c.i, c.j)
    out = np.zeros(idx.shape[1], dtype=np.int64)
    for k, s in enumerate(signs):
        np.add.at(out, np.arange(idx.shape[1]), s * c.values[idx[k]])
    return out % cx.p


@pytest.mark.parametrize("fixture", ["cx4", "cx9"])
def test_differentials_match_the_face_matrices(fixture, request):
    cx = request.getfixturevalue(fixture)
    rng = np.random.RandomState(12)
    for total in range(4):
        for i in range(total + 1):
            c = cx.random_cochain(rng, i, total - i)
            for name in ("d0", "d1"):
                d = getattr(cx, name)(c)
                assert (d.i, d.j) == cx._target_axes(name, c.i, c.j)[:2]
                assert np.array_equal(d.values, face_matrix_image(cx, name, c)), (name, c.i, c.j)


@pytest.mark.slow
def test_differentials_match_the_face_matrices_extraspecial_27():
    cx = build_double_complex(extraspecial27_extension(), 3)
    rng = np.random.RandomState(13)
    for i, j in [(0, 3), (1, 2)]:
        c = cx.random_cochain(rng, i, j)
        for name in ("d0", "d1"):
            want = face_matrix_image(cx, name, c)
            assert np.array_equal(getattr(cx, name)(c).values, want), (name, i, j)
        cx._dmat.clear()  # one bidegree's referees at a time: d0 out of (0, 3) is 96 MB


def test_complex_identities_exhaustive(cx4, cx9):
    assert cx4.complex_identity_residual(3) == 0
    assert cx9.complex_identity_residual(2) == 0


def test_face_matrix_products_cancel_exactly(cx9):
    # each face pair of d0 d0 and d1 d1 is one column vector, the product of
    # the two face matrices' rows, and each cancels a pair of the opposite sign
    # equal to it entry for entry
    for left, right in [(("d0", 0, 2), cx9.d0_matrix(0, 1)), (("d1", 1, 1), cx9.d1_matrix(0, 1))]:
        (a, sa), (b, sb) = cx9._face_matrix(*left), right
        out = np.empty((len(sa) * len(sb), a.shape[1]), dtype=np.int32)
        box = _box(cx9._target_axes(*left)[2], range(a.shape[1]))
        pairs = cx9._face_pairs(left, right, box, out)
        assert len(pairs) == len(sa) * len(sb)
        want = [(sa[ka] * sb[kb], b[kb][a[ka]]) for kb in range(len(sb)) for ka in range(len(sa))]
        assert all(s == t and np.array_equal(v, w) for (s, v), (t, w) in zip(pairs, want))
        assert _uncancelled(pairs) == []
        assert len(_uncancelled(pairs[1:])) == 1


def misread_column(monkeypatch, key, face, row):
    """Make face `face` of target row `row` of d0 or d1 out of key = (name, i, j)
    read the source column after its own, wherever `_faces` applies it: in the
    face matrix, on a cochain and on a right operand's columns in the d^2
    check.  Returns the row boxes where it did."""
    faces, hits = BarDoubleComplex._faces, []

    def misread(self, name, i, j, src, box):
        ti, _, sizes = self._target_axes(name, i, j)
        digits = np.unravel_index(row, sizes) if (name, i, j) == key else ()
        if not digits or not all(b.start <= d < b.stop for d, b in zip(digits, box)):
            yield from faces(self, name, i, j, src, box)
            return
        values = np.empty([b.stop - b.start for b in box], dtype=src.dtype)
        for k, at, v in faces(self, name, i, j, src, box):
            if k == face:
                values[at] = v
            else:
                yield k, at, v
        g, s, e = digits[0], digits[1:ti + 1], digits[ti + 1:]
        col, _ = tuple_faces(self, name, i, j, g, s, e)[face]
        values[tuple(d - b.start for d, b in zip(digits, box))] = src.flat[(col + 1) % src.size]
        hits.append(box)
        yield face, (), values

    monkeypatch.setattr(BarDoubleComplex, "_faces", misread)
    return hits


# d0 (3, 0) -> (3, 1) is read through total degree 2 only by d0 d1 + d1 d0.
@pytest.mark.parametrize("which,i,j", [("d0", 1, 1), ("d1", 1, 1), ("d0", 3, 0)])
def test_complex_identities_detect_a_corrupted_face(which, i, j, monkeypatch):
    cx = build_double_complex(c9_extension(), 3)
    # not row 0, the all-identity tuple, whose image under the next
    # differential cancels, but the last face of the last row
    ti, tj, sizes = cx._target_axes(which, i, j)
    hits = misread_column(monkeypatch, (which, i, j), len(cx._signs(which, i, j)) - 1,
                          cx.dim(ti, tj) - 1)
    assert cx.complex_identity_residual(2) != 0
    if i + j > 2:
        # a left operand only, never cached, applied to each right face's
        # columns in the one row block that holds the last row
        assert hits and all(box == hits[0] for box in hits)
        assert hits[0] != _box(sizes, range(cx.dim(ti, tj)))
        assert (which, i, j) not in cx._dmat


@pytest.mark.parametrize("fixture", ["cx4", "cx9"])
def test_face_matrix_blocks_stack_to_the_full_matrix(fixture, request):
    # the faces of the column numbers on the row blocks of the d^2 check, and
    # on blocks cut finer and coarser than it cuts them, are the full matrix's
    # rows, entry for entry
    cx = request.getfixturevalue(fixture)
    for total in range(4):
        for i in range(total + 1):
            j = total - i
            for name in ("d0", "d1"):
                full, signs = cx._face_matrix(name, i, j)
                sizes = cx._target_axes(name, i, j)[2]
                cols = np.arange(cx.dim(i, j), dtype=np.int32).reshape(cx._axes(i, j))
                for step in sorted({1, 5, cx.dim(i, j), full.shape[1]}):
                    ranges = list(_row_ranges(sizes, step))
                    assert all(0 < len(r) <= step for r in ranges)
                    assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
                    blocks = []
                    for r in ranges:
                        box = _box(sizes, r)
                        b = np.empty((len(signs), len(r)), dtype=np.int32)
                        for k, at, v in cx._faces(name, i, j, cols, box):
                            b[k].reshape([s.stop - s.start for s in box])[at] = v
                        blocks.append(b)
                    m = np.concatenate(blocks, axis=1)
                    assert np.array_equal(m, full), (name, i, j, step)


def test_complex_identities_exact_past_int8():
    # all faces of row 0 (the all-identity tuple) hit column 0, in d0 out of
    # (0, 3) and in d0 out of (0, 2), so row 0 of their composite sums every
    # face pair at column 0: the signs of d0(0, 2) then add up to 0, and with
    # face 0's sign made 257 to 256 = 1 mod 3.  A face pair's sign or a row's
    # sum kept in int8 would wrap 257 back to 1 and the residual would read 0.
    cx = build_double_complex(c9_extension(), 3)
    idx, signs = cx.d0_matrix(0, 2)
    assert (idx[:, 0] == 0).all() and (cx.d0_matrix(0, 3)[0][:, 0] == 0).all()
    signs[0] += 256
    assert cx.complex_identity_residual(2) == 1


@pytest.mark.parametrize("spec,top", [(c4_extension, 2), (c9_extension, 1)])
def test_complex_identities_match_a_dense_referee(spec, top, monkeypatch):
    # one face column of d0 out of (1, 0), which the check reads both as a
    # right operand and as a left one, misread alike in its face matrix and on
    # the right operands' columns; the referee multiplies dense face matrices
    cx = build_double_complex(spec(), 3)
    misread_column(monkeypatch, ("d0", 1, 0), 0, cx.dim(1, 1) // 2 + 1)
    p = cx.p

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
    # no left operand out of total degree 3 is built (d0 out of (0, 3) alone
    # would be 96 MB): the peak is the one buffer of d0 d0 out of (0, 2), 20
    # face pairs x 177,147 rows of int32 (13.5 MB), beside the right operands
    # (4.4 MB); 18.2 MB measured
    assert peak <= 20 * 2**20
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
def test_lemma1_top_degree_builds_no_face_matrix():
    # d0 of a (0, 3) cochain is verify's largest array, the (0, 4) image of
    # 4.78M entries; d0 and d1 of cochains sum faces and cache no face matrix
    cx = build_double_complex(extraspecial27_extension(), 3)
    rng = np.random.RandomState(4)
    phi, theta = cx.random_cochain(rng, 0, 3), cx.random_cochain(rng, 0, 0)
    tracemalloc.start()
    results = check_lemma1(cx, phi, theta)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert all(r is None or r.is_zero() for _, r in results)
    assert not cx._dmat
    # the image, beside at most six arrays in (0, 3) at once (a product read
    # out of it, with its two index vectors, and the residual's sums), and
    # 1 MB of smaller arrays; 43.3-45.4 MB measured
    assert peak <= (cx.dim(0, 4) + 6 * cx.dim(0, 3)) * 8 + 2**20


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


def test_monomial_cochains_represent_a_basis_of_the_quotient_cohomology():
    # cup products of the standard y_i and x_i cochains, one per basis
    # monomial of H^d(C_3 + C_3), are bar cocycles with independent classes
    q = AbelianPGroupSpec(3, (1, 1))
    cx = build_double_complex(extraspecial27_extension(), 1)
    for d in (1, 2, 3):
        basis = RingContext(q).basis(d)
        w = np.array([monomial_bar_cochain(cx, CohoClass(q, {mon: 1}), d) for mon in basis])
        assert not mul_mod(bar_differential_matrix(cx, d), w.T, 3).any()
        sq = _row_cohomology_subquotient(cx, d)
        assert sq.dim == len(basis) and rank(sq.reduce(w), 3) == len(basis)


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
