import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from lhsseq.cohomology import CohoClass, cup
from lhsseq.extensions import ExtensionSpec
from lhsseq.groups import AbelianPGroupSpec, GroupError
from lhsseq.fplinalg import BudgetExceeded
from lhsseq.verifier import (
    BarDoubleComplex,
    _row_ranges,
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
                m = getattr(cx, f"{name}_matrix")(i, j)
                faces = m.indptr[1]
                assert m.shape == (cx.dim(ti, tj), cx.dim(i, j))
                assert (m.indptr == np.arange(m.shape[0] + 1) * faces).all()
                for g, s, e in itertools.product(
                    range(cx.ng),
                    itertools.product(range(cx.ng), repeat=ti),
                    itertools.product(range(cx.ne), repeat=tj),
                ):
                    r = cx.index(g, s, e)
                    got = list(zip(m.indices[r * faces:(r + 1) * faces].tolist(),
                                   m.data[r * faces:(r + 1) * faces].tolist()))
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
    m = cx.d0_matrix(0, 3)  # 4.78M rows x 5 faces
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert (m.data.dtype, m.indices.dtype, m.indptr.dtype) == (np.int8, np.int32, np.int32)
    assert peak <= 1.25 * nbytes
    assert not cx._digits
    c = cx.random_cochain(np.random.RandomState(0), 0, 3)
    tracemalloc.start()
    out = cx.d0(c)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the output plus one block: as many rows as m has columns, each with at
    # most faces + 2 words of 8 bytes (its upcast data, its image, its offset)
    assert peak <= out.values.nbytes + m.shape[1] * (m.indptr[1] + 2) * 8


def test_complex_identities_exhaustive(cx4, cx9):
    assert cx4.complex_identity_residual(3) == 0
    assert cx9.complex_identity_residual(2) == 0


def test_face_matrix_products_cancel_exactly(cx9):
    # +-1 faces stay integers, so the entries of d^2 cancel and none is stored
    assert (cx9.d0_matrix(0, 2) @ cx9.d0_matrix(0, 1)).nnz == 0
    assert (cx9.d1_matrix(1, 1) @ cx9.d1_matrix(0, 1)).nnz == 0


# d0 (3, 0) -> (3, 1) is read through total degree 2 only by d0 d1 + d1 d0.
@pytest.mark.parametrize("which,i,j", [("d0", 1, 1), ("d1", 1, 1), ("d0", 3, 0)])
def test_complex_identities_detect_a_corrupted_face(which, i, j, monkeypatch):
    cx = build_double_complex(c9_extension(), 3)
    # not row 0, the all-identity tuple, whose image under the next
    # differential cancels, but the last face of the last row
    if i + j <= 2:
        # a right operand: the cached matrix, which every later read shares
        getattr(cx, f"{which}_matrix")(i, j).data[-1] += 1
    else:
        # a left operand only, built in row blocks at each use and never
        # cached: corrupt the block that holds the last row
        build, hit = BarDoubleComplex._face_matrix, []
        last = cx.dim(*cx._target_axes(which, i, j)[:2]) - 1

        def corrupted(self, name, a, b, rows=None):
            m = build(self, name, a, b, rows)
            if (name, a, b) == (which, i, j) and rows is not None and last in rows:
                m.data[-1] += 1
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
                full = cx._face_matrix(name, i, j)
                sizes = cx._target_axes(name, i, j)[2]
                for step in sorted({1, 5, cx.dim(i, j), full.shape[0]}):
                    ranges = list(_row_ranges(sizes, step))
                    assert all(0 < len(r) <= step for r in ranges)
                    assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
                    blocks = [cx._face_matrix(name, i, j, r) for r in ranges]
                    for b, r in zip(blocks, ranges):
                        assert b.shape == (len(r), full.shape[1])
                        assert (b.data.dtype, b.indices.dtype) == (np.int8, np.int32)
                    m = sp.vstack(blocks, format="csr")
                    assert m.shape == full.shape
                    for part in ("indices", "indptr", "data"):
                        assert np.array_equal(getattr(m, part), getattr(full, part)), (
                            name, i, j, step, part)


def test_complex_identities_exact_past_int8():
    # all faces of row 0 (the all-identity tuple) hit column 0, so its signs
    # summing to 130 make entry (0, 0) of d0(0, 2) d0(0, 1) 130 = 1 mod 3; in
    # int8 it would wrap to -126 = 0 mod 3 and the residual would read 0
    cx = build_double_complex(c9_extension(), 3)
    m = cx.d0_matrix(0, 2)
    assert (m.indices[:4] == 0).all()
    m.data[:4] = [127, 1, 1, 1]
    assert cx.complex_identity_residual(2) == 1


@pytest.mark.slow
def test_complex_identities_extraspecial_27():
    cx = build_double_complex(extraspecial27_extension(), 3)
    tracemalloc.start()
    assert cx.complex_identity_residual(2) == 0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # the left operands out of total degree 3 (d0 out of (0, 3) alone would
    # be 139 MB) are built in blocks and dropped; only the right operands stay
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
