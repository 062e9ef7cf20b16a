import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lhsseq import oracle as oracle_module
from lhsseq.cohomology import CohoClass, cup
from lhsseq.engine import expand_rational, poly_mul, run
from lhsseq.extensions import ExtensionSpec, build_extension_group
from lhsseq.fplinalg import DEFAULT_BUDGET, BudgetExceeded, LinAlgError
from lhsseq.groups import AbelianPGroupSpec, FiniteGroupTable, GroupError, cyclic_group
from lhsseq.oracle import (
    _HomDoubleComplex,
    cohomology_dims,
    double_complex_ss,
    euler_telescope,
    filtration_pages,
    minimal_resolution,
)
from lhsseq.parsing import parse_extension_spec
from lhsseq.resolutions import Resolution

C3C3 = AbelianPGroupSpec(3, (1, 1))
ROOT = Path(__file__).resolve().parents[1]
RANK3 = '{p: 3, kernel_m: 1, quotient: [1, 1, 1], xi: "y1*y2 + x3"}'


def ext_spec(xi_text_cls):
    return ExtensionSpec(p=3, kernel_m=1, quotient=C3C3, xi=xi_text_cls)


def y1y2():
    return cup(CohoClass.y(C3C3, 0), CohoClass.y(C3C3, 1))


def test_cyclic_minimal_resolution_is_periodic():
    data = minimal_resolution(cyclic_group(3), 5)
    assert data.ranks == [1] * 6
    assert data.is_minimal()
    # d alternates g-1 and the norm (up to the choice of representative)
    e1 = data.entry(1, 0, 0)
    assert sorted(np.nonzero(e1)[0].tolist()) != [] and e1.sum() % 3 == 0
    e2 = data.entry(2, 0, 0)
    assert (e2 == e2[0]).all() and e2[0] != 0  # a multiple of the norm


def test_minimal_resolution_kunneth_rank_two():
    g = C3C3.group_table()
    data = minimal_resolution(g, 5)
    assert data.ranks == [1, 2, 3, 4, 5, 6]


def test_trivial_group_dims():
    triv = FiniteGroupTable(np.zeros((1, 1), dtype=int))
    assert cohomology_dims(triv, 4, p=3) == [1, 0, 0, 0, 0]


def test_c9_x_c3_dims_linear():
    g = AbelianPGroupSpec(3, (2, 1)).group_table()
    assert cohomology_dims(g, 6) == [n + 1 for n in range(7)]


def test_non_p_group_rejected():
    with pytest.raises(GroupError):
        minimal_resolution(cyclic_group(6), 3, p=3)


def test_prime_inferred_from_the_order():
    # 17 is past any short list of candidate primes
    assert cohomology_dims(cyclic_group(17), 2) == [1, 1, 1]


def test_ranks_invariant_under_relabelling():
    spec = ext_spec(y1y2())
    e = build_extension_group(spec)
    base = cohomology_dims(e, 5)
    rng = np.random.RandomState(7)
    perm = rng.permutation(e.order)
    inv = np.argsort(perm)
    shuffled = FiniteGroupTable(perm[e.mul[inv][:, inv]])
    assert cohomology_dims(shuffled, 5) == base


def test_extraspecial_dims_match_series():
    spec = ext_spec(y1y2())
    e = build_extension_group(spec)
    want = expand_rational([1, 1, 2, 2, 1, 1], poly_mul([1, 0, 0, 0, 0, 0, -1], [1, -1]), 6)
    assert cohomology_dims(e, 6) == want == [1, 2, 4, 6, 7, 8, 9]


def test_metacyclic_dims_regression():
    # frozen after the first oracle computation; equals the series
    # (1+s)/((1-s)(1-s^6)) degreewise
    spec = ext_spec(CohoClass.x(C3C3, 0) + y1y2())
    e = build_extension_group(spec)
    assert cohomology_dims(e, 8) == [1, 2, 2, 2, 2, 2, 3, 4, 4]


# -- the double complex page oracle ---------------------------------------


def test_split_case_collapses():
    spec = ext_spec(CohoClass.zero(C3C3))
    oracle = double_complex_ss(spec, 5, r_max=4)
    for r in (2, 3, 4):
        for (i, j), d in oracle.tables[r].items():
            assert d == i + 1
    assert oracle.tables[2] == oracle.tables[4]


def test_oracle_e2_rows_match_engine_init():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=2)
    for (i, j), d in oracle.tables[2].items():
        assert d == i + 1


def test_oracle_matches_engine_small_degree():
    from lhsseq.parsing import parse_overrides

    spec = ext_spec(y1y2())
    ov = parse_overrides(
        "d5 | t^2*x1*y2 - t^2*x2*y1 | x1^3*x2 - x2^3*x1 | Kudo\n"
        "d5 | t^2*u*y1*y2 | u*x1^3*y2 - u*x2^3*y1 | Bockstein",
        spec,
    )
    deg = 5
    oracle = double_complex_ss(spec, deg, r_max=7)
    engine = run(spec, 13, overrides=ov)
    for r in range(2, 8):
        etab = {
            k: v for k, v in engine["pages"][r].dims_table().items() if sum(k) <= deg
        }
        otab = {k: v for k, v in oracle.tables[r].items() if sum(k) <= deg}
        assert etab == otab, r


def test_euler_telescope_nonnegative():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=7)
    for kills in euler_telescope(oracle, 4):
        assert all(k >= 0 for k in kills)


def test_einf_totals_equal_group_cohomology_small():
    spec = ext_spec(y1y2())
    oracle = double_complex_ss(spec, 5, r_max=7)
    e = build_extension_group(spec)
    assert oracle.total_dims(7, 5) == cohomology_dims(e, 5) == oracle.cohomology_dims
    assert oracle.group_order == e.order


def _digest(res) -> str:
    h = hashlib.sha256()
    for d in res.differentials:
        d = np.ascontiguousarray(d, dtype=np.int64)
        h.update(repr(d.shape).encode())
        h.update(d.tobytes())
    return h.hexdigest()


# sha256 of (shape, int64 bytes) of every differential, as computed from
# all rows of each d_n with the kernel basis re-echelonized: the shortcuts
# (fewer rows, the kernel basis as its own echelon form) change no entry
RESOLUTION_DIGESTS = [
    ("extraspecial_27", 6, "284c95c92459d65eb3b3cce07bb259fdc30c90440e614a82ed3d6e4865dfaf63"),
    ("c3xc3", 5, "ca57bfe6fb3c619be14c5a47af076212c60c3fcc4aa64bdb28613670d75a6315"),
    ("rank3_order81", 4, "7385a930e1dc0604cdd70d896264271c2abad7f67f93fa4bd7694a81649adb63"),
]


def _digest_group(name):
    if name == "c3xc3":
        return C3C3.group_table()
    path = {"extraspecial_27": ROOT / "configs" / "extraspecial_27.cfg",
            "rank3_order81": ROOT / "perfbench" / "specs" / "rank3_order81.cfg"}[name]
    return build_extension_group(parse_extension_spec(path.read_text()))


@pytest.mark.parametrize("name, deg, want", RESOLUTION_DIGESTS,
                         ids=[name for name, _, _ in RESOLUTION_DIGESTS])
def test_minimal_resolution_differentials_are_pinned(name, deg, want):
    assert _digest(minimal_resolution(_digest_group(name), deg)) == want


def test_minimal_resolution_holds_generator_images_only():
    # d_n is kept as its generator images, rank(n-1)|E| x rank(n): the
    # resolution of extraspecial_27 to degree 9 holds 0.13 MB, where the
    # dense d_n took 3.39 MB
    g = _digest_group("extraspecial_27")
    tracemalloc.start()
    try:
        res = minimal_resolution(g, 9)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [d.shape for d in res.images] == [
        (res.rank(n - 1) * 27, res.rank(n)) for n in range(1, 10)]
    assert held < 200_000


def test_extraspecial_125_dims():
    # p = 5: the one resolution whose eliminations take the blocked panel path
    spec = parse_extension_spec((ROOT / "perfbench" / "specs" / "extraspecial_125.cfg").read_text())
    e = build_extension_group(spec)
    assert e.order == 125
    assert cohomology_dims(e, 5) == [1, 2, 4, 6, 7, 8]


def test_translates_outside_the_kernel_raise(monkeypatch):
    # one generator acts by a permutation that is not a module map: its
    # translates of a kernel leave it, and the check on every degree sees it
    g = C3C3.group_table()
    gen = oracle_module._generating_set(g)[0]
    real = oracle_module._act_matrix

    def skewed(group, h, n_blocks):
        perm = real(group, h, n_blocks)
        if h == gen:
            perm[[0, 1]] = perm[[1, 0]]
        return perm

    monkeypatch.setattr(oracle_module, "_act_matrix", skewed)
    with pytest.raises(LinAlgError, match="boundaries are not contained in the span"):
        minimal_resolution(g, 4)


def test_minimal_resolution_budget(monkeypatch):
    g = C3C3.group_table()
    # degree 1: two generators translate the 8-dim kernel of the
    # augmentation (2 x 8 x 9 = 144 entries); degree 2 translates the
    # 10-dim kernel of d_1 (2 x 10 x 18 = 360) and gathers the rows of d_1
    # at the 8 free columns (8 x 18 = 144).  The images of d_1 (9 x 2 = 18)
    # and d_2 (18 x 3 = 54) are bounded by the translates of their degree.
    with pytest.raises(BudgetExceeded, match="kernel of d_0 needs 144 entries"):
        minimal_resolution(g, 2, budget=143)
    assert minimal_resolution(g, 1, budget=144).ranks == [1, 2]
    seen = []
    real = oracle_module.check_budget

    def record(entries, budget, what):
        seen.append((what, entries))
        real(entries, budget, what)

    monkeypatch.setattr(oracle_module, "check_budget", record)
    res = minimal_resolution(g, 2)
    assert seen == [("the translates of the kernel of d_0", 144),
                    ("the translates of the kernel of d_1", 360),
                    ("the rows of d_1 at the free columns", 144)]
    assert [d.size for d in res.images] == [18, 54]


def test_double_complex_budget_before_any_rank_profile(monkeypatch):
    # the order-81 extension of C3^3 to degree 7 fits the default budget;
    # its largest array is the kernel translates of d_7 in the minimal
    # resolution of E (1,301,751 entries), refused before any rank profile
    def no_profile(*args):
        raise AssertionError("rank profile taken before the budget check")

    monkeypatch.setattr(oracle_module, "rank_profile", no_profile)
    spec = parse_extension_spec(RANK3)
    with pytest.raises(BudgetExceeded, match="kernel of d_7 needs 1,301,751 entries"):
        double_complex_ss(spec, 7, budget=1_301_750)


def test_contraction_arrays_are_budgeted(monkeypatch):
    # every array the contraction builds is checked before it is built:
    # one entry under the largest refuses it, the largest itself passes
    cx = _HomDoubleComplex(ext_spec(y1y2()), 6, DEFAULT_BUDGET)
    seen = []
    real = oracle_module.check_budget

    def record(entries, budget, what):
        seen.append((entries, what))
        real(entries, budget, what)

    monkeypatch.setattr(oracle_module, "check_budget", record)
    oracle_module._small_complex(cx, 5, DEFAULT_BUDGET)
    largest, what = max(seen)
    assert {w.split(" ")[1] for _, w in seen} >= {"base", "coordinate", "gathered",
                                                  "cochain", "total"}
    monkeypatch.setattr(oracle_module, "check_budget", real)
    with pytest.raises(BudgetExceeded, match=re.escape(f"{what} needs {largest:,} entries")):
        oracle_module._small_complex(cx, 5, largest - 1)
    oracle_module._small_complex(cx, 5, largest)


def test_pages_never_build_a_dense_differential(monkeypatch):
    # d1 acts through the generator images of d^P, so the pages need no
    # |G|-wide matrix of any resolution
    def no_dense(self, n):
        raise AssertionError(f"dense d_{n} of a {self.kind} resolution built")

    spec = parse_extension_spec((ROOT / "configs" / "extraspecial_27.cfg").read_text())
    want = double_complex_ss(spec, 6).tables
    monkeypatch.setattr(Resolution, "dense", no_dense)
    got = double_complex_ss(spec, 6)
    assert got.tables == want
    assert got.cohomology_dims == [1, 2, 4, 6, 7, 8, 9]  # the paper's series (f)


def test_small_complex_memory():
    # rank-3 to degree 7: the gathered batches of d1 stay small (11.6 MB
    # traced), where the dense adjoints of d^P took 33.7 MB
    cx = _HomDoubleComplex(parse_extension_spec(RANK3), 8, DEFAULT_BUDGET)
    tracemalloc.start()
    try:
        oracle_module._small_complex(cx, 7, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# -- the small oracle against the dense total differential ------------------


def dense_total(cx: _HomDoubleComplex, n: int) -> np.ndarray:
    """The dense total differential T^n -> T^{n+1} of Hom_E(P_i (x) Q_j, F_p),
    |G| a_i b_j cochains per bidegree, in blocks by ascending i."""
    c_off = np.cumsum([0] + [cx.dim(i, n - i) for i in range(n + 1)])
    r_off = np.cumsum([0] + [cx.dim(i, n + 1 - i) for i in range(n + 2)])
    dn = np.zeros((r_off[-1], c_off[-1]), dtype=np.int64)
    for i in range(n + 1):
        cols = slice(c_off[i], c_off[i + 1])
        dn[r_off[i] : r_off[i + 1], cols] = cx.d0_block(i, n - i)
        dn[r_off[i + 1] : r_off[i + 2], cols] = cx.d1_block(i, n - i)
    return dn


def dense_pages(spec: ExtensionSpec, deg: int, r_max: int = 7) -> dict:
    """Page tables from the rank profiles of the dense total differential: the
    reference the small oracle must equal."""
    cx = _HomDoubleComplex(spec, deg + 1, DEFAULT_BUDGET)
    dims = {(i, j): cx.dim(i, j) for i in range(deg + 2) for j in range(deg + 2 - i)}
    total = {n: dense_total(cx, n) for n in range(deg + 1)}
    return filtration_pages(dims, total, deg, r_max, spec.p)


CONFIG_SPECS = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")
                      if not p.stem.endswith("_overrides"))
P2_SPECS = {"p2_y1y2": '{p: 2, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}',
            "p2_x1_y2y3": '{p: 2, kernel_m: 1, quotient: [1, 1, 1], xi: "x1 + y2*y3"}'}
SMALL_ORACLE_CASES = (
    [pytest.param((ROOT / "configs" / f"{name}.cfg").read_text(), 6, id=name,
                  marks=[pytest.mark.slow] if name == "case_e_9x3" else [])
     for name in CONFIG_SPECS]
    + [pytest.param(RANK3, 5, id="rank3_order81", marks=pytest.mark.slow),
       pytest.param((ROOT / "perfbench" / "specs" / "extraspecial_125.cfg").read_text(), 3,
                    id="extraspecial_125"),
       pytest.param(P2_SPECS["p2_y1y2"], 6, id="p2_y1y2"),
       pytest.param(P2_SPECS["p2_x1_y2y3"], 6, id="p2_x1_y2y3")]
)


@pytest.mark.parametrize("text, deg", SMALL_ORACLE_CASES)
def test_small_oracle_pages_equal_the_dense_double_complex(text, deg):
    spec = parse_extension_spec(text)
    assert double_complex_ss(spec, deg).tables == dense_pages(spec, deg)


@pytest.mark.parametrize("name", ["extraspecial_27", "split_27", "c9_x_c3"])
def test_contraction_identities(name):
    # checked here with plain integer products, apart from the oracle's own
    # checks: dh + hd = 1 - iota pi (h_{j+1} K_j for j < deg), pi iota = 1,
    # h iota = 0, pi h = 0, h h = 0; and H^j(C_3) is one-dimensional
    spec = parse_extension_spec((ROOT / "configs" / f"{name}.cfg").read_text())
    deg, p = 5, spec.p
    cx = _HomDoubleComplex(spec, deg + 1, DEFAULT_BUDGET)
    con = oracle_module._base_contraction(cx, deg, DEFAULT_BUDGET)
    k = [cx.d0_block(0, j) for j in range(deg + 1)]
    for j in range(deg + 1):
        n = cx.dim(0, j)
        iota, pi, h = con.iota[j], con.pi[j], con.h[j]
        assert iota.shape[1] == 1
        assert ((pi @ iota) % p == np.eye(1)).all()
        assert not ((h @ iota) % p).any()
        if j:
            assert not ((con.pi[j - 1] @ h) % p).any()
            assert not ((con.h[j - 1] @ h) % p).any()
        if j < deg:
            dh = k[j - 1] @ h if j else 0
            total = (dh + con.h[j + 1] @ k[j] + iota @ pi) % p
            assert (total == np.eye(n, dtype=np.int64)).all(), j


def widen(m: np.ndarray, cx: _HomDoubleComplex, i: int, rows_b: int, cols_b: int) -> np.ndarray:
    """A base map m ((|G| rows_b) x (|G| cols_b)) as the map of column i
    that applies it along the (g, beta) axes of every alpha."""
    a, ng = cx.a(i), cx.ng
    w = np.einsum("xyzw,ac->xayzcw", m.reshape(ng, rows_b, ng, cols_b), np.eye(a, dtype=np.int64))
    return w.reshape(ng * a * rows_b, ng * a * cols_b)


def test_column_blocks_are_the_base_maps():
    # what the contraction relies on: d0 at column i is (-1)^i K_j along the
    # (g, beta) axes, and d1, which acts on a batch of cochains through the
    # generator images of d^P, is the dense adjoint of d^P along the
    # (g, alpha) axes; on every config spec and every p = 2 spec
    rng = np.random.default_rng(0)
    texts = [(ROOT / "configs" / f"{name}.cfg").read_text() for name in CONFIG_SPECS]
    for text in texts + list(P2_SPECS.values()):
        cx = _HomDoubleComplex(parse_extension_spec(text), 4, DEFAULT_BUDGET)
        p, ng, size = cx.p, cx.ng, 3
        for i in range(3):
            for j in range(3):
                b, b1 = cx.b(j), cx.b(j + 1)
                want = widen(cx.d0_block(0, j), cx, i, b1, b)
                assert (cx.d0_block(i, j) % p == ((-1) ** i * want) % p).all(), (text, i, j)
                # a batch (g, alpha, batch, beta); a cochain's index is
                # (g a_i + alpha) b_j + beta
                w = rng.integers(0, p, size=(ng, cx.a(i), size, b))
                got = oracle_module._along_p(cx, i + 1, w, DEFAULT_BUDGET)
                assert got.shape == (ng, cx.a(i + 1), size, b)
                flat = w.transpose(0, 1, 3, 2).reshape(cx.dim(i, j), size)
                want1 = (cx.d1_block(i, j) @ flat) % p
                got = got.transpose(0, 1, 3, 2).reshape(cx.dim(i + 1, j), size)
                assert (got == want1).all(), (text, i, j)


def test_perturbed_differential_squares_to_zero():
    spec = parse_extension_spec(RANK3)
    deg = 5
    cx = _HomDoubleComplex(spec, deg + 1, DEFAULT_BUDGET)
    dims, total = oracle_module._small_complex(cx, deg, DEFAULT_BUDGET)
    # a_i dim H^j(C_3) = a_i cochains in bidegree (i, j)
    assert dims == {(i, j): cx.a(i) for i in range(deg + 2) for j in range(deg + 2 - i)
                    if (i, j) != (0, deg + 1)}
    for n in range(deg):
        assert not ((total[n + 1] @ total[n]) % spec.p).any(), n
    # every term of d_H raises i: no block on or below the diagonal
    for n in range(deg + 1):
        rows = np.cumsum([0] + [dims.get((i, n + 1 - i), 0) for i in range(n + 2)])
        cols = np.cumsum([0] + [dims[(i, n - i)] for i in range(n + 1)])
        for i in range(n + 1):
            assert not total[n][: rows[i + 1], cols[i] : cols[i + 1]].any(), (n, i)


def test_certificate_failures_raise(monkeypatch):
    spec = ext_spec(y1y2())
    real_solve = oracle_module.solve_linear

    def bad_solve(m, t, p):
        x, ok = real_solve(m, t, p)
        x[0] = (x[0] + 1) % p
        return x, ok

    monkeypatch.setattr(oracle_module, "solve_linear", bad_solve)
    with pytest.raises(LinAlgError, match="certificate fails"):
        double_complex_ss(spec, 4)
    monkeypatch.setattr(oracle_module, "solve_linear", real_solve)

    real_terms = oracle_module._perturbation_terms

    def corrupted_terms(*args):
        for target, block in real_terms(*args):
            yield target, (block + 1) % spec.p

    monkeypatch.setattr(oracle_module, "_perturbation_terms", corrupted_terms)
    with pytest.raises(LinAlgError, match="d_H\\^2 = 0"):
        double_complex_ss(spec, 4)


@pytest.mark.parametrize("name, deg", [("extraspecial_27", 5), ("case_e_9x3", 3)])
def test_perturbed_inclusion_is_a_chain_map(name, deg):
    # iota' = sum_m (-1)^m (h' d1)^m iota, with h' = (-1)^i h at column i, is
    # the perturbation lemma's comparison map (H, d_H) -> (T, d): d iota' =
    # iota' d_H on the dense double complex.  Unlike the pages, this sees the
    # sign of every term: d_H with (-1)^m dropped is -d_H conjugated by
    # (-1)^i, so it has the same pages.
    spec = parse_extension_spec((ROOT / "configs" / f"{name}.cfg").read_text())
    p = spec.p
    cx = _HomDoubleComplex(spec, deg + 1, DEFAULT_BUDGET)
    con = oracle_module._base_contraction(cx, deg, DEFAULT_BUDGET)
    dims, total = oracle_module._small_complex(cx, deg, DEFAULT_BUDGET)

    def iota_prime(n):
        rows = np.cumsum([0] + [cx.dim(i, n - i) for i in range(n + 1)])
        cols = np.cumsum([0] + [dims[(i, n - i)] for i in range(n + 1)])
        out = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
        for i in range(n + 1):
            j = n - i
            nh = con.iota[j].shape[1]
            block = np.einsum("xyz,ac->xayc", con.iota[j].reshape(cx.ng, cx.b(j), nh),
                              np.eye(cx.a(i), dtype=np.int64)).reshape(cx.dim(i, j), -1)
            for m in range(j + 1):
                c = i + m
                out[rows[c] : rows[c + 1], cols[i] : cols[i + 1]] = block
                if m < j:
                    h = (-1) ** (c + 1) * widen(con.h[j - m], cx, c + 1, cx.b(j - m - 1),
                                                cx.b(j - m))
                    block = (-h @ cx.d1_block(c, j - m) @ block) % p
        return out

    for n in range(deg):
        left = dense_total(cx, n) @ iota_prime(n)
        assert not ((left - iota_prime(n + 1) @ total[n]) % p).any(), n
