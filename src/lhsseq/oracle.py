"""Brute-force verification, independent of every closed formula.

Two oracles:

* minimal free resolutions over the group algebra of the actual
  extension group, built degree by degree (new generators = kernel of
  the previous differential modulo the radical times the kernel), whose
  ranks are the cohomology dimensions of the group.  Each degree costs
  one elimination of a short matrix: the columns of d_{n-1} lie in the
  kernel K_{n-1} of d_{n-2}, so ker d_{n-1} is the kernel of its rows at
  the free columns of K_{n-1}'s kernel basis alone, and a kernel basis
  is the identity on its free columns, so it serves as its own echelon
  basis when the translates are checked against it and reduced;

* the pages of the first-quadrant double complex T = Hom_E(P_i (x) Q_j,
  F_p), P a minimal resolution over the quotient G and Q one over the
  extension group E, filtered by i, with no differential formula at all.
  T has |G| a_i b_j cochains in bidegree (i, j) (a_i, b_j the ranks of P_i
  and Q_j); its pages are read off a small complex with a_i dim H^j(C)
  cochains there, built by the basic perturbation lemma (R. Brown, "The
  twisted Eilenberg-Zilber theorem", 1965; M. Crainic, "On the perturbation
  lemma, and deformations", arXiv:math/0403266).

Contraction.  Column i of T is a_i copies of the base complex V^j =
Hom_E(F_p[G] (x) Q_j, F_p), K_j = d0_block(0, j), applied along the (g,
beta) axes with the sign (-1)^i.  Each V^j splits as B^j + H^j + L^j: B^j
is spanned by the pivot columns of K_{j-1}, H^j by representatives of
ker K_j / B^j, L^j by the unit vectors at the pivot columns of K_j.  With
iota the H representatives, pi the H coordinates and h: V^{j+1} -> V^j
putting the B coordinates on the pivot columns of K_j (one block solve
gives all coordinates),

    dh + hd = 1 - iota pi,  pi iota = 1,  h iota = 0,  pi h = 0,  h h = 0,

and column i contracts onto a_i copies of H^j with homotopy (-1)^i h.

Perturbation.  The horizontal differential d1 (the adjoint of d^P, along
the (g, alpha) axes) perturbs the columns' d0, and the lemma gives the
small complex (sum a_i (x) H^j, d_H) with

    d_H = sum_{m >= 0} (-1)^m pi d1 (h d1)^m iota,

term m mapping (i, j) to (i+m+1, j-m).  Its comparison map into T
preserves the filtration and is an isomorphism on E_1 (both are
Hom_G(P_i, H^j(C))), hence on every page E_r, r >= 1.  The maps act on
batches of cochains along their own axes; no widened matrix is built.
d1 reads d^P as its generator images, coef[alpha, x, alpha'] the
coefficient of x gen_alpha in d(gen_alpha'): (d1 w)[g, alpha'] = sum over
x, alpha of coef[alpha, x, alpha'] w[g x, alpha], one gather of the batch
at the x where coef is nonzero and one product, with no |G|-wide matrix.

Certificate.  Every run checks the five identities and d_H^2 = 0 exactly
and raises LinAlgError when one fails; `compare` adds E_inf = H*(E).

Pages.  For a complex filtered by p,

    dim E_r^{p,q} = z(p, r, n) - z(p+1, r-1, n)
                    - z(p-r+1, r-1, n-1) + z(p-r+1, r, n-1)

where n = p + q and z(p, r, n) = dim (F^p T^n meet D^{-1} F^{p+r}).
The z-dimensions come from the rank profile matrix of the total
differential (``fplinalg.rank_profile``): with columns ordered by
descending filtration and rows by ascending filtration, every
z(p, r, n) needs the rank of a corner, a row prefix times a column
prefix, which is the number of rank-profile pairs inside it.  One
elimination per total degree yields every (p, r) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extensions import ExtensionSpec, build_extension_group, extension_projection
# oracle.rank is not used here but stays importable: perfbench's tracer tests call it
from .fplinalg import rank  # noqa: F401
from .fplinalg import (DEFAULT_BUDGET, LinAlgError, check_budget, kernel_basis, mul_mod,
                       product_dtype, rank_profile, solve_linear, subquotient_of,
                       work_dtype)
from .groups import FiniteGroupTable, GroupError, smallest_prime_factor
from .resolutions import Resolution, _act_matrix, _module_rows, abelian_minimal_resolution

__all__ = [
    "minimal_resolution",
    "cohomology_dims",
    "double_complex_ss",
    "DoubleComplexDims",
]

def _generating_set(group: FiniteGroupTable) -> list[int]:
    """A small generating set, found greedily: the least element outside the
    subgroup the generators so far generate, its words in them."""
    gens: list[int] = []
    closure = {group.identity}
    for a in range(group.order):
        if a in closure:
            continue
        gens.append(a)
        new = closure
        while new:
            new = {group.multiply(x, g) for x in new for g in gens} - closure
            closure |= new
    return gens


def minimal_resolution(group: FiniteGroupTable, max_degree: int, p: int | None = None,
                       budget: int = DEFAULT_BUDGET) -> Resolution:
    """Minimal free resolution of F_p over F_p[group], group a p-group;
    p defaults to the smallest prime dividing the order.

    At each step the kernel K_n of d_{n-1} is computed as an F_p subspace;
    new free generators map onto representatives of K_n modulo
    (augmentation ideal) * K_n, chosen by echelon pivots.  Two facts keep
    this to one elimination of a short matrix per degree:

    * the columns of d_{n-1} lie in K_{n-1}, and a vector of K_{n-1} is
      fixed by its entries at the free columns of K_{n-1}'s kernel basis,
      so K_n is the kernel of those rows of d_{n-1} alone (d_0, the
      augmentation, has one row);
    * a kernel basis is the identity on its free columns, so it is already
      the echelon basis of K_n: ``subquotient_of`` checks that the
      translates lie in K_n and reduces them against it as it stands.

    d_n is kept as its generators' images, the representatives as columns.
    """
    if p is None:
        p = smallest_prime_factor(group.order)
    if not group.is_p_group(p):
        raise GroupError("minimal resolutions require a p-group (local algebra)")
    order = group.order
    gens = _generating_set(group)
    ranks = [1]
    images: list[np.ndarray] = []
    image = 1  # rank of d_{n-1}: by exactness, the dimension of the kernel before it
    for n in range(1, max_degree + 1):
        n_blocks = ranks[-1]
        # gens dim K_n n_blocks |G| entries, no fewer than the images of d_n
        # (n_blocks |G| x new rank, new rank <= dim K_n), left unchecked
        check_budget(len(gens) * (n_blocks * order - image) * n_blocks * order, budget,
                     f"the translates of the kernel of d_{n - 1}")
        # ker d_{n-1} is the kernel of its rows at the free columns of the
        # kernel before it (d_0, the augmentation, is one row), gathered
        # from its images and freed before the translates are built
        if images:
            check_budget(image * n_blocks * order, budget,
                         f"the rows of d_{n - 1} at the free columns")
        k, free = kernel_basis(_module_rows(group, images[-1], free) if images
                               else np.ones((1, order), dtype=np.int64), p)
        # the translates (g - 1) K_n, one block per generator, written as
        # residues into one array of the elimination's working dtype
        kw, rows = k.astype(work_dtype(p)), k.shape[0]
        radk = np.empty((len(gens) * rows, k.shape[1]), dtype=kw.dtype)
        for i, g in enumerate(gens):
            block = radk[i * rows : (i + 1) * rows]
            np.subtract(kw[:, _act_matrix(group, g, n_blocks)], kw, out=block)
            np.remainder(block, p, out=block)
        reps = subquotient_of(k, radk, k.shape[1], p, free).quotient_reps
        ranks.append(reps.shape[0])
        images.append(np.ascontiguousarray(reps.T))
        image = k.shape[0]
    return Resolution(
        group=group,
        p=p,
        ranks=ranks,
        images=images,
        basis_labels=[list(range(r)) for r in ranks],
        kind="minimal",
    )


def cohomology_dims(group: FiniteGroupTable, max_degree: int, p: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> list[int]:
    """dim H^n(group; F_p) for n <= max_degree, from the minimal resolution."""
    if max_degree < 0:
        raise GroupError(f"max degree must be non-negative, got {max_degree}")
    return minimal_resolution(group, max_degree, p, budget).ranks


# -- the double complex oracle -------------------------------------------


@dataclass
class DoubleComplexDims:
    """Page dimension tables of the honest double complex, with |E| and dim H^n(E)."""

    spec: ExtensionSpec
    max_total_degree: int
    r_max: int
    tables: dict[int, dict[tuple[int, int], int]]
    group_order: int
    cohomology_dims: list[int]

    def total_dims(self, r: int, through: int) -> list[int]:
        out = [0] * (through + 1)
        for (i, j), d in self.tables.get(r, {}).items():
            if i + j <= through:
                out[i + j] += d
        return out


class _HomDoubleComplex:
    """Bases and differentials of Hom_E(P_i (x) Q_j, F_p).

    A cochain is a vector over the free E-basis {g p_alpha (x) q_beta};
    the horizontal differential is the adjoint of d^P (x) 1 and the
    vertical one the adjoint of (-1)^i (1 (x) d^Q).
    """

    def __init__(self, spec: ExtensionSpec, max_total: int, budget: int):
        self.spec = spec
        self.p = spec.p
        self.E = build_extension_group(spec, budget)
        self.Q = minimal_resolution(self.E, max_total, spec.p, budget)
        self.P: Resolution = abelian_minimal_resolution(spec.quotient, max_total, budget)
        self.G = self.P.group
        self.pi = extension_projection(spec, self.E.order)
        self.max_total = max_total
        self.ng = self.G.order

    def a(self, i: int) -> int:
        return self.P.rank(i)

    def b(self, j: int) -> int:
        return self.Q.rank(j)

    def dim(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return self.ng * self.a(i) * self.b(j)

    # cochain index at (i, j): (g * a_i + alpha) * b_j + beta

    def d1_block(self, i: int, j: int) -> np.ndarray:
        """(i, j) -> (i+1, j), the dense adjoint of d^P (x) 1, from ``P.dense``:
        entry ((g, alpha', beta), (h, alpha, beta)) is that of h gen_alpha in
        d(g gen_alpha').  Only the dense reference of the tests uses it."""
        if self.dim(i + 1, j) == 0:
            return np.zeros((self.dim(i + 1, j), self.dim(i, j)), dtype=np.int64)
        d = self.P.dense(i + 1).reshape(self.a(i), self.ng, self.a(i + 1), self.ng)
        m = np.einsum("ahcg,bd->gcbhad", d, np.eye(self.b(j), dtype=np.int64))
        return m.reshape(self.dim(i + 1, j), self.dim(i, j))

    def d0_block(self, i: int, j: int) -> np.ndarray:
        """(i, j) -> (i, j+1), adjoint of (-1)^i times the Q differential: entry
        ((g, alpha, beta'), (g', alpha, beta)) is (-1)^i F[g g'^-1, beta', beta],
        where F[x, beta', beta] sums the coefficients of e gen_beta in
        d(gen_beta') over the e with pi(e) = x."""
        rows, cols = self.dim(i, j + 1), self.dim(i, j)
        if rows == 0 or cols == 0:
            return np.zeros((rows, cols), dtype=np.int64)
        ne, bj, bj1 = self.E.order, self.b(j), self.b(j + 1)
        d = self.Q.images[j].reshape(bj, ne, bj1)
        f = np.zeros((self.ng, bj1, bj), dtype=np.int64)
        np.add.at(f, self.pi, d.transpose(1, 2, 0))
        f = f[self.G.mul[:, self.G.inv]]  # [g, g', beta', beta]
        m = np.einsum("xypq,ab->xapybq", f, np.eye(self.a(i), dtype=np.int64))
        return ((-1) ** i * m.reshape(rows, cols)) % self.p


@dataclass
class _Contraction:
    """The base contraction in degrees j <= deg, with n_j = dim V^j and
    c_j = dim H^j: iota[j] (n_j x c_j) maps cohomology coordinates to
    cocycles, pi[j] (c_j x n_j) takes them back, and h[j]: V^j -> V^{j-1}
    (n_{j-1} x n_j) is the homotopy."""

    iota: list[np.ndarray]
    pi: list[np.ndarray]
    h: list[np.ndarray]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise LinAlgError(f"small oracle certificate fails: {what}")


def _base_contraction(cx: _HomDoubleComplex, deg: int, budget: int) -> _Contraction:
    """Contract K_j = d0_block(0, j) onto its cohomology for j <= deg and
    check the five identities exactly."""
    p = cx.p
    n = [cx.dim(0, j) for j in range(deg + 2)]
    k = []
    for j in range(deg + 1):
        check_budget(n[j + 1] * n[j], budget, f"the base differential K_{j}")
        k.append(cx.d0_block(0, j))
    iota, pi, h = [], [], []
    prev_pivots: list[int] = []
    for j in range(deg + 1):
        check_budget(2 * n[j] ** 2, budget, f"the coordinate solve on V^{j}")
        # one elimination of K_j: its kernel basis, whose free columns the
        # pivot columns complement
        z, free = kernel_basis(k[j], p)
        pivots = np.delete(np.arange(n[j]), free)
        bnd = k[j - 1][:, prev_pivots].T if j else np.zeros((0, n[j]), dtype=np.int64)
        reps = subquotient_of(z, bnd, n[j], p, free).quotient_reps
        nb, nh = bnd.shape[0], reps.shape[0]
        basis = np.concatenate([bnd, reps, np.eye(n[j], dtype=np.int64)[pivots]])
        _require(basis.shape[0] == n[j], f"B + H + L of V^{j} has {basis.shape[0]} "
                                         f"vectors, not {n[j]}")
        coords, ok = solve_linear(basis.T, np.eye(n[j], dtype=np.int64), p)
        _require(ok.all(), f"B + H + L spans V^{j}")
        iota.append(reps.T)
        pi.append(coords[nb : nb + nh])
        hj = np.zeros((n[j - 1] if j else 0, n[j]), dtype=np.int64)
        hj[prev_pivots] = coords[:nb]
        h.append(hj)
        if j == deg:
            # h_{deg+1} K_deg, the projection onto L^deg along B + H
            # (h_{deg+1} itself is never applied)
            hk_top = np.zeros((n[j], n[j]), dtype=np.int64)
            hk_top[pivots] = coords[nb + nh :]
        prev_pivots = pivots
    for j in range(deg + 1):
        dh = mul_mod(k[j - 1], h[j], p) if j else 0
        hd = mul_mod(h[j + 1], k[j], p) if j < deg else hk_top
        one = np.eye(n[j], dtype=np.int64)
        _require(((dh + hd + mul_mod(iota[j], pi[j], p)) % p == one).all(),
                 f"dh + hd = 1 - iota pi on V^{j}")
        _require((mul_mod(pi[j], iota[j], p) == np.eye(iota[j].shape[1])).all(),
                 f"pi iota = 1 on H^{j}")
        _require(not mul_mod(h[j], iota[j], p).any(), f"h iota = 0 on H^{j}")
        if j:
            _require(not mul_mod(pi[j - 1], h[j], p).any(), f"pi h = 0 on V^{j}")
            _require(not mul_mod(h[j - 1], h[j], p).any(), f"h h = 0 on V^{j}")
    return _Contraction(iota=iota, pi=pi, h=h)


def _along_base(m: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """A base map m (rows x |G| b) applied along the (g, beta) axes of a
    batch w of shape (|G|, a, batch, b): the result is rows x (a, batch)."""
    ng, a, size, b = w.shape
    return mul_mod(m, w.transpose(0, 3, 1, 2).reshape(ng * b, a * size), p)


def _along_p(cx: _HomDoubleComplex, c: int, w: np.ndarray, budget: int) -> np.ndarray:
    """d1 out of column c - 1 on a batch w (|G|, a_{c-1}, batch, b), from the
    generator images of d^P_c (module docstring): (|G|, a_c, batch, b)."""
    p, ng, a, ac = cx.p, cx.ng, cx.a(c - 1), cx.a(c)
    size, b = w.shape[2:]
    coef = cx.P.images[c - 1].reshape(a, ng, ac)
    xs = np.flatnonzero(coef.any(axis=(0, 2)))
    k = a * xs.size
    check_budget(xs.size * w.size, budget, f"the gathered batch of d^P_{c}")
    # both factors in the product's float type: gathered[(alpha, x), (g,
    # batch, beta)] = w[g x, alpha, batch, beta]
    dtype = product_dtype(k, p)
    gathered = np.take(w.astype(dtype).transpose(1, 0, 2, 3), cx.G.mul[:, xs].T, axis=1)
    stacked = coef[:, xs].transpose(2, 0, 1).reshape(ac, k).astype(dtype)
    out = mul_mod(stacked, gathered.reshape(k, ng * size * b), p)
    return out.reshape(ac, ng, size, b).transpose(1, 0, 2, 3)


def _perturbation_terms(cx: _HomDoubleComplex, con: _Contraction, i: int, j: int,
                        budget: int):
    """Yield ((i', j'), block): term m of d_H out of (i, j), a block into
    (i' = i+m+1, j' = j-m).  Small bases are indexed alpha * c_j + eta.

    Every basis vector of (i, j) is carried at once, as a batch of cochains
    (g, alpha, batch, beta): d1 acts on the (g, alpha) axes, pi and h on the
    (g, beta) axes.  h at column c is (-1)^c h, since d0 carries (-1)^c.
    """
    p, ng, a = cx.p, cx.ng, cx.a(i)
    nh, b = con.iota[j].shape[1], cx.b(j)
    size = a * nh
    check_budget(ng * a * size * b, budget, f"the cochain batch out of ({i}, {j})")
    w = np.zeros((ng, a, a, nh, b), dtype=np.int64)
    diag = np.arange(a)
    w[:, diag, diag] = con.iota[j].reshape(ng, b, nh).transpose(0, 2, 1)[:, None]
    w = w.reshape(ng, a, size, b)
    sign = 1
    for m in range(j + 1):
        c, jj = i + m + 1, j - m
        ac, bjj = cx.a(c), cx.b(jj)
        check_budget(ng * ac * size * bjj, budget, f"the cochain batch at ({c}, {jj})")
        w = _along_p(cx, c, w, budget)
        nh_t = con.pi[jj].shape[0]
        term = _along_base(con.pi[jj], w, p).reshape(nh_t, ac, size)
        yield (c, jj), (sign * term.transpose(1, 0, 2).reshape(ac * nh_t, size)) % p
        if jj == 0 or ac == 0:
            # a_c = 0: every later term passes through this empty column
            break
        check_budget(ng * ac * size * cx.b(jj - 1), budget,
                     f"the cochain batch at ({c}, {jj - 1})")
        w = _along_base(con.h[jj], w, p).reshape(ng, -1, ac, size).transpose(0, 2, 3, 1)
        # the next term: one more factor of (-1)^m, and h's column sign
        sign *= -1 * (-1) ** c


def _small_complex(cx: _HomDoubleComplex, deg: int, budget: int):
    """Bidegree sizes and total differentials D_n (n <= deg) of (H, d_H).

    d_H = sum_m (-1)^m pi d1 (h d1)^m iota, term m mapping (i, j) to
    (i+m+1, j-m).  Every term raises i, so nothing lands in (0, deg + 1):
    that block of T^{deg+1} is left out (size 0), and Q is needed only
    through degree deg + 1, as for the double complex itself.
    """
    con = _base_contraction(cx, deg, budget)
    dims = {(i, j): cx.a(i) * con.iota[j].shape[1]
            for i in range(deg + 2) for j in range(min(deg, deg + 1 - i) + 1)}
    offsets = [np.cumsum([0] + [dims.get((i, n - i), 0) for i in range(n + 1)])
               for n in range(deg + 2)]
    total = {}
    for n in range(deg + 1):
        check_budget(offsets[n + 1][-1] * offsets[n][-1], budget,
                     f"the total differential D_{n} of the small complex")
        dn = np.zeros((offsets[n + 1][-1], offsets[n][-1]), dtype=np.int64)
        for i in range(n + 1):
            if not dims[(i, n - i)]:
                continue
            cols = slice(offsets[n][i], offsets[n][i + 1])
            for (c, _), block in _perturbation_terms(cx, con, i, n - i, budget):
                dn[offsets[n + 1][c] : offsets[n + 1][c + 1], cols] = block
        total[n] = dn
    for n in range(deg):
        _require(not mul_mod(total[n + 1], total[n], cx.p).any(),
                 f"d_H^2 = 0 out of total degree {n}")
    return dims, total


def filtration_pages(dims: dict[tuple[int, int], int], total: dict[int, np.ndarray],
                     deg: int, r_max: int, p: int) -> dict[int, dict[tuple[int, int], int]]:
    """Page dimensions E_r^{i,j} (1 <= r <= r_max, i + j <= deg) of a
    complex filtered by i, from one rank profile per total degree.

    dims[(i, j)] is the size of bidegree (i, j), 0 where missing; total[n]
    is the differential T^n -> T^{n+1} (n <= deg) with rows and columns in
    blocks by ascending i.
    """
    profiles = {}
    for n in range(deg + 1):
        cols, rows = list(range(n, -1, -1)), list(range(n + 2))
        sizes = [dims.get((i, n - i), 0) for i in range(n + 1)]
        col_sizes = sizes[::-1]
        row_sizes = [dims.get((i, n + 1 - i), 0) for i in rows]
        starts = np.cumsum([0] + sizes)
        order = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in cols])
        # np.take keeps rows contiguous, as the row-wise elimination wants
        # (total[n][:, order] would be a column-major copy, twice as slow)
        dmat = np.take(total[n], order, axis=1)
        pairs = np.array(rank_profile(dmat, p), dtype=np.int64).reshape(-1, 2)
        # profiles[n][cb, rb]: rank-profile pairs in column block cb, row block rb
        cnt = np.zeros((n + 2, n + 3), dtype=np.int64)
        np.add.at(cnt, (np.repeat(cols, col_sizes)[pairs[:, 1]],
                        np.repeat(rows, row_sizes)[pairs[:, 0]]), 1)
        profiles[n] = cnt

    def zdim(pp: int, r: int, n: int) -> int:
        """dim (F^pp T^n meet D^{-1} F^{pp+r}): F^pp T^n less a corner rank."""
        if n < 0:
            return 0
        lo = max(pp, 0)
        base = sum(dims.get((i, n - i), 0) for i in range(lo, n + 1))
        if pp + r <= 0 or n not in profiles:
            return base
        return base - int(profiles[n][lo:, : pp + r].sum())

    tables: dict[int, dict[tuple[int, int], int]] = {}
    for r in range(1, r_max + 1):
        table = {}
        for n in range(deg + 1):
            for i in range(n + 1):
                q = n - i
                d = (
                    zdim(i, r, n)
                    - zdim(i + 1, r - 1, n)
                    - zdim(i - r + 1, r - 1, n - 1)
                    + zdim(i - r + 1, r, n - 1)
                )
                if d:
                    table[(i, q)] = d
        tables[r] = table
    return tables


def double_complex_ss(
    spec: ExtensionSpec,
    max_total_degree: int,
    r_max: int = 7,
    budget: int = DEFAULT_BUDGET,
) -> DoubleComplexDims:
    """Page dimensions E_r^{p,q} (1 <= r <= r_max, p+q <= max_total_degree)
    of the double complex, read off its contraction (H, d_H).  Raises
    LinAlgError when a contraction identity or d_H^2 = 0 fails."""
    deg = max_total_degree
    if deg < 0:
        raise GroupError(f"max degree must be non-negative, got {deg}")
    cx = _HomDoubleComplex(spec, deg + 1, budget)
    dims, total = _small_complex(cx, deg, budget)
    return DoubleComplexDims(
        spec=spec, max_total_degree=deg, r_max=r_max,
        tables=filtration_pages(dims, total, deg, r_max, spec.p),
        group_order=cx.E.order, cohomology_dims=cx.Q.ranks[: deg + 1],
    )


def euler_telescope(oracle: DoubleComplexDims, through: int) -> list[list[int]]:
    """Per-page kill counts out of each total degree, solved from the
    dimension drops; every entry must be a nonnegative integer for the
    pages to be consistent with a spectral sequence of a filtered complex."""
    out = []
    for r in range(1, oracle.r_max):
        a = oracle.total_dims(r, through)
        b = oracle.total_dims(r + 1, through)
        kills = []
        incoming = 0
        for d in range(through + 1):
            drop = a[d] - b[d]
            out_kills = drop - incoming
            kills.append(out_kills)
            incoming = out_kills
        out.append(kills)
    return out
