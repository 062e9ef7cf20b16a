"""Brute-force verification, independent of every closed formula.

Two oracles:

* minimal free resolutions over the group algebra of the actual
  extension group, built degree by degree (new generators = kernel of
  the previous differential modulo the radical times the kernel), whose
  ranks are the cohomology dimensions of the group;

* the honest first-quadrant double complex Hom_E(P_i (x) Q_j, F_p) with
  P a minimal resolution over the quotient and Q one over the extension
  group, whose page dimensions are extracted from the column filtration
  with plain rank computations (no differential formulas at all):

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
from .fplinalg import kernel_basis, rank, rank_profile, subquotient_of  # noqa: F401
from .groups import FiniteGroupTable, GroupError, smallest_prime_factor
from .resolutions import Resolution, abelian_minimal_resolution

__all__ = [
    "minimal_resolution",
    "cohomology_dims",
    "double_complex_ss",
    "DoubleComplexDims",
]

DEFAULT_BIDEGREE_BUDGET = 100_000


def _generating_set(group: FiniteGroupTable) -> list[int]:
    """A small generating set, found greedily."""
    gens: list[int] = []
    closure = {group.identity}
    for a in range(group.order):
        if a in closure:
            continue
        gens.append(a)
        frontier = set(closure)
        closure = set(closure)
        new = {a}
        while new:
            nxt = set()
            for x in new:
                for y in list(closure) + [x]:
                    for z in (group.multiply(x, y), group.multiply(y, x)):
                        if z not in closure and z not in new and z not in nxt:
                            nxt.add(z)
            closure |= new
            new = nxt
        if len(closure) == group.order:
            break
    return gens


def _act_matrix(group: FiniteGroupTable, g: int, n_blocks: int) -> np.ndarray:
    """Gather indices for left multiplication: (g v) = v[perm].

    Coordinate (b, h) of the module holds the coefficient of h * gen_b, so
    (g v)[b, g h] = v[b, h], i.e. perm[b, g h] = (b, h).
    """
    order = group.order
    perm = np.empty(n_blocks * order, dtype=np.int64)
    block = np.arange(n_blocks)[:, None] * order
    perm[(block + group.mul[g, np.arange(order)][None, :]).ravel()] = (
        block + np.arange(order)[None, :]
    ).ravel()
    return perm


def minimal_resolution(group: FiniteGroupTable, max_degree: int, p: int | None = None) -> Resolution:
    """Minimal free resolution of F_p over F_p[group], group a p-group;
    p defaults to the smallest prime dividing the order.

    At each step the kernel of the current differential is computed as an
    F_p subspace; new free generators map onto representatives of the
    kernel modulo (augmentation ideal) * kernel, chosen by echelon pivots.
    """
    if p is None:
        p = smallest_prime_factor(group.order)
    if not group.is_p_group(p):
        raise GroupError("minimal resolutions require a p-group (local algebra)")
    order = group.order
    gens = _generating_set(group)
    ranks = [1]
    diffs: list[np.ndarray] = []
    current = np.ones((1, order), dtype=np.int64)  # the augmentation
    for n in range(1, max_degree + 1):
        k = kernel_basis(current, p)
        rad = []
        n_blocks = ranks[-1]
        for g in gens:
            perm = _act_matrix(group, g, n_blocks)
            rad.append((k[:, perm] - k) % p)
        radk = np.concatenate(rad, axis=0) if rad else np.zeros((0, k.shape[1]), dtype=np.int64)
        sq = subquotient_of(k, radk, k.shape[1], p)
        reps = sq.quotient_reps
        new_rank = reps.shape[0]
        d = np.zeros((n_blocks * order, new_rank * order), dtype=np.int64)
        perms = np.stack([_act_matrix(group, g, n_blocks) for g in range(order)])
        for b in range(new_rank):
            # column (b, g) is g * rep_b
            d[:, b * order : (b + 1) * order] = reps[b][perms].T
        ranks.append(new_rank)
        diffs.append(d)
        current = d
    return Resolution(
        group=group,
        p=p,
        ranks=ranks,
        differentials=diffs,
        basis_labels=[list(range(r)) for r in ranks],
        kind="minimal",
    )


def cohomology_dims(group: FiniteGroupTable, max_degree: int, p: int | None = None) -> list[int]:
    """dim H^n(group; F_p) for n <= max_degree, from the minimal resolution."""
    return minimal_resolution(group, max_degree, p).ranks


# -- the double complex oracle -------------------------------------------


@dataclass
class DoubleComplexDims:
    """Page dimension tables of the honest double complex."""

    spec: ExtensionSpec
    max_total_degree: int
    r_max: int
    tables: dict[int, dict[tuple[int, int], int]]

    def dim(self, r: int, i: int, j: int) -> int:
        return self.tables.get(r, {}).get((i, j), 0)

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

    def __init__(self, spec: ExtensionSpec, max_total: int,
                 budget: int = DEFAULT_BIDEGREE_BUDGET):
        self.spec = spec
        self.p = spec.p
        self.P: Resolution = abelian_minimal_resolution(spec.quotient, max_total)
        self.E = build_extension_group(spec)
        self.Q = minimal_resolution(self.E, max_total, spec.p)
        self.G = self.P.group
        self.pi = extension_projection(spec, self.E.order)
        self.max_total = max_total
        self.ng = self.G.order
        for i in range(max_total + 1):
            for j in range(max_total + 1 - i):
                if self.dim(i, j) > budget:
                    raise GroupError(
                        f"double complex bidegree ({i},{j}) exceeds the budget"
                    )

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
        """(i, j) -> (i+1, j), adjoint of the P differential."""
        ai, ai1, ng = self.a(i), self.a(i + 1), self.ng
        if self.dim(i + 1, j) == 0:
            return np.zeros((self.dim(i + 1, j), self.dim(i, j)), dtype=np.int64)
        # P coordinate (alpha, h) of d(g gen_alpha') becomes entry
        # ((g, alpha'), (h, alpha)) of the adjoint
        d = self.P.differentials[i].reshape(ai, ng, ai1, ng)
        k = d.transpose(3, 2, 1, 0).reshape(ng * ai1, ng * ai)
        return np.kron(k, np.eye(self.b(j), dtype=np.int64))

    def d0_block(self, i: int, j: int) -> np.ndarray:
        """(i, j) -> (i, j+1), adjoint of (-1)^i times the Q differential."""
        rows, cols = self.dim(i, j + 1), self.dim(i, j)
        m = np.zeros((rows, cols), dtype=np.int64)
        if rows == 0 or cols == 0:
            return m
        sign = -1 if i % 2 else 1
        ai = self.a(i)
        ginv = self.G.inv
        gmul = self.G.mul
        bj, bj1 = self.b(j), self.b(j + 1)
        g_arr = np.repeat(np.arange(self.ng), ai)
        al_arr = np.tile(np.arange(ai), self.ng)
        for bp in range(bj1):
            for bl in range(bj):
                vec = self.Q.entry(j + 1, bl, bp)
                for e_elt in np.nonzero(vec)[0]:
                    c = int(vec[e_elt]) * sign
                    src_g = gmul[ginv[int(self.pi[e_elt])], g_arr]
                    rows_idx = (g_arr * ai + al_arr) * bj1 + bp
                    cols_idx = (src_g * ai + al_arr) * bj + bl
                    m[rows_idx, cols_idx] = (m[rows_idx, cols_idx] + c) % self.p
        return m


def double_complex_ss(
    spec: ExtensionSpec,
    max_total_degree: int,
    r_max: int = 7,
    budget: int = DEFAULT_BIDEGREE_BUDGET,
) -> DoubleComplexDims:
    """Page dimensions E_r^{p,q} (1 <= r <= r_max, p+q <= max_total_degree)
    of the honest double complex, by rank profiles of the filtration."""
    deg = max_total_degree
    cx = _HomDoubleComplex(spec, deg + 1, budget=budget)
    p = spec.p

    dims = {(i, j): cx.dim(i, j) for i in range(deg + 2) for j in range(deg + 2 - i)}

    # profiles[n][cb, rb]: rank-profile pairs of D: T^n -> T^{n+1} in
    # column block cb and row block rb.  Columns run by descending and
    # rows by ascending filtration, so a corner rank is a rectangle sum.
    profiles = {}
    for n in range(deg + 1):
        cols, rows = list(range(n, -1, -1)), list(range(n + 2))
        col_sizes = [dims[(i, n - i)] for i in cols]
        row_sizes = [dims[(i, n + 1 - i)] for i in rows]
        c_off, r_off = np.cumsum([0] + col_sizes), np.cumsum([0] + row_sizes)
        dmat = np.zeros((r_off[-1], c_off[-1]), dtype=np.int64)
        for k, i in enumerate(cols):
            if col_sizes[k]:
                block = slice(c_off[k], c_off[k + 1])
                dmat[r_off[i] : r_off[i + 1], block] = cx.d0_block(i, n - i)
                dmat[r_off[i + 1] : r_off[i + 2], block] = cx.d1_block(i, n - i)
        pairs = np.array(rank_profile(dmat, p), dtype=np.int64).reshape(-1, 2)
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
    return DoubleComplexDims(
        spec=spec, max_total_degree=deg, r_max=r_max, tables=tables
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
