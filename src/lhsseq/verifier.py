"""The honest double complex of a central extension, from bar resolutions.

E_0^{i,j} = Hom_E(P_i (x) Q_j, F_p) with P the bar resolution of the
quotient G and Q the bar resolution of the extension group E, the group
acting diagonally through the projection.  A cochain is a dense vector
over the free E-basis {g (1,s_1..s_i) (x) (1,e_1..e_j)}, indexed by
(g, P-tuple, Q-tuple) in mixed radix.  All products and differentials
evaluate by index arithmetic on those tuples, so the coboundary
formulas of the two cup-1 products and the t^n ladder recursion can be
machine-checked exactly against random cochains.

Convention notes (the self-test suite pins these):
  * d_1 is the adjoint of d^P (x) 1; d_0 of (-1)^i (1 (x) d^Q);
  * cochain pairs evaluate with no Koszul sign: (phi (x) theta)(x (x) y)
    = phi(x) theta(y) (the sign variant breaks the derivation property
    of d_0/d_1 over the cup product, which the ladder identities need);
  * the middle-swap tau carries (-1)^{(degree swapped P piece)(degree Q piece)}.

Face matrices.  Each target row of d0 or d1 has one entry per face, and an
entry's sign depends only on its face, so a face matrix is an int32 index array
of shape (faces, rows), face-major, with one sign per face.  d^2 = 0 is checked
over the integers: each (left face, right face) pair of a composite is one
column vector with one sign; a +sign vector cancels an equal -sign one, which
adds zero to every row, and what is left is summed per row in int64 before the
one reduction mod p.  No step rounds, wraps or skips an entry: the check is exact.

Products.  The five products of a in (i1, j1) and b in (i2, j2) share one
rule: each kind picks a split of the target digits on the P side
(s_1..s_ti) and one on the Q side (e_1..e_tj), after Steenrod's cup-i
construction (Ann. Math. 48, 1947):

    cup (ab, ab)   wedge (ba, ab)   twist (ba, ba)
    cup10 (cup1, ab), landing in (i1+i2-1, j1+j2)
    cup01 (ba, cup1), landing in (i1+i2, j1+j2-1)

On a side with digits d_1..d_t, where a has degree m and b degree n, and
d_0 the identity, a piece relative to the anchor x reads x^-1 d for its d:
  * ab: a reads d_1..d_m, b reads d_{m+1}..d_t relative to d_m; exponent 0;
  * ba: b reads d_1..d_n, a reads d_{n+1}..d_t relative to d_n; exponent mn;
  * cup1 (t = m+n-1, none when n = 0): one term per k < m, with c = k+n: a
    reads d_1..d_k d_c..d_t, b reads d_{k+1}..d_c relative to d_k;
    exponent t + (t-k-1)(c-k-1).
The product is the sum, over each pair of a P term and a Q term, of
sign a(g_a, .) b(g_b, .): g_f is g, times s_anchor on the right when f reads
P's relative piece, and times pi(e_anchor)^-1 on the left when f reads Q's.
The sign is (-1) to the sum of the two sides' exponents, i2 j1 for the
middle swap, and ti when the cup1 split is on the Q side.  So the index f
reads at a target row is a sum of small tables broadcast over the target's
digit axes, each times its weight: one per digit f reads, on the digit's
axis (x^-1 d on the (anchor, d) axes), and g_f on the axes of g and f's
anchors.  One plan per signature (kind, i1, j1, i2, j2), cached on the
complex, holds the signs and these tables; a call sums each factor's tables
into one index vector, gathers its values in place, multiplies and adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extensions import (
    ExtensionSpec,
    build_extension_group,
    extension_projection,
    kernel_injection,
)
from .fplinalg import DEFAULT_BUDGET, BudgetExceeded, check_budget
from .fplinalg import kernel_basis, solve_linear, subquotient_of
from .groups import GroupError

__all__ = [
    "BarDoubleComplex",
    "E0Cochain",
    "LadderData",
    "build_double_complex",
    "check_lemma1",
    "d1_cup10_residual",
    "build_eta_family",
    "PRODUCT_KINDS",
]

# the split of each product kind on the P side and on the Q side
_SPLITS = {"cup": ("ab", "ab"), "wedge": ("ba", "ab"), "cup10": ("cup1", "ab"),
           "cup01": ("ba", "cup1"), "twist": ("ba", "ba")}
PRODUCT_KINDS = tuple(_SPLITS)


@dataclass
class E0Cochain:
    complex: "BarDoubleComplex"
    i: int
    j: int
    values: np.ndarray

    def is_zero(self) -> bool:
        return not self.values.any()

    def max_residual(self) -> int:
        p = self.complex.p
        if self.is_zero():
            return 0
        r = self.values % p
        return int(np.minimum(r, p - r).max())

    def __add__(self, other):
        self._check(other)
        return E0Cochain(self.complex, self.i, self.j,
                         (self.values + other.values) % self.complex.p)

    def __sub__(self, other):
        self._check(other)
        return E0Cochain(self.complex, self.i, self.j,
                         (self.values - other.values) % self.complex.p)

    def scale(self, c: int):
        return E0Cochain(self.complex, self.i, self.j,
                         (self.values * c) % self.complex.p)

    def _check(self, other):
        if (self.i, self.j) != (other.i, other.j):
            raise GroupError("cochain bidegrees differ")

    @property
    def total_degree(self) -> int:
        return self.i + self.j


def _row_ranges(sizes: tuple, step: int):
    """Consecutive ranges of at most `step` rows that cover the rows of a target
    with mixed-radix digit axes `sizes`.  Each is a box of the axes: its leading
    digits are fixed, one axis runs over a sub-range and the rest are whole, so
    `_face_matrix` can broadcast over it."""
    n = span = unit = math.prod(sizes)
    for s in sizes:
        if unit <= step:
            break
        span, unit = unit, unit // s
    size = min(span, unit * (step // unit))
    for base in range(0, n, span):
        for lo in range(base, base + span, size):
            yield range(lo, min(lo + size, base + span))


def _face_pairs(left, right) -> list:
    """(sign, column vector) of each face pair (ka, kb) of the composite of two
    face matrices, right applied first: row r of the pair's vector is the column
    right_idx[kb][left_idx[ka][r]], and its sign is the product of the faces'."""
    (a, sa), (b, sb) = left, right
    return [(sa[ka] * sb[kb], b[kb].take(a[ka])) for ka in range(len(sa)) for kb in range(len(sb))]


def _uncancelled(pairs: list) -> list:
    """The face pairs left after each one cancels an earlier, still uncancelled
    one of the opposite sign whose vector is equal to it entry for entry.
    Equal vectors agree on a sample of their entries (every (size // 16)-th),
    so the pairs are bucketed by its bytes and compared in full in a bucket."""
    pending: dict[bytes, list] = {}
    for s, v in pairs:
        bucket = pending.setdefault(v[:: max(1, v.size // 16)].tobytes(), [])
        hit = next((k for k, (t, w) in enumerate(bucket) if t == -s and np.array_equal(v, w)), None)
        if hit is None:
            bucket.append((s, v))
        else:
            del bucket[hit]
    return [pair for bucket in pending.values() for pair in bucket]


def _row_residual(pairs: list, p: int) -> int:
    """max min(r, p - r) over the entries r, mod p, of the sum of the face pairs:
    each row's columns are sorted and the signs of equal columns added in int64."""
    if not pairs:
        return 0
    cols = np.stack([v for _, v in pairs], axis=1)  # (rows, pairs)
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    signs = np.array([s for s, _ in pairs], dtype=np.int64)[order]
    starts = np.ones(cols.shape, dtype=bool)
    starts[:, 1:] = cols[:, 1:] != cols[:, :-1]
    r = np.add.reduceat(signs.ravel(), np.flatnonzero(starts)) % p
    return int(np.minimum(r, p - r).max())


class BarDoubleComplex:
    """Cochain arithmetic on Hom_E(P_i (x) Q_j, F_p); the budget is checked
    on the cochains through `bound` here, on face matrices and products later."""

    def __init__(self, spec: ExtensionSpec, bound: int, budget: int = DEFAULT_BUDGET):
        self.spec = spec
        self.p = spec.p
        self.bound = bound
        self.budget = budget
        self.E = build_extension_group(spec, budget)
        self.G = spec.quotient.group_table()
        self.pi = extension_projection(spec, self.E.order)
        self.iota = kernel_injection(spec)
        self.ng = self.G.order
        self.ne = self.E.order
        check_budget(max(self.dim(i, bound - i) for i in range(bound + 1)), budget,
                     f"a cochain of total degree {bound}")
        self._digits: dict = {}
        self._dmat: dict = {}
        self._plans: dict = {}

    # -- bases ---------------------------------------------------------

    def dim(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return self.ng ** (i + 1) * self.ne**j

    def random_cochain(self, rng, i: int, j: int) -> E0Cochain:
        return E0Cochain(self, i, j, rng.randint(0, self.p, size=self.dim(i, j)))

    def unit(self) -> E0Cochain:
        return E0Cochain(self, 0, 0, np.ones(self.ng, dtype=np.int64))

    def _tuple_digits(self, base: int, length: int) -> np.ndarray:
        key = ("dig", base, length)
        if key not in self._digits:
            self._digits[key] = np.indices((base,) * length).reshape(length, base**length).T
        return self._digits[key]

    def index(self, g: int, s: tuple, e: tuple) -> int:
        sizes = (self.ng,) * (len(s) + 1) + (self.ne,) * len(e)
        return int(np.ravel_multi_index((g, *s, *e), sizes))

    # -- differentials ----------------------------------------------------

    def d0_matrix(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self._face_matrix("d0", i, j)

    def d1_matrix(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self._face_matrix("d1", i, j)

    def _target_axes(self, name: str, i: int, j: int):
        """(ti, tj, sizes): the target bidegree of d0 or d1 out of (i, j) and the
        sizes of its digit axes (g, s_1..s_ti, e_1..e_tj)."""
        ti, tj = (i, j + 1) if name == "d0" else (i + 1, j)
        return ti, tj, (self.ng,) * (ti + 1) + (self.ne,) * tj

    def _face_matrix(self, name: str, i: int, j: int,
                     rows: range | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The face matrix (idx, signs) of d0 : (i, j) -> (i, j+1) or
        d1 : (i, j) -> (i+1, j), or of its target rows `rows` alone, a box of the
        digit axes as `_row_ranges` cuts them; only the full matrix is cached.
        Every target row has one entry per face, and an entry's sign depends
        only on its face, so idx is int32 of shape (faces, rows), face-major:
        idx[k, r] is the source column of face k of row r (a row may repeat a
        column), and signs holds the int64 sign of each face, (-1)^(k+i) for d0
        and (-1)^k for d1.  The columns are written by broadcasting over the
        target's digits (g, s_1..s_i, e_1..e_j) in the rows' box.  Face k >= 1
        drops the k-th digit of the moving block (e for d0, s for d1) and keeps
        every other digit at its source weight; face 0 drops the block's first
        digit x, maps g to pi(x)^-1 g (d0) or g x (d1) and each later block digit
        d to x^-1 d.  The budget and the int32 guard bound the rows built."""
        key = (name, i, j)
        if rows is None and key in self._dmat:
            return self._dmat[key]
        d0 = name == "d0"
        ti, tj, sizes = self._target_axes(name, i, j)
        lo, hi = (0, self.dim(ti, tj)) if rows is None else (rows.start, rows.stop)
        n, faces = hi - lo, (tj if d0 else ti) + 1
        what = f"the {name} face matrix out of ({i}, {j})"
        if rows is not None:
            what += f", rows {lo:,}..{hi - 1:,}"
        check_budget(n * faces, self.budget, what)
        if max(n * faces, self.dim(i, j)) > np.iinfo(np.int32).max:
            raise BudgetExceeded(f"{what} needs {n * faces:,} entries, past int32 indices")
        digits = [np.arange(a, b + 1) for a, b in np.unravel_index([lo, hi - 1], sizes)]
        shape = [len(d) for d in digits]  # a non-box range fails the reshape below
        ng, ne, grp = self.ng, self.ne, self.E if d0 else self.G
        weights = [ng ** (i - a) * ne**j for a in range(i + 1)] + [ne**b for b in range(j)][::-1]
        first, stop = (ti + 1, len(sizes)) if d0 else (1, ti + 1)  # the moving block's axes
        move_g = self.G.mul[self.G.inv[self.pi]].T if d0 else self.G.mul  # [g, x]
        move_d = grp.mul[grp.inv]  # [x, d] -> x^-1 d
        on = lambda t, *axes: _on_axes(t.astype(np.int32), axes, shape)
        idx = np.empty((faces, n), dtype=np.int32)
        for k in range(faces):
            drop = first + max(k - 1, 0)
            w = weights[:drop] + [0] + weights[drop:]
            terms = {a: on(digits[a] * w[a], a) for a in range(len(sizes)) if a != drop}
            if k == 0:
                terms[0] = on(move_g[np.ix_(digits[0], digits[first])] * w[0], 0, first)
                terms.update({a: on(move_d[np.ix_(digits[first], digits[a])] * w[a], first, a)
                              for a in range(first + 1, stop)})
            out = idx[k].reshape(shape)
            out[...] = terms.pop(0)
            for t in terms.values():
                out += t
        m = idx, np.array([(-1) ** (k + (i if d0 else 0)) for k in range(faces)], dtype=np.int64)
        if rows is None:
            self._dmat[key] = m
        return m

    def d0(self, c: E0Cochain) -> E0Cochain:
        return E0Cochain(self, c.i, c.j + 1, self._apply(self.d0_matrix(c.i, c.j), c.values))

    def d1(self, c: E0Cochain) -> E0Cochain:
        return E0Cochain(self, c.i + 1, c.j, self._apply(self.d1_matrix(c.i, c.j), c.values))

    def _apply(self, m, values: np.ndarray) -> np.ndarray:
        """The face matrix m on `values`, mod p: each face adds its sign times the
        values at its columns, in blocks of at most as many rows as m has columns."""
        idx, signs = m
        out = np.zeros(idx.shape[1], dtype=np.int64)
        step = len(values)
        for lo in range(0, len(out), step):
            block = out[lo:lo + step]
            for k, s in enumerate(signs):
                block += s * values.take(idx[k, lo:lo + step])
            np.remainder(block, self.p, out=block)
        return out

    def complex_identity_residual(self, max_total: int | None = None) -> int:
        """Exhaustive check of d0^2 = d1^2 = d0 d1 + d1 d0 = 0 on every stored
        bidegree, exact over the integers and reduced mod p once.  The right
        operands, out of (i, j), are the cached matrices.  The left operands, out
        of total degree i + j + 1, are built in row blocks of at most as many
        rows as they have columns, at the point of use, and dropped after the
        block; the blocks of d0 d1 and d1 d0 cover the same rows.  In a block,
        each pair of a left face and a right face is one column vector with one
        sign (`_face_pairs`).  A +sign vector cancels an equal -sign one, which
        adds zero to every row (`_uncancelled`); on a complex nothing is left.
        What is left is summed per row in int64 and only then reduced mod p
        (`_row_residual`), so no sum wraps and none is dropped."""
        top = self.bound if max_total is None else max_total
        worst = 0
        for i in range(top + 1):
            for j in range(top + 1 - i):
                d0, d1 = self.d0_matrix(i, j), self.d1_matrix(i, j)
                for terms in ([(("d0", i, j + 1), d0)], [(("d1", i + 1, j), d1)],
                              [(("d0", i + 1, j), d1), (("d1", i, j + 1), d0)]):
                    step = min(self.dim(a, b) for (_, a, b), _ in terms)
                    for rows in _row_ranges(self._target_axes(*terms[0][0])[2], step):
                        pairs = [pair for left, right in terms
                                 for pair in _face_pairs(self._face_matrix(*left, rows), right)]
                        worst = max(worst, _row_residual(_uncancelled(pairs), self.p))
        return worst

    # -- products ----------------------------------------------------------

    def product(self, a: E0Cochain, b: E0Cochain, kind: str) -> E0Cochain:
        """One of the five chain-level products, by its plan; see the module
        docstring.  Bidegree shifts: cup/wedge/twist (0,0), cup10 (-1,0), cup01 (0,-1)."""
        key = (kind, a.i, a.j, b.i, b.j)
        if key not in self._plans:
            self._plans[key] = self._product_plan(*key)
        ti, tj, shape, plan = self._plans[key]
        out, ia, ib = (np.zeros(shape, dtype=np.int64) for _ in range(3))
        for sign, a_terms, b_terms in plan:
            for idx, c, terms in ((ia, a, a_terms), (ib, b, b_terms)):
                np.copyto(idx, terms[0])
                for t in terms[1:]:
                    idx += t
                c.values.take(idx, out=idx, mode="clip")  # unbuffered: entry r read, then written
            ia *= ib
            (np.add if sign > 0 else np.subtract)(out, ia, out=out)
        return E0Cochain(self, ti, tj, np.remainder(out, self.p, out=out).reshape(-1))

    def _product_plan(self, kind: str, ai: int, aj: int, bi: int, bj: int):
        """(ti, tj, the target's axis sizes, [(sign, a's terms, b's terms)]) of the
        product `kind` of a in (ai, aj) and b in (bi, bj); see the module docstring."""
        if kind not in PRODUCT_KINDS:
            raise GroupError(f"unknown product kind {kind!r}")
        p_split, q_split = _SPLITS[kind]
        ti, tj = ai + bi - (p_split == "cup1"), aj + bj - (q_split == "cup1")
        if ti < 0 or tj < 0:
            raise GroupError("product lands in a negative bidegree")
        if ti + tj > self.bound + 2:
            raise GroupError("product exceeds the stored bidegree bound")
        check_budget(self.dim(ti, tj), self.budget, f"a product in bidegree ({ti}, {tj})")
        ng, ne, G, E = self.ng, self.ne, self.G, self.E
        shape = (ng,) * (ti + 1) + (ne,) * tj
        on = lambda t, *axes: _on_axes(t, axes, shape)
        # the digit on axis d, read relative to the anchor on axis k unless k = 0
        read = lambda grp, k, d: on(grp.mul[grp.inv], k, d) if k else on(np.arange(grp.order), d)
        plan = []
        for p_exp, *p_reads in _side_terms(p_split, ti, ai, bi):
            for q_exp, *q_reads in _side_terms(q_split, tj, aj, bj):
                terms = []
                for (fi, fj), (ps, sk), (qs, ek) in zip(((ai, aj), (bi, bj)), p_reads, q_reads):
                    x = G.mul[on(np.arange(ng), 0), on(np.arange(ng), sk) if sk else G.identity]
                    x = G.mul[G.inv[self.pi[on(np.arange(ne), ti + ek)]], x] if ek else x
                    parts = [x, *(read(G, sk, d) for d in ps),
                             *(read(E, ek and ti + ek, ti + d) for d in qs)]
                    sizes = [ng] * (fi + 1) + [ne] * fj  # the factor's own digit axes
                    terms.append([t * math.prod(sizes[c + 1:]) for c, t in enumerate(parts)])
                plan.append(((-1) ** (p_exp + q_exp + bi * aj + ti * (q_split == "cup1")), *terms))
        return ti, tj, shape, plan


def _on_axes(t: np.ndarray, axes: tuple, shape) -> np.ndarray:
    """t on the digit axes `axes` (in increasing order), broadcast over axes of sizes `shape`."""
    return t.reshape([shape[a] if a in axes else 1 for a in range(len(shape))])


def _side_terms(split: str, t: int, m: int, n: int) -> list:
    """The terms of one side's split (the module docstring's table) of d_1..d_t
    between a of degree m and b of degree n on this side: (sign exponent, then
    for a and for b the positions it reads and the anchor's, 0 for none)."""
    if split == "cup1":  # c = k + n; no term when b has degree 0 on this side
        return [(t + (t - k - 1) * (n - 1), ([*range(1, k + 1), *range(k + n, t + 1)], 0),
                 ([*range(k + 1, k + n + 1)], k)) for k in range(m if n else 0)]
    front = m if split == "ab" else n
    pre, suf = ([*range(1, front + 1)], 0), ([*range(front + 1, t + 1)], front)
    return [(0, pre, suf) if split == "ab" else (m * n, suf, pre)]


def build_double_complex(spec: ExtensionSpec, bound: int,
                         budget: int = DEFAULT_BUDGET) -> BarDoubleComplex:
    return BarDoubleComplex(spec, bound, budget=budget)


# -- the coboundary formulas of the cup-1 products -----------------------


def check_lemma1(cx: BarDoubleComplex, phi: E0Cochain, theta: E0Cochain):
    """Residuals of the four coboundary formulas; all must vanish.

    Returns a list of (name, residual cochain or None when the formula
    has no valid bidegree instance for this pair).  The cup10 and the
    cup01 formulas share d0 and d1 of phi and theta and phi wedge theta,
    which are computed once.  d0 of a top-degree cochain is the largest
    cochain here, so d0(phi) enters both formulas and is dropped before
    d0(theta) is taken.
    """
    kinds = [k for k, on in (("cup10", phi.i + theta.i >= 1), ("cup01", phi.j + theta.j >= 1)) if on]
    out = {}
    if kinds:
        sphi = -1 if (phi.total_degree % 2) else 1
        stw = -1 if (phi.total_degree * theta.total_degree) % 2 else 1
        wedge = cx.product(phi, theta, "wedge")
        c = {k: cx.product(phi, theta, k) for k in kinds}
        d0phi = cx.d0(phi)
        r0 = {k: cx.d0(c[k]) + cx.product(d0phi, theta, k) for k in kinds}
        del d0phi
        d0theta = cx.d0(theta)
        r0 = {k: r + cx.product(phi, d0theta, k).scale(sphi) for k, r in r0.items()}
        del d0theta
        d1phi, d1theta = cx.d1(phi), cx.d1(theta)
        if "cup10" in c:
            out["d0-cup10"] = r0["cup10"]
            out["d1-cup10"] = d1_cup10_residual(cx, phi, theta, c["cup10"], d1phi=d1phi,
                                                d1theta=d1theta, wedge=wedge)
        if "cup01" in c:
            out["d0-cup01"] = r0["cup01"] - wedge + cx.product(theta, phi, "cup").scale(stw)
            out["d1-cup01"] = (cx.d1(c["cup01"]) + cx.product(d1phi, theta, "cup01")
                               + cx.product(phi, d1theta, "cup01").scale(sphi))
    return [(name, out.get(name)) for name in ("d0-cup10", "d1-cup10", "d0-cup01", "d1-cup01")]


def d1_cup10_residual(cx: BarDoubleComplex, phi: E0Cochain, theta: E0Cochain,
                      c10: E0Cochain, *, d1phi: E0Cochain | None = None,
                      d1theta: E0Cochain | None = None,
                      wedge: E0Cochain | None = None) -> E0Cochain:
    """Residual of Steenrod's homotopy between the cup and the wedge
    product along d_1, given c10 = phi cup10 theta (and, when the caller
    has them, d1(phi), d1(theta) and phi wedge theta):

        d1(c10) + d1(phi) cup10 theta + (-1)^{|phi|} phi cup10 d1(theta)
            = phi cup theta - phi wedge theta.
    """
    sphi = -1 if (phi.total_degree % 2) else 1
    d1phi = cx.d1(phi) if d1phi is None else d1phi
    d1theta = cx.d1(theta) if d1theta is None else d1theta
    wedge = cx.product(phi, theta, "wedge") if wedge is None else wedge
    return (
        cx.d1(c10)
        + cx.product(d1phi, theta, "cup10")
        + cx.product(phi, d1theta, "cup10").scale(sphi)
        - cx.product(phi, theta, "cup")
        + wedge
    )


def derivation_residual(cx: BarDoubleComplex, phi: E0Cochain, theta: E0Cochain):
    """d(phi cup theta) - (d phi) cup theta - (-1)^{|phi|} phi cup (d theta)
    for both differentials: the convention self-test."""
    sphi = -1 if phi.total_degree % 2 else 1
    c = cx.product(phi, theta, "cup")
    return max((d(c) - cx.product(d(phi), theta, "cup")
                - cx.product(phi, d(theta), "cup").scale(sphi)).max_residual()
               for d in (cx.d0, cx.d1))


def twist_residual(cx: BarDoubleComplex, phi: E0Cochain, theta: E0Cochain):
    """The third diagonal's product equals (-1)^{|phi||theta|} theta cup phi."""
    s = -1 if (phi.total_degree * theta.total_degree) % 2 else 1
    r = cx.product(phi, theta, "twist") - cx.product(theta, phi, "cup").scale(s)
    return r.max_residual()


# -- the ladder and the t^n recursion -------------------------------------


@dataclass
class LadderData:
    complex: BarDoubleComplex
    u: E0Cochain
    t: E0Cochain
    theta: E0Cochain
    xi_cochain: E0Cochain
    eta1: E0Cochain
    eta2: E0Cochain
    xi_prime_cochain: E0Cochain

    def residuals(self) -> dict[str, int]:
        cx = self.complex
        return {
            "d0(u)": cx.d0(self.u).max_residual(),
            "d1(u)-d0(theta)": (cx.d1(self.u) - cx.d0(self.theta)).max_residual(),
            "d0(xi)": cx.d0(self.xi_cochain).max_residual(),
            "d1(xi)": cx.d1(self.xi_cochain).max_residual(),
            "d0(t)": cx.d0(self.t).max_residual(),
            "d1(t)-d0(eta1)": (cx.d1(self.t) - cx.d0(self.eta1)).max_residual(),
            "d1(eta1)-d0(eta2)": (cx.d1(self.eta1) - cx.d0(self.eta2)).max_residual(),
            "d0(xi')": cx.d0(self.xi_prime_cochain).max_residual(),
            "d1(xi')": cx.d1(self.xi_prime_cochain).max_residual(),
        }


def _standard_kernel_cochain(cx: BarDoubleComplex, degree: int) -> dict[int, int]:
    """Values of the standard generator cochain on kernel bar tuples.

    Degree 1: c -> c mod p.  Degree 2: the carry cocycle of the kernel.
    Returns {flat index at (0, degree): value} over kernel-only tuples.
    """
    spec = cx.spec
    pk = spec.kernel_order
    p = spec.p
    out = {}
    if degree == 1:
        for c in range(pk):
            idx = cx.index(cx.G.identity, (), (int(cx.iota[c]),))
            out[idx] = c % p
    elif degree == 2:
        # label (iota(a), iota(a+b)) is the homogeneous form of the
        # inhomogeneous pair (a, b), where the carry cocycle lives
        for a in range(pk):
            for b in range(pk):
                idx = cx.index(
                    cx.G.identity, (), (int(cx.iota[a]), int(cx.iota[(a + b) % pk]))
                )
                out[idx] = 1 if a + b >= pk else 0
    else:
        raise GroupError("only degrees one and two have standard generators")
    return out


def _ladder_solve(cx, blocks, cols: list[int], rhs, what: str,
                  pinned: dict[int, int] | None = None):
    """Solve A x = rhs with x[idx] = val for each pinned (idx, val) by one dense
    elimination over F_p; free variables are zeroed, so the solution is
    deterministic.  A is the block matrix of the face matrices `blocks` (a list
    of block rows, None a zero block), its block columns `cols` wide; face k of
    a block adds its sign at row r, column idx[k, r]."""
    heights = [next(m[0].shape[1] for m in row if m is not None) for row in blocks]
    pins = sorted((pinned or {}).items())
    n = sum(heights)
    check_budget((n + len(pins)) * sum(cols), cx.budget, f"the dense {what} solve of the ladder")
    a = np.zeros((n + len(pins), sum(cols)), dtype=np.int64)
    r0, c0 = np.cumsum([0, *heights]), np.cumsum([0, *cols])
    for row, top, bottom in zip(blocks, r0, r0[1:]):
        for m, left, right in zip(row, c0, c0[1:]):
            if m is not None:
                np.add.at(a[top:bottom, left:right], (np.arange(bottom - top), m[0]), m[1][:, None])
    target = np.zeros(len(a), dtype=np.int64)
    target[:n] = rhs
    for k, (idx, val) in enumerate(pins, start=n):
        a[k, idx], target[k] = 1, val
    sol = solve_linear(a, target, cx.p)
    if sol is None:
        raise GroupError(f"no {what} solving the ladder")
    return sol


def build_ladder(cx: BarDoubleComplex) -> LadderData:
    """Select u, t by their restriction to kernel-only tuples and solve
    the ladder equations with free variables zeroed."""
    if cx.bound < 3:
        raise GroupError("the ladder needs bidegrees through total degree 3")
    d0, d1, dim = cx.d0_matrix, cx.d1_matrix, cx.dim
    u_vals = _ladder_solve(cx, [[d0(0, 1)]], [dim(0, 1)], 0, "u", _standard_kernel_cochain(cx, 1))
    u = E0Cochain(cx, 0, 1, u_vals)
    t_vals = _ladder_solve(cx, [[d0(0, 2)]], [dim(0, 2)], 0, "t", _standard_kernel_cochain(cx, 2))
    t = E0Cochain(cx, 0, 2, t_vals)
    # theta: d0(theta) = d1(u)
    theta = E0Cochain(cx, 1, 0, _ladder_solve(cx, [[d0(1, 0)]], [dim(1, 0)], cx.d1(u).values,
                                              "theta"))
    xi_cochain = cx.d1(theta)
    # (eta1, eta2): d0(eta1) = d1(t), d1(eta1) = d0(eta2), jointly
    rhs = np.concatenate([cx.d1(t).values, np.zeros(cx.dim(2, 1), dtype=np.int64)])
    idx, signs = d0(2, 0)
    blocks = [[d0(1, 1), None], [d1(1, 1), (idx, -signs)]]
    sol = _ladder_solve(cx, blocks, [dim(1, 1), dim(2, 0)], rhs, "(eta1, eta2)")
    n1 = cx.dim(1, 1)
    eta1 = E0Cochain(cx, 1, 1, sol[:n1])
    eta2 = E0Cochain(cx, 2, 0, sol[n1:])
    xi_prime = cx.d1(eta2)
    return LadderData(cx, u, t, theta, xi_cochain, eta1, eta2, xi_prime)


def build_eta_family(ladder: LadderData, n: int):
    """The cochains eta_1(n)..eta_4(n) of the t^n recursion, plus the
    residuals of the four equations they must satisfy:

        d1(t^n)      = d0(eta1(n))
        d1(eta1(n))  = d0(eta2(n))
        d1(eta2(n))  = n t^{n-1} xi' + d0(eta3(n))
        d1(eta3(n))  = n eta1(n-1) xi' + d0(eta4(n))
    """
    cx = ladder.complex
    cup = lambda a, b: cx.product(a, b, "cup")
    cup10 = lambda a, b: cx.product(a, b, "cup10")
    cup01 = lambda a, b: cx.product(a, b, "cup01")

    # eta_i(m) for m <= n by the recursion; tpow[m] = t^m
    tpow = {0: cx.unit(), 1: ladder.t}
    for m in range(2, n + 1):
        tpow[m] = cup(tpow[m - 1], ladder.t)
    # eta_i(0) and eta_3(1), eta_4(1) are zero; None stands for zero here
    eta: dict[tuple[int, int], E0Cochain | None] = {
        (1, 1): ladder.eta1,
        (2, 1): ladder.eta2,
        (3, 1): None,
        (4, 1): None,
    }
    xi_p = ladder.xi_prime_cochain
    for m in range(2, n + 1):
        e1p, e2p = eta[(1, m - 1)], eta[(2, m - 1)]
        e3p, e4p = eta.get((3, m - 1)), eta.get((4, m - 1))
        e1pp = eta.get((1, m - 2))
        e2pp = eta.get((2, m - 2))
        c = (m - 1) % cx.p
        eta[(1, m)] = cup(e1p, ladder.t) + cup(tpow[m - 1], ladder.eta1)
        eta[(2, m)] = (
            cup(e2p, ladder.t)
            + cup(e1p, ladder.eta1)
            + cup(tpow[m - 1], ladder.eta2)
            - cup(tpow[m - 2], cup10(xi_p, ladder.t)).scale(c)
        )
        e3 = cup(e2p, ladder.eta1) + cup(e1p, ladder.eta2)
        if e3p is not None:
            e3 = e3 + cup(e3p, ladder.t)
        if c:
            if e1pp is not None:
                e3 = e3 - cup(e1pp, cup10(xi_p, ladder.t)).scale(c)
            e3 = e3 - cup(tpow[m - 2], cup10(xi_p, ladder.eta1)).scale(c)
            e3 = e3 + cup(tpow[m - 2], cup01(xi_p, ladder.t)).scale(c)
        eta[(3, m)] = e3
        e4 = cup(e2p, ladder.eta2)
        if e4p is not None:
            e4 = e4 + cup(e4p, ladder.t)
        if e3p is not None:
            e4 = e4 + cup(e3p, ladder.eta1)
        if c:
            if e2pp is not None:
                e4 = e4 - cup(e2pp, cup10(xi_p, ladder.t)).scale(c)
            if e1pp is not None:
                e4 = e4 - cup(e1pp, cup10(xi_p, ladder.eta1)).scale(c)
                e4 = e4 + cup(e1pp, cup01(xi_p, ladder.t)).scale(c)
            e4 = e4 - cup(tpow[m - 2], cup10(xi_p, ladder.eta2)).scale(c)
            e4 = e4 + cup(tpow[m - 2], cup01(xi_p, ladder.eta1)).scale(c)
        eta[(4, m)] = e4

    coeff = n % cx.p
    res1 = cx.d1(tpow[n]) - cx.d0(eta[(1, n)])
    res2 = cx.d1(eta[(1, n)]) - cx.d0(eta[(2, n)])
    res3 = cx.d1(eta[(2, n)]) - cup(tpow[n - 1], xi_p).scale(coeff)
    if eta.get((3, n)) is not None:
        res3 = res3 - cx.d0(eta[(3, n)])
        res4 = cx.d1(eta[(3, n)])
        if n >= 2 and eta[(1, n - 1)] is not None:
            res4 = res4 - cup(eta[(1, n - 1)], xi_p).scale(coeff)
        if eta.get((4, n)) is not None:
            res4 = res4 - cx.d0(eta[(4, n)])
    else:
        res4 = None
    etas = {k: v for k, v in eta.items() if k[1] == n}
    residuals = {
        "ladder-eq1": res1.max_residual(),
        "ladder-eq2": res2.max_residual(),
        "ladder-eq3": res3.max_residual(),
        "ladder-eq4": res4.max_residual() if res4 is not None else 0,
    }
    return etas, residuals


# -- identification of row-zero classes ------------------------------------


def invariant_row_values(cx: BarDoubleComplex, c: E0Cochain) -> np.ndarray:
    """The inhomogeneous cochain w(s) = c[g, s] of a vertical cocycle in
    row zero (such cocycles are constant in the g slot; checked)."""
    if c.j != 0:
        raise GroupError("expected a row-zero cochain")
    vals = c.values.reshape(cx.ng, cx.ng**c.i)
    if not (vals == vals[0]).all():
        raise GroupError("cochain is not a vertical cocycle in row zero")
    return vals[0].copy()


def bar_differential_matrix(cx: BarDoubleComplex, degree: int) -> np.ndarray:
    """Bar differential on inhomogeneous cochains of the quotient group,
    the map induced by d_1 on row-zero vertical cocycles: d_1 restricted
    to g-constant cochains (its rows of one g block, which every g block
    repeats; its columns summed over g, source column g |G|^degree + s
    landing on s)."""
    rows, cols = cx.ng ** (degree + 1), cx.ng**degree
    idx, signs = cx.d1_matrix(degree, 0)
    out = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(out, (np.arange(rows), idx[:, :rows] % cols), signs[:, None])
    return out % cx.p


def monomial_bar_cochain(cx: BarDoubleComplex, cls, degree: int) -> np.ndarray:
    """Inhomogeneous bar cochain representing a monomial class: the
    iterated cup of the standard one- and two-cochains
    y_i(a) = a_i mod p and x_i(a, a') = carry_i(a, a'),
    factors in the monomial's canonical order."""
    q = cx.spec.quotient
    p = cx.p
    out = np.zeros(cx.ng**degree, dtype=np.int64)
    digits = cx._tuple_digits(cx.ng, degree)
    for (eps, pows), coeff in cls.terms.items():
        factors = [("y", i) for i, e in enumerate(eps) if e]
        factors += [("x", i) for i, a in enumerate(pows) for _ in range(a)]
        vals = np.full(cx.ng**degree, coeff % p, dtype=np.int64)
        pos = 0
        prev = np.full(cx.ng**degree, cx.G.identity, dtype=np.int64)  # anchor s_pos
        for kind, i in factors:
            coords = np.array([q.decode(v)[i] for v in range(cx.ng)])
            a1 = cx.G.mul[cx.G.inv[prev], digits[:, pos]]
            if kind == "y":
                vals = (vals * (coords[a1] % p)) % p
            else:
                a2 = cx.G.mul[cx.G.inv[digits[:, pos]], digits[:, pos + 1]]
                vals = vals * (coords[a1] + coords[a2] >= q.factor_orders[i])  # the carry
            pos += 1 if kind == "y" else 2
            prev = digits[:, pos - 1]
        out = (out + vals) % p
    return out


def row_zero_class_report(cx: BarDoubleComplex, ladder: LadderData) -> dict:
    """Compare the ladder's xi and xi' against the extension data.

    The class of xi must equal the mod-p reduction of the extension
    class; the class of xi' must be a unit multiple of the Bockstein
    class (the sign is a convention artifact and is reported)."""
    from .cohomology import bockstein

    p = cx.p
    report = {}
    sq2 = _row_cohomology_subquotient(cx, 2)
    w_xi = invariant_row_values(cx, ladder.xi_cochain)
    got = sq2.reduce(w_xi)
    want = sq2.reduce(monomial_bar_cochain(cx, cx.spec.xi, 2))
    report["xi_class_matches"] = bool((got == want).all())
    sq3 = _row_cohomology_subquotient(cx, 3)
    w_xip = invariant_row_values(cx, ladder.xi_prime_cochain)
    got3 = sq3.reduce(w_xip)
    beta = bockstein(cx.spec.xi)
    want3 = sq3.reduce(monomial_bar_cochain(cx, beta, 3))
    unit = next((c for c in range(1, p) if ((c * want3) % p == got3).all()), None)
    report["xi_prime_is_unit_multiple_of_bockstein"] = unit is not None
    report["xi_prime_unit"] = unit
    report["xi_prime_nonzero"] = bool(got3.any())
    return report


def _row_cohomology_subquotient(cx: BarDoubleComplex, degree: int):
    z, free = kernel_basis(bar_differential_matrix(cx, degree), cx.p)
    b = bar_differential_matrix(cx, degree - 1).T
    return subquotient_of(z, b, cx.ng**degree, cx.p, free)
