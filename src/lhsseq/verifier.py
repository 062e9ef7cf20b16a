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
middle swap, and ti when the cup1 split is on the Q side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _row_blocks(m: sp.csr_matrix):
    """(lo, hi, block): rows lo..hi-1 of a face matrix, as many as it has columns,
    as a view on the stored arrays (m[lo:hi] and scipy's constructor would copy;
    every row holds `faces` entries, so the first offsets of indptr serve every
    block).  scipy upcasts int8 data in every product and sizes a product's
    workspace by its whole left operand, so products run per block."""
    rows, step = m.shape
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        b, (a, z) = sp.csr_matrix((hi - lo, step), dtype=m.dtype), m.indptr[[lo, hi]]
        b.data, b.indices, b.indptr = m.data[a:z], m.indices[a:z], m.indptr[: hi - lo + 1]
        yield lo, hi, b


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

    # -- bases ---------------------------------------------------------

    def dim(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return self.ng ** (i + 1) * self.ne**j

    def zero(self, i: int, j: int) -> E0Cochain:
        return E0Cochain(self, i, j, np.zeros(self.dim(i, j), dtype=np.int64))

    def random_cochain(self, rng, i: int, j: int) -> E0Cochain:
        return E0Cochain(self, i, j, rng.randint(0, self.p, size=self.dim(i, j)))

    def unit(self) -> E0Cochain:
        return E0Cochain(self, 0, 0, np.ones(self.ng, dtype=np.int64))

    def _split_index(self, i: int, j: int):
        """(g, p_tuple, q_tuple) arrays for all indices at (i, j)."""
        key = ("split", i, j)
        if key not in self._digits:
            n = self.dim(i, j)
            qsize = self.ne**j
            psize = self.ng**i
            idx = np.arange(n)
            q = idx % qsize
            rest = idx // qsize
            s = rest % psize
            g = rest // psize
            self._digits[key] = (g, s, q)
        return self._digits[key]

    def _tuple_digits(self, base: int, length: int) -> np.ndarray:
        key = ("dig", base, length)
        if key not in self._digits:
            n = base**length
            out = np.empty((n, length), dtype=np.int64)
            idx = np.arange(n)
            for k in range(length - 1, -1, -1):
                out[:, k] = idx % base
                idx = idx // base
            self._digits[key] = out
        return self._digits[key]

    def index(self, g: int, s: tuple, e: tuple) -> int:
        i, j = len(s), len(e)
        sidx = 0
        for v in s:
            sidx = sidx * self.ng + v
        eidx = 0
        for v in e:
            eidx = eidx * self.ne + v
        return (g * self.ng**i + sidx) * self.ne**j + eidx

    # -- differentials ----------------------------------------------------

    def d0_matrix(self, i: int, j: int) -> sp.csr_matrix:
        return self._face_matrix("d0", i, j)

    def d1_matrix(self, i: int, j: int) -> sp.csr_matrix:
        return self._face_matrix("d1", i, j)

    def _target_axes(self, name: str, i: int, j: int):
        """(ti, tj, sizes): the target bidegree of d0 or d1 out of (i, j) and the
        sizes of its digit axes (g, s_1..s_ti, e_1..e_tj)."""
        ti, tj = (i, j + 1) if name == "d0" else (i + 1, j)
        return ti, tj, (self.ng,) * (ti + 1) + (self.ne,) * tj

    def _face_matrix(self, name: str, i: int, j: int, rows: range | None = None) -> sp.csr_matrix:
        """The CSR matrix of d0 : (i, j) -> (i, j+1) or d1 : (i, j) -> (i+1, j), or
        of its target rows `rows` alone, a box of the digit axes as `_row_ranges`
        cuts them; only the full matrix is cached.  Each target row holds one int8
        sign +-1 per face at the face's int32 source column (a row may repeat a
        column), so products of these matrices cancel exactly and store nothing
        where they vanish.  The columns are written by broadcasting over the
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
        on = lambda t, *axes: t.astype(np.int32).reshape(
            [shape[a] if a in axes else 1 for a in range(len(shape))])
        src = np.empty(n * faces, dtype=np.int32)
        for k in range(faces):
            drop = first + max(k - 1, 0)
            w = weights[:drop] + [0] + weights[drop:]
            terms = {a: on(digits[a] * w[a], a) for a in range(len(sizes)) if a != drop}
            if k == 0:
                terms[0] = on(move_g[np.ix_(digits[0], digits[first])] * w[0], 0, first)
                terms.update({a: on(move_d[np.ix_(digits[first], digits[a])] * w[a], first, a)
                              for a in range(first + 1, stop)})
            out = src.reshape(shape + [faces])[..., k]
            out[...] = terms.pop(0)
            for t in terms.values():
                out += t
        signs = np.array([(-1) ** (k + (i if d0 else 0)) for k in range(faces)], dtype=np.int8)
        m = sp.csr_matrix(
            (np.tile(signs, n), src, np.arange(0, n * faces + 1, faces, dtype=np.int32)),
            shape=(n, self.dim(i, j)),
        )
        if rows is None:
            self._dmat[key] = m
        return m

    def d0(self, c: E0Cochain) -> E0Cochain:
        return E0Cochain(self, c.i, c.j + 1, self._apply(self.d0_matrix(c.i, c.j), c.values))

    def d1(self, c: E0Cochain) -> E0Cochain:
        return E0Cochain(self, c.i + 1, c.j, self._apply(self.d1_matrix(c.i, c.j), c.values))

    def _apply(self, m: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
        out = np.empty(m.shape[0], dtype=np.int64)
        for lo, hi, block in _row_blocks(m):
            np.remainder(block @ values, self.p, out=out[lo:hi])
        return out

    def complex_identity_residual(self, max_total: int | None = None) -> int:
        """Exhaustive check of d0^2 = d1^2 = d0 d1 + d1 d0 = 0 on every
        stored bidegree, via sparse products of the integer face matrices,
        reduced mod p once.  The right operands, out of (i, j), are the cached
        matrices.  The left operands, out of total degree i + j + 1, are built
        in row blocks of at most as many rows as they have columns, at the
        point of use, and each block is dropped after its product; the blocks
        of d0 d1 and d1 d0 cover the same rows and are summed per block.  An
        entry of a @ b is at most faces_a x faces_b times the largest
        |coefficients| (of d0 d1 + d1 d0, the sum of two such bounds); each
        block's product runs in the narrowest type holding its own bound,
        since scipy keeps int8 through a product and wraps silently."""
        top = self.bound if max_total is None else max_total
        p = self.p
        bound = lambda m: int(m.indptr[1]) * max(int(m.data.max()), -int(m.data.min()))
        worst = 0
        for i in range(top + 1):
            for j in range(top + 1 - i):
                d0, d1 = self.d0_matrix(i, j), self.d1_matrix(i, j)
                for terms in ([(("d0", i, j + 1), d0)], [(("d1", i + 1, j), d1)],
                              [(("d0", i + 1, j), d1), (("d1", i, j + 1), d0)]):
                    step = min(self.dim(a, b) for (_, a, b), _ in terms)
                    for rows in _row_ranges(self._target_axes(*terms[0][0])[2], step):
                        lefts = [(self._face_matrix(*left, rows), b) for left, b in terms]
                        dtype = np.min_scalar_type(-sum(bound(a) * bound(b) for a, b in lefts))
                        prods = [a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
                                 for a, b in lefts]
                        r = sum(prods[1:], prods[0]).data % p
                        worst = max(worst, int(np.minimum(r, p - r).max(initial=0)))
        return worst

    # -- products ----------------------------------------------------------

    def product(self, a: E0Cochain, b: E0Cochain, kind: str) -> E0Cochain:
        """One of the five chain-level products; see the module docstring.

        Bidegree shifts: cup/wedge/twist (0,0), cup10 (-1,0), cup01 (0,-1).
        """
        if kind not in PRODUCT_KINDS:
            raise GroupError(f"unknown product kind {kind!r}")
        p_split, q_split = _SPLITS[kind]
        ti = a.i + b.i - (p_split == "cup1")
        tj = a.j + b.j - (q_split == "cup1")
        if ti < 0 or tj < 0:
            raise GroupError("product lands in a negative bidegree")
        if ti + tj > self.bound + 2:
            raise GroupError("product exceeds the stored bidegree bound")
        check_budget(self.dim(ti, tj) * max(ti, tj, 1), self.budget,
                     f"a product in bidegree ({ti}, {tj})")
        ng, ne, mul, inv = self.ng, self.ne, self.G.mul, self.G.inv
        g, s, q = self._split_index(ti, tj)
        value = lambda c, x, pk, qk: c.values[(x * ng**c.i + pk) * ne**c.j + qk]
        q_terms = list(_split_terms(q_split, self._tuple_digits(ne, tj)[q], a.j, b.j, self.E))
        out = np.zeros(len(g), dtype=np.int64)
        for pa, pb, s_anchor, p_exp, p_rel in _split_terms(
                p_split, self._tuple_digits(ng, ti)[s], a.i, b.i, self.G):
            for qa, qb, e_anchor, q_exp, q_rel in q_terms:
                x = {"a": g, "b": g}
                x[p_rel] = mul[x[p_rel], s_anchor]
                x[q_rel] = mul[inv[self.pi[e_anchor]], x[q_rel]]
                sign = (-1) ** (p_exp + q_exp + b.i * a.j + ti * (q_split == "cup1"))
                out += sign * value(a, x["a"], pa, qa) * value(b, x["b"], pb, qb)
        return E0Cochain(self, ti, tj, out % self.p)


def _split_terms(split: str, digits: np.ndarray, m: int, n: int, grp):
    """The terms of one side's split (the module docstring's table) of the
    target digits d_1..d_t, one row per target index, between a of degree m
    and b of degree n on this side: (a's index, b's index, anchor, sign
    exponent, the factor "a" or "b" that reads the relative piece)."""
    rows, t = digits.shape
    radix = lambda d: d @ grp.order ** np.arange(d.shape[1] - 1, -1, -1)
    anchor = lambda k: digits[:, k - 1] if k else np.full(rows, grp.identity)
    rel = lambda x, lo, hi: radix(grp.mul[grp.inv[x][:, None], digits[:, lo:hi]])
    if split == "cup1":
        for k in range(m if n else 0):  # no term when b has degree 0 on this side
            c, x = k + n, anchor(k)
            outer = radix(np.concatenate([digits[:, :k], digits[:, c - 1:]], axis=1))
            yield outer, rel(x, k, c), x, t + (t - k - 1) * (c - k - 1), "b"
    else:
        front = m if split == "ab" else n
        x = anchor(front)
        pre, suf = radix(digits[:, :front]), rel(x, front, t)
        yield (pre, suf, x, 0, "b") if split == "ab" else (suf, pre, x, m * n, "a")


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
            out["d1-cup01"] = cx.d1(c["cup01"]) + cx.product(d1phi, theta, "cup01") + cx.product(
                phi, d1theta, "cup01"
            ).scale(sphi)
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
    r0 = cx.d0(c) - cx.product(cx.d0(phi), theta, "cup") - cx.product(
        phi, cx.d0(theta), "cup"
    ).scale(sphi)
    r1 = cx.d1(c) - cx.product(cx.d1(phi), theta, "cup") - cx.product(
        phi, cx.d1(theta), "cup"
    ).scale(sphi)
    return max(r0.max_residual(), r1.max_residual())


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


def _ladder_solve(cx, blocks, rhs, what: str, pinned: dict[int, int] | None = None):
    """Solve sp.bmat(blocks) x = rhs with x[idx] = val for each pinned (idx, val)
    by one dense elimination over F_p of the blocks upcast from int8; free
    variables are zeroed, so the solution is deterministic."""
    m = sp.bmat(blocks, format="csr", dtype=np.int64)
    pins = sorted((pinned or {}).items())
    rows, cols = m.shape[0] + len(pins), m.shape[1]
    check_budget(rows * cols, cx.budget, f"the dense {what} solve of the ladder")
    a = np.zeros((rows, cols), dtype=np.int64)
    a[: m.shape[0]] = m.toarray()
    target = np.zeros(rows, dtype=np.int64)
    target[: m.shape[0]] = rhs
    for k, (idx, val) in enumerate(pins, start=m.shape[0]):
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
    d0, d1 = cx.d0_matrix, cx.d1_matrix
    u_vals = _ladder_solve(cx, [[d0(0, 1)]], 0, "u", _standard_kernel_cochain(cx, 1))
    u = E0Cochain(cx, 0, 1, u_vals)
    t_vals = _ladder_solve(cx, [[d0(0, 2)]], 0, "t", _standard_kernel_cochain(cx, 2))
    t = E0Cochain(cx, 0, 2, t_vals)
    # theta: d0(theta) = d1(u)
    theta = E0Cochain(cx, 1, 0, _ladder_solve(cx, [[d0(1, 0)]], cx.d1(u).values, "theta"))
    xi_cochain = cx.d1(theta)
    # (eta1, eta2): d0(eta1) = d1(t), d1(eta1) = d0(eta2), jointly
    rhs = np.concatenate([cx.d1(t).values, np.zeros(cx.dim(2, 1), dtype=np.int64)])
    sol = _ladder_solve(cx, [[d0(1, 1), None], [d1(1, 1), -d0(2, 0)]], rhs, "(eta1, eta2)")
    n1 = cx.dim(1, 1)
    eta1 = E0Cochain(cx, 1, 1, sol[:n1])
    eta2 = E0Cochain(cx, 2, 0, sol[n1:])
    xi_prime = cx.d1(eta2)
    return LadderData(
        complex=cx,
        u=u,
        t=t,
        theta=theta,
        xi_cochain=xi_cochain,
        eta1=eta1,
        eta2=eta2,
        xi_prime_cochain=xi_prime,
    )


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
    if eta.get((3, n)) is not None:
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
    repeats; its columns summed over g).  An entry of the int8 block and
    of its sum over g is at most degree + 2, the number of faces per row."""
    rows, cols = cx.ng ** (degree + 1), cx.ng**degree
    block = cx.d1_matrix(degree, 0)[:rows].toarray()
    return block.reshape(rows, cx.ng, cols).sum(axis=1, dtype=np.int64) % cx.p


def monomial_bar_cochain(cx: BarDoubleComplex, cls, degree: int | None = None) -> np.ndarray:
    """Inhomogeneous bar cochain representing a monomial class: the
    iterated cup of the standard one- and two-cochains
    y_i(a) = a_i mod p and x_i(a, a') = carry_i(a, a'),
    factors in the monomial's canonical order."""
    q = cx.spec.quotient
    p = cx.p
    degree = cls.degree if degree is None else degree
    out = np.zeros(cx.ng**degree, dtype=np.int64)
    digits = cx._tuple_digits(cx.ng, degree)
    for (eps, pows), coeff in cls.terms.items():
        factors: list[tuple[str, int]] = []
        for i, e in enumerate(eps):
            if e:
                factors.append(("y", i))
        for i, a in enumerate(pows):
            factors.extend([("x", i)] * a)
        vals = np.full(cx.ng**degree, coeff % p, dtype=np.int64)
        pos = 0
        prev = np.full(cx.ng**degree, cx.G.identity, dtype=np.int64)  # anchor s_pos
        for kind, i in factors:
            if kind == "y":
                a1 = cx.G.mul[cx.G.inv[prev], digits[:, pos]]
                coords = np.array([q.decode(v)[i] for v in range(cx.ng)])
                vals = (vals * (coords[a1] % p)) % p
                prev = digits[:, pos]
                pos += 1
            else:
                a1 = cx.G.mul[cx.G.inv[prev], digits[:, pos]]
                a2 = cx.G.mul[cx.G.inv[digits[:, pos]], digits[:, pos + 1]]
                ni = q.factor_orders[i]
                c1 = np.array([q.decode(v)[i] for v in range(cx.ng)])
                carry = ((c1[a1] + c1[a2]) >= ni).astype(np.int64)
                vals = (vals * carry) % p
                prev = digits[:, pos + 1]
                pos += 2
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
    unit = None
    for c in range(1, p):
        if ((c * want3) % p == got3).all():
            unit = c
            break
    if not want3.any() and not got3.any():
        unit = 1
    report["xi_prime_is_unit_multiple_of_bockstein"] = unit is not None
    report["xi_prime_unit"] = unit
    report["xi_prime_nonzero"] = bool(got3.any())
    return report


def _row_cohomology_subquotient(cx: BarDoubleComplex, degree: int):
    z, free = kernel_basis(bar_differential_matrix(cx, degree), cx.p)
    if degree == 0:
        b = np.zeros((0, cx.ng**degree), dtype=np.int64)
    else:
        b = bar_differential_matrix(cx, degree - 1).T % cx.p
    return subquotient_of(z, b, cx.ng**degree, cx.p, free)
