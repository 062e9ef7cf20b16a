"""Diagonal approximations and the chain homotopies between them.

Maps into tensor powers are stored as equivariant term lists: the value
on a free generator is a list of (coeff, pieces) where each piece is a
(group element, free generator label) pair, one per tensor factor.  The
diagonal group action lets every computation stay on free generators.

Sign conventions, pinned by the coboundary-formula self-test in the
verifier module:
  * tau(a (x) b) = (-1)^{|a||b|} b (x) a;
  * tensor differential d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db;
  * cochain pairing (phi (x) theta)(x (x) y) = phi(x) theta(y), no sign.

The bar resolution's Alexander-Whitney and Steenrod cup-1 maps are not
built here: verifier.BarDoubleComplex.product evaluates them on cochains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fplinalg import DEFAULT_BUDGET, check_budget
from .groups import GroupError
from .resolutions import Resolution

__all__ = [
    "ChainMapToTensor",
    "ce_diagonal",
    "ce_homotopy",
    "cyclic_diagonal",
    "cyclic_triple_homotopy",
    "tensor_diagonal",
    "tensor_homotopy",
    "homotopy_identity_residual",
    "coassociativity_residual",
]

Piece = tuple[int, tuple]
Term = tuple[int, tuple[Piece, ...]]


@dataclass
class ChainMapToTensor:
    """Equivariant chain map (or homotopy) from a resolution into a
    tensor power of itself, stored componentwise."""

    source: Resolution
    factors: int
    degree_shift: int
    components: dict[tuple, dict] = field(default_factory=dict)

    def component(self, n: int, multidegree: tuple[int, ...]) -> dict:
        """{source label: term list} for the given output multidegree."""
        if sum(multidegree) != n + self.degree_shift or len(multidegree) != self.factors:
            return {}
        key = (n, multidegree)
        if key not in self.components:
            self.components[key] = self._build(n, multidegree)
        return self.components[key]

    _builder = None

    def _build(self, n, multidegree):
        if self._builder is None:
            return {}
        return self._builder(n, multidegree)


# -- cyclic resolutions: the periodic diagonal and its homotopy ---------


def ce_diagonal(n_order: int, a: int, b: int) -> list[Term]:
    """Component in bidegree (a, b) of the diagonal on the rank-one
    resolution of a cyclic group of order n_order.

    e_{a+b} -> e_a (x) e_b          (a even)
               e_a (x) g e_b        (a odd, b even)
               sum_{0<=i<j<n} g^i e_a (x) g^j e_b   (a, b odd)
    """
    la, lb = (a,), (b,)
    if a % 2 == 0:
        return [(1, ((0, la), (0, lb)))]
    if b % 2 == 0:
        return [(1, ((0, la), (1 % n_order, lb)))]
    return [
        (1, ((i, la), (j, lb)))
        for i in range(n_order)
        for j in range(i + 1, n_order)
    ]


def ce_homotopy(n_order: int, a: int, b: int, c: int) -> list[Term]:
    """Component (a, b, c) of the coassociativity homotopy: supported on
    all-odd multidegrees, where it is the sum over 0 <= i < j < k < n of
    g^i e_a (x) g^j e_b (x) g^k e_c; the empty sum (n = 2) is zero."""
    if a < 0 or b < 0 or c < 0:
        return []
    if not (a % 2 and b % 2 and c % 2):
        return []
    return [
        (1, ((i, (a,)), (j, (b,)), (k, (c,))))
        for i, j, k in itertools.combinations(range(n_order), 3)
    ]


def cyclic_diagonal(res: Resolution) -> ChainMapToTensor:
    if res.kind != "cyclic":
        raise GroupError("expected a cyclic resolution")
    n_order = res.group.order
    cm = ChainMapToTensor(source=res, factors=2, degree_shift=0)
    for n in range(res.max_degree + 1):
        for a in range(n + 1):
            cm.components[(n, (a, n - a))] = {(n,): ce_diagonal(n_order, a, n - a)}
    return cm


def cyclic_triple_homotopy(res: Resolution) -> ChainMapToTensor:
    if res.kind != "cyclic":
        raise GroupError("expected a cyclic resolution")
    n_order = res.group.order
    cm = ChainMapToTensor(source=res, factors=3, degree_shift=1)
    for n in range(res.max_degree + 1):
        for a in range(n + 2):
            for b in range(n + 2 - a):
                c = n + 1 - a - b
                cm.components[(n, (a, b, c))] = {
                    (n,): ce_homotopy(n_order, a, b, c)
                }
    return cm


# -- tensor combinators -------------------------------------------------


def tensor_diagonal(
    da: ChainMapToTensor, db: ChainMapToTensor, product: Resolution
) -> ChainMapToTensor:
    """(1 (x) tau (x) 1)(Delta_A (x) Delta_B) on the tensor resolution.

    The middle swap contributes (-1)^{deg(second A piece) * deg(first B piece)}.
    """
    if da.source.p != db.source.p:
        raise GroupError("incompatible coefficient primes")
    nb_order = db.source.group.order

    cm = ChainMapToTensor(source=product, factors=2, degree_shift=0)

    def build(n, multidegree):
        (m1, m2) = multidegree
        comp: dict = {}
        for lab in product.labels(n):
            la, lb, i, j = lab
            out = []
            for a1 in range(i + 1):
                a2 = i - a1
                for b1 in range(j + 1):
                    b2 = j - b1
                    if a1 + b1 != m1 or a2 + b2 != m2:
                        continue
                    ca = da.component(i, (a1, a2)).get(la, [])
                    cb = db.component(j, (b1, b2)).get(lb, [])
                    swap = -1 if (a2 * b1) % 2 else 1
                    for sa, ((g1, l1), (g2, l2)) in ca:
                        for sb, ((h1, n1), (h2, n2)) in cb:
                            out.append(
                                (
                                    sa * sb * swap,
                                    (
                                        (g1 * nb_order + h1, (l1, n1, a1, b1)),
                                        (g2 * nb_order + h2, (l2, n2, a2, b2)),
                                    ),
                                )
                            )
            comp[lab] = out
        return comp

    cm._builder = build
    return cm


def tensor_homotopy(
    ha: ChainMapToTensor,
    da: ChainMapToTensor,
    hb: ChainMapToTensor,
    db: ChainMapToTensor,
    product: Resolution,
) -> ChainMapToTensor:
    """Coassociativity homotopy for the tensor diagonal.

    On A_i (x) B_j it is H_A (x) (D_B (x) 1)D_B + (-1)^i (1 (x) D_A)D_A (x) H_B,
    followed by interlacing (a1 a2 a3 b1 b2 b3) -> (a1 b1 a2 b2 a3 b3) with
    sign (-1)^{|b1|(|a2|+|a3|) + |b2||a3|}.
    """
    nb_order = db.source.group.order
    cm = ChainMapToTensor(source=product, factors=3, degree_shift=1)

    def build(n, multidegree):
        comp: dict = {}
        for lab in product.labels(n):
            la, lb, i, j = lab
            out = []
            # all splittings of the A-side and B-side triples
            for atrip in _triples(i + 1):
                for btrip in _triples(j):
                    if tuple(a + b for a, b in zip(atrip, btrip)) != multidegree:
                        continue
                    left = ha.component(i, atrip).get(la, [])
                    right = _iterate_diagonal(db.source, db, j, btrip, lb, first=True)
                    _emit(out, left, right, atrip, btrip, nb_order, 1)
            sign_i = -1 if i % 2 else 1
            for atrip in _triples(i):
                for btrip in _triples(j + 1):
                    if tuple(a + b for a, b in zip(atrip, btrip)) != multidegree:
                        continue
                    left = _iterate_diagonal(da.source, da, i, atrip, la, first=False)
                    right = hb.component(j, btrip).get(lb, [])
                    _emit(out, left, right, atrip, btrip, nb_order, sign_i)
            comp[lab] = out
        return comp

    cm._builder = build
    return cm


def _triples(total: int):
    for a in range(total + 1):
        for b in range(total + 1 - a):
            yield (a, b, total - a - b)


def _emit(out, left, right, atrip, btrip, nb_order, extra_sign):
    interlace = (btrip[0] * (atrip[1] + atrip[2]) + btrip[1] * atrip[2]) % 2
    sign0 = -extra_sign if interlace else extra_sign
    for sa, apieces in left:
        for sb, bpieces in right:
            pieces = tuple(
                (ga * nb_order + gb, (la, lb, da_, db_))
                for (ga, la), (gb, lb), da_, db_ in zip(
                    apieces, bpieces, atrip, btrip
                )
            )
            out.append((sa * sb * sign0, pieces))


# -- identity checking ---------------------------------------------------


def _terms_to_dense(res: Resolution, multidegree, terms, p,
                    budget: int = DEFAULT_BUDGET) -> np.ndarray:
    label_index = [
        {lab: k for k, lab in enumerate(res.labels(d))} for d in multidegree
    ]
    sizes = [res.group.order * len(labels) for labels in label_index]
    total = int(np.prod(sizes))
    check_budget(total, budget, f"a dense vector in tensor multidegree {multidegree}")
    v = np.zeros(total, dtype=np.int64)
    for coeff, pieces in terms:
        idx = 0
        for k, (g, lab) in enumerate(pieces):
            nlab = len(label_index[k])
            idx = idx * sizes[k] + (g * nlab + label_index[k][lab])
        v[idx] = (v[idx] + coeff) % p
    return v


def _apply_tensor_differential(res: Resolution, multidegree, terms):
    """Total differential of the tensor power applied to a term list.

    Returns {lower multidegree: term list}; d acts factorwise with the
    Koszul sign (-1)^{sum of earlier degrees}.
    """
    g = res.group
    out: dict[tuple, list] = {}
    for coeff, pieces in terms:
        for k, (gk, lab) in enumerate(pieces):
            dk = multidegree[k]
            if dk == 0:
                continue
            sign = -1 if sum(multidegree[:k]) % 2 else 1
            col = res.labels(dk).index(lab)
            for row, tgt in enumerate(res.labels(dk - 1)):
                entry = res.entry(dk, row, col)
                for h in np.flatnonzero(entry):
                    c = int(entry[h])
                    new_pieces = list(pieces)
                    new_pieces[k] = (int(g.mul[gk, h]), tgt)
                    nd = tuple(
                        m - 1 if t == k else m for t, m in enumerate(multidegree)
                    )
                    out.setdefault(nd, []).append(
                        (coeff * sign * c, tuple(new_pieces))
                    )
    return out


def _translate(res: Resolution, terms, h: int):
    """Diagonal action of the group element h on a term list."""
    g = res.group
    return [
        (c, tuple((int(g.mul[h, gk]), lab) for gk, lab in pieces))
        for c, pieces in terms
    ]


def homotopy_identity_residual(
    res: Resolution,
    diag: ChainMapToTensor,
    hmap: ChainMapToTensor,
    max_total_degree: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Max residual of dH + Hd = (D (x) 1)D - (1 (x) D)D over all source
    generators and output components with total degree <= max_total_degree;
    each component is a dense vector, checked against the budget."""
    p = res.p
    worst = 0
    for n in range(min(max_total_degree, res.max_degree - 1) + 1):
        for lab_i, lab in enumerate(res.labels(n)):
            sides: dict[tuple, np.ndarray] = {}

            def add(md, terms, sign):
                v = _terms_to_dense(res, md, terms, p, budget) * sign
                sides[md] = (sides.get(md, 0) + v) % p

            # d H(gen)
            for md in _triples(n + 1):
                terms = hmap.component(n, md).get(lab, [])
                for nd, dterms in _apply_tensor_differential(res, md, terms).items():
                    add(nd, dterms, 1)
            # H d(gen)
            if n >= 1:
                for row, tgt in enumerate(res.labels(n - 1)):
                    entry = res.entry(n, row, lab_i)
                    for h in np.flatnonzero(entry):
                        c = int(entry[h])
                        for md in _triples(n):
                            terms = hmap.component(n - 1, md).get(tgt, [])
                            scaled = [(c * tc, pc) for tc, pc in terms]
                            add(md, _translate(res, scaled, h), 1)
            # -(D (x) 1)D + (1 (x) D)D
            for md in _triples(n):
                add(md, _iterate_diagonal(res, diag, n, md, lab, first=True), -1)
                add(md, _iterate_diagonal(res, diag, n, md, lab, first=False), 1)

            for v in sides.values():
                r = v % p
                if r.any():
                    worst = max(worst, int(np.minimum(r, p - r).max()))
    return worst


def _iterate_diagonal(res, diag, n, trip, lab, first: bool):
    gm = res.group.mul
    terms = []
    if first:
        m = trip[0] + trip[1]
        for s0, ((g0, l0), (g3, l3)) in diag.component(n, (m, trip[2])).get(lab, []):
            for s1, ((g1, l1), (g2, l2)) in diag.component(m, (trip[0], trip[1])).get(l0, []):
                terms.append(
                    (
                        s0 * s1,
                        ((int(gm[g0, g1]), l1), (int(gm[g0, g2]), l2), (g3, l3)),
                    )
                )
    else:
        m = trip[1] + trip[2]
        for s0, ((g1, l1), (g0, l0)) in diag.component(n, (trip[0], m)).get(lab, []):
            for s1, ((g2, l2), (g3, l3)) in diag.component(m, (trip[1], trip[2])).get(l0, []):
                terms.append(
                    (
                        s0 * s1,
                        ((g1, l1), (int(gm[g0, g2]), l2), (int(gm[g0, g3]), l3)),
                    )
                )
    return terms


def coassociativity_residual(
    res: Resolution, diag: ChainMapToTensor, max_total_degree: int
) -> int:
    """Max residual of (D (x) 1)D = (1 (x) D)D up to the given degree."""
    p = res.p
    worst = 0
    for n in range(min(max_total_degree, res.max_degree) + 1):
        for lab in res.labels(n):
            for md in _triples(n):
                lhs = _terms_to_dense(
                    res, md, _iterate_diagonal(res, diag, n, md, lab, first=True), p
                )
                rhs = _terms_to_dense(
                    res, md, _iterate_diagonal(res, diag, n, md, lab, first=False), p
                )
                if ((lhs - rhs) % p).any():
                    worst = max(worst, 1)
    return worst
