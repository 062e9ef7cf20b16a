"""The mod-p cohomology ring of a finite abelian p-group.

H*(C_{p^m1} + ... + C_{p^mr}) is generated by y_1..y_r in degree one and
x_1..x_r in degree two, with y_i^2 = 0 for p^{m_i} > 2 and y_i^2 = x_i
when p^{m_i} = 2.  Classes are stored as reduced monomial sums.

The Bockstein and the Massey triple product both go through one
primitive, the graded derivation d_k that removes y_k (contract):

    beta(a)    = sum over k with m_k = 1 of x_k d_k(a)
    h(a, b, c) = (-1)^(|b|+1) sum_k C(p^{m_k}, 3) x_k d_k(a) d_k(b) d_k(c)

Massey triple products are computed on the minimal resolution, where
cochain differentials vanish: the defining-system terms can be taken to
be zero and the product is the value h of the coassociativity homotopy.
On one cyclic factor C_n that homotopy is supported on all-odd degrees,
where it sums over the index triples i < j < k < n, so it pairs with
three odd duals to C(n, 3).  Each term of the homotopy on a product of
resolutions applies the homotopy of exactly one factor and the diagonals
of the others, hence the sum over k.  C(p^m, 3) is divisible by p unless
p^m = 3, so h lives only on C_3 factors, where h(y, y, y) = x is
Kraines' <y>^3 = beta(y) up to sign (D. Kraines, "Massey higher
products", Trans. AMS 124, 1966).

RingContext gives the same ring as matrices on the monomial basis, built
by index arithmetic.  Each monomial of H^n has an int64 code (mixed
radix: eps digits in radix 2, then x powers in radix n//2 + 1; every
code is below 2^r (n//2 + 1)^r, checked < 2^63), and codes sort in
basis order.  The product table of a monomial and a degree holds each
basis monomial's product index (np.searchsorted on the codes, -1 where
y_i^2 = 0 kills it) and Koszul sign; multiplication_matrix sums
coefficient times table over a class's terms.  contraction_matrix is
d_k.  With them the Massey map chi -> h(xi', chi, xi) of the engine is
one composition: moving d_k(xi), of degree one, to the front of
d_k(xi') d_k(chi) costs (-1)^(|chi|+1), which cancels the sign of h, so

    h(xi', chi, xi) = sum_k C(p^{m_k}, 3) (x_k d_k(xi) d_k(xi')) d_k(chi).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .fplinalg import solve_linear
from .groups import AbelianPGroupSpec, GroupError

__all__ = [
    "CohoClass",
    "MasseyResult",
    "MasseyUndefinedError",
    "cup",
    "contract",
    "bockstein",
    "massey_triple",
    "monomial_basis",
    "RingContext",
]

# monomial key: (eps, powers) with eps in {0,1}^r, powers in N^r
Monomial = tuple[tuple[int, ...], tuple[int, ...]]


class MasseyUndefinedError(ValueError):
    """Raised when a Massey triple product is requested for ab != 0 or bc != 0."""


def _monomial_degree(mon: Monomial) -> int:
    eps, pows = mon
    return sum(eps) + 2 * sum(pows)


@dataclass(frozen=True)
class CohoClass:
    """Homogeneous element of H*(G; F_p) for G finite abelian, as a
    reduced sum of monomials y^eps * x^pows."""

    group: AbelianPGroupSpec
    terms: dict[Monomial, int] = field(default_factory=dict)
    degree: int = 0

    def __post_init__(self):
        p = self.group.p
        clean = {}
        deg = None
        for mon, c in self.terms.items():
            c %= p
            if not c:
                continue
            eps, pows = mon
            if len(eps) != self.group.rank or len(pows) != self.group.rank:
                raise GroupError("monomial rank does not match the group")
            d = _monomial_degree(mon)
            if deg is None:
                deg = d
            elif d != deg:
                raise GroupError("class is not homogeneous")
            clean[(tuple(eps), tuple(pows))] = c
        object.__setattr__(self, "terms", clean)
        if clean:
            object.__setattr__(self, "degree", deg)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, group: AbelianPGroupSpec, degree: int = 0) -> "CohoClass":
        return cls(group, {}, degree)

    @classmethod
    def one(cls, group: AbelianPGroupSpec) -> "CohoClass":
        r = group.rank
        return cls(group, {((0,) * r, (0,) * r): 1})

    @classmethod
    def monomial(cls, group, eps, pows, coeff: int = 1) -> "CohoClass":
        mon = _reduce_monomial(group, tuple(eps), tuple(pows))
        if mon is None:
            return cls.zero(group)
        return cls(group, {mon: coeff})

    @classmethod
    def y(cls, group, i: int) -> "CohoClass":
        eps = [0] * group.rank
        eps[i] = 1
        return cls.monomial(group, eps, (0,) * group.rank)

    @classmethod
    def x(cls, group, i: int) -> "CohoClass":
        pows = [0] * group.rank
        pows[i] = 1
        return cls.monomial(group, (0,) * group.rank, pows)

    # -- basic algebra -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CohoClass") -> "CohoClass":
        self._check(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            terms[mon] = terms.get(mon, 0) + c
        deg = self.degree if self.terms else other.degree
        return CohoClass(self.group, terms, deg)

    def __sub__(self, other: "CohoClass") -> "CohoClass":
        return self + other.scale(-1)

    def __neg__(self) -> "CohoClass":
        return self.scale(-1)

    def scale(self, c: int) -> "CohoClass":
        return CohoClass(self.group, {m: v * c for m, v in self.terms.items()}, self.degree)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return cup(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, CohoClass)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.terms.items()))))

    def _check(self, other: "CohoClass"):
        if self.group != other.group:
            raise GroupError("classes live over different groups")
        if self.terms and other.terms and self.degree != other.degree:
            raise GroupError("classes are not of equal degree")

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        p = self.group.p
        parts = []
        for mon in sorted(self.terms):
            c = self.terms[mon] % p
            if c > p - c:  # symmetric coefficient range for readability
                c, sign = p - c, "-"
            else:
                sign = "+"
            body = _monomial_str(mon)
            if body == "1":
                term = str(c)
            elif c == 1:
                term = body
            else:
                term = f"{c}*{body}"
            parts.append((sign, term))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    __repr__ = __str__


def _monomial_str(mon: Monomial) -> str:
    eps, pows = mon
    bits = []
    for i, a in enumerate(pows):
        if a == 1:
            bits.append(f"x{i + 1}")
        elif a > 1:
            bits.append(f"x{i + 1}^{a}")
    bits.extend(f"y{i + 1}" for i, e in enumerate(eps) if e)
    return "*".join(bits) if bits else "1"


def _reduce_monomial(group, eps, pows):
    """Apply y_i^2 = x_i (p^{m_i}=2) or y_i^2 = 0 reductions.

    eps entries may exceed 1 transiently during multiplication.  Returns
    the monomial, or None when it dies.
    """
    eps = list(eps)
    pows = list(pows)
    for i, e in enumerate(eps):
        if e >= 2:
            if group.factor_orders[i] == 2:
                pows[i] += e // 2
                eps[i] = e % 2
            else:
                return None
    return tuple(eps), tuple(pows)


def _koszul_sign(eps1, eps2) -> int:
    """Sign of interleaving y^eps2 into y^eps1 keeping index order:
    each y_j in eps2 moves past the y_i of eps1 with i > j."""
    inv = 0
    total1 = sum(eps1)
    seen = 0
    for j in range(len(eps2)):
        seen += eps1[j]
        if eps2[j]:
            inv += total1 - seen
    return -1 if inv % 2 else 1


def cup(a: CohoClass, b: CohoClass) -> CohoClass:
    """Graded-commutative product, Koszul signs on the exterior parts."""
    if a.group != b.group:
        raise GroupError("classes live over different groups")
    group = a.group
    p = group.p
    terms: dict[Monomial, int] = {}
    for (e1, a1), c1 in a.terms.items():
        for (e2, a2), c2 in b.terms.items():
            sign = _koszul_sign(e1, e2)
            eps = tuple(u + v for u, v in zip(e1, e2))
            pows = tuple(u + v for u, v in zip(a1, a2))
            mon = _reduce_monomial(group, eps, pows)
            if mon is None:
                continue
            terms[mon] = terms.get(mon, 0) + sign * c1 * c2
    deg = a.degree + b.degree
    return CohoClass(group, terms, deg)


def contract(a: CohoClass, k: int) -> CohoClass:
    """d_k, the graded derivation that removes y_k:
    d_k(y^eps x^pows) = (-1)^(eps_1+...+eps_{k-1}) y^(eps-e_k) x^pows
    when eps_k = 1, and 0 otherwise."""
    terms = {}
    for (eps, pows), c in a.terms.items():
        if eps[k]:
            sign = -1 if sum(eps[:k]) % 2 else 1
            terms[(eps[:k] + (0,) + eps[k + 1:], pows)] = sign * c
    return CohoClass(a.group, terms, a.degree - 1)


def bockstein(a: CohoClass) -> CohoClass:
    """The mod-p Bockstein, sum over the factors of exponent one of
    x_k d_k(a): beta(y_k) = x_k on them and beta(x_k) = 0."""
    group = a.group
    out = CohoClass.zero(group, a.degree + 1)
    for k, m in enumerate(group.exponents):
        if m == 1:
            out = out + cup(CohoClass.x(group, k), contract(a, k))
    return out


def monomial_basis(group: AbelianPGroupSpec, degree: int) -> list[Monomial]:
    """Deterministically ordered monomial basis of H^degree(G)."""
    r = group.rank
    basis = []
    for eps in itertools.product(range(2), repeat=r):
        rem = degree - sum(eps)
        if rem < 0 or rem % 2:
            continue
        for pows in _compositions(rem // 2, r):
            basis.append((eps, pows))
    return sorted(basis)


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- Massey triple products ------------------------------------------


def triple_h(a: CohoClass, b: CohoClass, c: CohoClass) -> CohoClass:
    """The coassociativity-homotopy pairing on the minimal resolution,
    (-1)^(|b|+1) sum_k C(p^{m_k}, 3) x_k d_k(a) d_k(b) d_k(c)."""
    group = a.group
    sign = 1 if b.degree % 2 else -1
    out = CohoClass.zero(group, a.degree + b.degree + c.degree - 1)
    for k, order in enumerate(group.factor_orders):
        coeff = comb(order, 3) % group.p
        if coeff:
            abc = cup(cup(contract(a, k), contract(b, k)), contract(c, k))
            out = out + cup(CohoClass.x(group, k), abc).scale(sign * coeff)
    return out


@dataclass
class MasseyResult:
    representative: CohoClass
    indeterminacy_basis: list[CohoClass]

    def contains_zero(self) -> bool:
        """True when the representative lies in the indeterminacy span."""
        if self.representative.is_zero():
            return True
        if not self.indeterminacy_basis:
            return False
        rep = self.representative
        ring = RingContext(rep.group)
        span = np.array([ring.to_vector(c, rep.degree) for c in self.indeterminacy_basis])
        return solve_linear(span.T, ring.to_vector(rep), rep.group.p) is not None


def massey_triple(a: CohoClass, b: CohoClass, c: CohoClass) -> MasseyResult:
    """The Massey triple product <a, b, c>.

    Defined exactly when ab = 0 and bc = 0 (cochains on the minimal
    resolution are cohomology, so vanishing is exact).  The returned
    representative is h(a, b, c); the indeterminacy basis spans
    a*H^{|b|+|c|-1} + H^{|a|+|b|-1}*c.
    """
    if a.group != b.group or b.group != c.group:
        raise GroupError("classes live over different groups")
    if not cup(a, b).is_zero() or not cup(b, c).is_zero():
        raise MasseyUndefinedError(
            "Massey product undefined: one of the adjacent products is nonzero"
        )
    rep = triple_h(a, b, c)
    indet = indeterminacy_basis(a, b, c)
    return MasseyResult(representative=rep, indeterminacy_basis=indet)


def indeterminacy_basis(a: CohoClass, b: CohoClass, c: CohoClass) -> list[CohoClass]:
    group = a.group
    out = []
    d_right = b.degree + c.degree - 1
    d_left = a.degree + b.degree - 1
    if d_right >= 0:
        for mon in monomial_basis(group, d_right):
            prod = cup(a, CohoClass(group, {mon: 1}))
            if not prod.is_zero():
                out.append(prod)
    if d_left >= 0:
        for mon in monomial_basis(group, d_left):
            prod = cup(CohoClass(group, {mon: 1}), c)
            if not prod.is_zero():
                out.append(prod)
    return out


# -- ring maps on the monomial basis (used by the spectral sequence engine)


class RingContext:
    """Cached basis/matrix views of H*(G) as F_p vector spaces.  The basis
    of H^n is also kept as two int arrays, eps and pows (one row per
    monomial), with the monomials' codes (see the module docstring)."""

    def __init__(self, group: AbelianPGroupSpec):
        self.group = group
        self.p = group.p
        self._bases: dict[int, list[Monomial]] = {}
        self._index: dict[int, dict[Monomial, int]] = {}
        self._arrays: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._order_two = np.array([o == 2 for o in group.factor_orders], dtype=bool)

    def basis(self, degree: int) -> list[Monomial]:
        if degree not in self._bases:
            b = monomial_basis(self.group, degree) if degree >= 0 else []
            self._bases[degree] = b
            self._index[degree] = {m: i for i, m in enumerate(b)}
        return self._bases[degree]

    def dim(self, degree: int) -> int:
        return len(self.basis(degree))

    def to_vector(self, cls: CohoClass, degree: int | None = None) -> np.ndarray:
        degree = cls.degree if degree is None else degree
        self.basis(degree)
        v = np.zeros(self.dim(degree), dtype=np.int64)
        for m, c in cls.terms.items():
            v[self._index[degree][m]] = c
        return v

    def _codes(self, eps: np.ndarray, pows: np.ndarray, degree: int) -> np.ndarray:
        """Codes of the monomials (rows of eps, pows) of H^degree.  The
        largest is below 2^r (degree//2 + 1)^r, which must be below 2^63."""
        r = self.group.rank
        radix = max(degree, 0) // 2 + 1
        if 2**r * radix**r >= 2**63:
            raise GroupError(f"monomial codes of degree {degree} at rank {r} overflow int64")
        weights = [radix**r * 2 ** (r - 1 - i) for i in range(r)]
        weights += [radix ** (r - 1 - i) for i in range(r)]
        return np.concatenate([eps, pows], axis=1) @ np.array(weights, dtype=np.int64)

    def _basis_arrays(self, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eps, pows and codes of the basis of H^degree."""
        if degree not in self._arrays:
            b, r = self.basis(degree), self.group.rank
            eps = np.array([m[0] for m in b], dtype=np.int64).reshape(len(b), r)
            pows = np.array([m[1] for m in b], dtype=np.int64).reshape(len(b), r)
            codes = self._codes(eps, pows, degree)
            assert (np.diff(codes) > 0).all(), "monomial codes are out of basis order"
            self._arrays[degree] = eps, pows, codes
        return self._arrays[degree]

    def _lookup(self, eps: np.ndarray, pows: np.ndarray, degree: int) -> np.ndarray:
        """Basis indices of monomials of H^degree (rows of eps, pows)."""
        codes = self._codes(eps, pows, degree)
        basis_codes = self._basis_arrays(degree)[2]
        idx = np.searchsorted(basis_codes, codes)
        assert (idx < len(basis_codes)).all() and (basis_codes[idx] == codes).all(), \
            "a monomial is missing from the basis"
        return idx

    def _product_table(self, mon: Monomial, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Left multiplication by the monomial mon on the basis of H^degree:
        each product's index in the basis of H^{degree+|mon|} (-1 where it
        dies) and its Koszul sign (see _koszul_sign)."""
        e, a = (np.array(v, dtype=np.int64) for v in mon)
        eps, pows, _ = self._basis_arrays(degree)
        E, P = eps + e, pows + a
        square = E == 2
        live = ~(square & ~self._order_two).any(axis=1)  # y_i^2 = 0
        P += square & self._order_two  # y_i^2 = x_i on a factor of order two
        E[square] = 0
        suffix = e.sum() - np.cumsum(e)  # the y_i of mon with i > j
        sign = 1 - 2 * ((eps @ suffix) % 2)
        idx = np.full(len(eps), -1, dtype=np.int64)
        idx[live] = self._lookup(E[live], P[live], degree + _monomial_degree(mon))
        return idx, sign

    def multiplication_matrix(self, cls: CohoClass, degree: int) -> np.ndarray:
        """Matrix of (left) multiplication by cls: H^degree -> H^{degree+|cls|};
        rows index the target basis, columns the source basis, entries are
        residues mod p.  The sum over the terms c*mon of cls of c times the
        product table of mon."""
        m = np.zeros((self.dim(degree + cls.degree), self.dim(degree)), dtype=np.int64)
        cols = np.arange(m.shape[1])
        for mon, c in cls.terms.items():
            idx, sign = self._product_table(mon, degree)
            live = idx >= 0
            np.add.at(m, (idx[live], cols[live]), c * sign[live])
        return m % self.p

    def contraction_matrix(self, k: int, degree: int) -> np.ndarray:
        """Matrix of d_k (see contract): H^degree -> H^{degree-1}, entries
        residues mod p."""
        eps, pows, _ = self._basis_arrays(degree)
        cols = np.flatnonzero(eps[:, k])
        E = eps[cols]
        E[:, k] = 0
        m = np.zeros((self.dim(degree - 1), self.dim(degree)), dtype=np.int64)
        m[self._lookup(E, pows[cols], degree - 1), cols] = 1 - 2 * (E[:, :k].sum(axis=1) % 2)
        return m % self.p
