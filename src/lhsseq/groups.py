"""Finite groups as multiplication tables, and abelian p-group encodings.

Elements are integer indices into a fixed table.  Abelian p-groups carry
a mixed-radix encoding (first factor most significant) that every other
module relies on, so the same element index means the same group element
in the resolutions, the cocycle construction and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .fplinalg import MAX_PRIME

__all__ = [
    "GroupError",
    "FiniteGroupTable",
    "AbelianPGroupSpec",
    "cyclic_group",
    "direct_product",
    "is_prime",
    "smallest_prime_factor",
]


class GroupError(ValueError):
    pass


AXIOM_CHECK_MAX_ORDER = 64


def smallest_prime_factor(n: int) -> int:
    """The smallest prime dividing n >= 2."""
    if n < 2:
        raise GroupError(f"{n} has no prime factor")
    q = 2
    while q * q <= n:
        if n % q == 0:
            return q
        q += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


@dataclass
class FiniteGroupTable:
    """A finite group given by its full multiplication table.

    mul[a, b] is the index of the product ab; identity is index of 1.
    Associativity is checked exhaustively for orders <= 64 and on random
    triples above that (the cocycle constructions guarantee it anyway).
    """

    mul: np.ndarray
    name: str = ""
    identity: int = field(init=False, default=0)
    inv: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        self.mul = np.asarray(self.mul, dtype=np.int64)
        n = self.order
        if self.mul.shape != (n, n):
            raise GroupError("multiplication table must be square")
        ident = [e for e in range(n) if (self.mul[e] == np.arange(n)).all()]
        if not ident or not (self.mul[:, ident[0]] == np.arange(n)).all():
            raise GroupError("no two-sided identity element")
        self.identity = ident[0]
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.nonzero(self.mul[a] == self.identity)[0]
            if hits.size != 1 or self.mul[hits[0], a] != self.identity:
                raise GroupError(f"element {a} has no unique two-sided inverse")
            inv[a] = hits[0]
        self.inv = inv
        self._check_associativity()

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    def _check_associativity(self):
        n = self.order
        if n <= AXIOM_CHECK_MAX_ORDER:
            lhs = self.mul[self.mul[:, :, None], np.arange(n)[None, None, :]]
            rhs = self.mul[np.arange(n)[:, None, None], self.mul[None, :, :]]
            if not (lhs == rhs).all():
                raise GroupError("multiplication table is not associative")
        else:
            rng = np.random.RandomState(0)
            for _ in range(200):
                a, b, c = rng.randint(0, n, size=3)
                if self.mul[self.mul[a, b], c] != self.mul[a, self.mul[b, c]]:
                    raise GroupError("multiplication table is not associative")

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def is_p_group(self, p: int) -> bool:
        """Whether p is prime and the order is a power of p."""
        if not is_prime(p):
            return False
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def centralizes(self, a: int) -> bool:
        return (self.mul[a] == self.mul[:, a]).all()


def cyclic_group(n: int) -> FiniteGroupTable:
    """Z/n with element i = g^i for the generator g = 1."""
    idx = np.arange(n)
    return FiniteGroupTable((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    """A x B with index (i, j) -> i*|B| + j (first factor most significant)."""
    na, nb = a.order, b.order
    ia, ja = np.divmod(np.arange(na * nb), nb)
    mul = (a.mul[ia[:, None], ia[None, :]] * nb) + b.mul[ja[:, None], ja[None, :]]
    return FiniteGroupTable(mul, name=f"{a.name}x{b.name}")


@dataclass(frozen=True)
class AbelianPGroupSpec:
    """C_{p^m1} + ... + C_{p^mr}, the quotient of the extensions we study."""

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.p > MAX_PRIME:
            raise GroupError(f"p = {self.p} exceeds 2^26, the bound of exact F_p arithmetic")
        if not is_prime(self.p):
            raise GroupError(f"p must be a prime, got {self.p}")
        object.__setattr__(self, "exponents", tuple(int(m) for m in self.exponents))
        if any(m < 1 for m in self.exponents):
            raise GroupError("all exponents must be >= 1")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(self.p**m for m in self.exponents)

    @property
    def order(self) -> int:
        return int(np.prod([1] + list(self.factor_orders)))

    def decode(self, idx: int) -> tuple[int, ...]:
        """(a_1, ..., a_r) of a mixed-radix index, first factor most significant."""
        coords = []
        for n in reversed(self.factor_orders):
            coords.append(idx % n)
            idx //= n
        return tuple(reversed(coords))

    def group_table(self) -> FiniteGroupTable:
        if self.rank == 0:
            return FiniteGroupTable(np.zeros((1, 1), dtype=np.int64), name="1")
        tables = [cyclic_group(n) for n in self.factor_orders]
        g = reduce(direct_product, tables)
        g.name = "+".join(f"C{n}" for n in self.factor_orders)
        return g
