"""Central extensions of finite abelian p-groups by cyclic p-groups.

An extension is specified by the prime, the kernel exponent m (kernel
C = Z/p^m), the abelian quotient, and a degree-2 class xi whose mod-p
reduction classifies the extension.  The group is realized on pairs
(c, a) with the standard normalized cocycles: the carry cocycle for a
monomial x_i and the bilinear cocycle a_i * a'_j for a monomial y_i y_j
(i < j), each scaled by the monomial's coefficient.

Only kernel_m = 1 is exercised by the verification suites; larger
kernels are constructed with the same cocycles but flagged experimental.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import CohoClass, bockstein
from .fplinalg import DEFAULT_BUDGET, check_budget
from .groups import AbelianPGroupSpec, FiniteGroupTable, GroupError

__all__ = ["ExtensionSpec", "build_extension_group", "extension_projection"]


@dataclass
class ExtensionSpec:
    """Data of a central extension C_{p^m} -> E -> G with G abelian."""

    p: int
    kernel_m: int
    quotient: AbelianPGroupSpec
    xi: CohoClass
    xi_prime: CohoClass | None = None

    def __post_init__(self):
        if self.kernel_m < 1:
            raise GroupError("kernel exponent must be >= 1")
        if self.quotient.p != self.p:
            raise GroupError("quotient prime does not match the extension prime")
        if self.xi.group != self.quotient:
            raise GroupError("xi must live over the quotient group")
        if not self.xi.is_zero() and self.xi.degree != 2:
            raise GroupError("xi must be homogeneous of degree 2")
        if self.xi_prime is None:
            if self.kernel_m == 1:
                self.xi_prime = bockstein(self.xi)
            else:
                raise GroupError(
                    "kernel exponent > 1 requires an explicit degree-3 class for d3"
                )
        elif not self.xi_prime.is_zero() and self.xi_prime.degree != 3:
            raise GroupError("the d3 class must be homogeneous of degree 3")

    @property
    def kernel_order(self) -> int:
        return self.p**self.kernel_m

    @property
    def experimental(self) -> bool:
        return self.kernel_m > 1

    def describe(self) -> dict:
        return {
            "p": self.p,
            "kernel_m": self.kernel_m,
            "quotient": list(self.quotient.exponents),
            "xi": str(self.xi),
            "xi_prime": str(self.xi_prime),
        }


def _cocycle_table(spec: ExtensionSpec) -> np.ndarray:
    """f(a, a') in Z/p^{kernel_m} for all pairs of quotient elements."""
    q = spec.quotient
    n = q.order
    pk = spec.kernel_order
    coords = np.array([q.decode(i) for i in range(n)], dtype=np.int64)
    f = np.zeros((n, n), dtype=np.int64)
    for (eps, pows), coeff in spec.xi.terms.items():
        ys = [i for i, e in enumerate(eps) if e]
        xs = [i for i, a in enumerate(pows) if a]
        if len(ys) == 2 and not xs:
            i, j = ys
            vals = (coords[:, i][:, None] * coords[None, :, j]) % spec.p
        elif len(xs) == 1 and pows[xs[0]] == 1 and not ys:
            i = xs[0]
            ni = q.factor_orders[i]
            vals = ((coords[:, i][:, None] + coords[None, :, i]) >= ni).astype(np.int64)
        else:
            raise GroupError(
                f"unsupported degree-2 monomial in the extension class: "
                f"{CohoClass(q, {(eps, pows): 1})}"
            )
        # scalar coefficients act through the canonical embedding of F_p
        # into Z/p^{kernel_m} (multiply by p^{m-1}); without the embedding
        # the mod-p cocycle identity would not survive into the larger kernel
        embed = pk // spec.p
        f = (f + ((coeff * vals) % spec.p) * embed) % pk
    return f


def build_extension_group(spec: ExtensionSpec, budget: int = DEFAULT_BUDGET) -> FiniteGroupTable:
    """Multiplication table of E on pairs (c, a), index c*|G| + index(a).

    (c, a)(c', a') = (c + c' + f(a, a'), a + a') with f the cocycle sum.
    Its |E|^2 entries, more than any other table here, are checked first.
    """
    q = spec.quotient
    ng = q.order
    pk = spec.kernel_order
    size = pk * ng
    check_budget(size * size, budget, f"the multiplication table of a group of order {size}")
    f = _cocycle_table(spec)
    qt = q.group_table()
    c_idx, a_idx = np.divmod(np.arange(size), ng)
    c_sum = (c_idx[:, None] + c_idx[None, :] + f[a_idx[:, None], a_idx[None, :]]) % pk
    a_sum = qt.mul[a_idx[:, None], a_idx[None, :]]
    table = FiniteGroupTable(c_sum * ng + a_sum, name=f"E({spec.xi})")
    # the kernel must be central and the quotient must be the given group
    for c in range(pk):
        if not table.centralizes(c * ng):
            raise GroupError("constructed kernel is not central")
    return table


def extension_projection(spec: ExtensionSpec, size: int | None = None) -> np.ndarray:
    """Index map E -> G for the group built by build_extension_group."""
    ng = spec.quotient.order
    size = spec.kernel_order * ng if size is None else size
    return np.arange(size) % ng


def kernel_injection(spec: ExtensionSpec) -> np.ndarray:
    """Index map C -> E: c -> c * |G|."""
    return np.arange(spec.kernel_order) * spec.quotient.order
