"""Free resolutions of F_p over group algebras.

Two constructions: the rank-one periodic resolution of a cyclic group
with differentials alternating (g - 1) and the norm, and tensor products
of resolutions over direct products with the usual Koszul sign
d(a (x) b) = da (x) b + (-1)^|a| a (x) db.  The bar resolution lives only
in the verifier's double complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fplinalg import DEFAULT_BUDGET, check_budget, rank
from .groups import AbelianPGroupSpec, FiniteGroupTable, GroupError, cyclic_group, direct_product

__all__ = [
    "Resolution",
    "cyclic_resolution",
    "tensor_resolution",
    "abelian_minimal_resolution",
    "homology_dims",
]

@dataclass
class Resolution:
    """Graded free modules over F_p[group] with differentials.

    differentials[n-1] is d_n as a flat F_p matrix with entries in
    [0, p), of shape (rank(n-1) |G|) x (rank(n) |G|): module coordinate
    (b, h) at index b |G| + h holds the coefficient of h * gen_b.
    """

    group: FiniteGroupTable
    p: int
    ranks: list[int]
    differentials: list[np.ndarray]
    basis_labels: list[list]
    kind: str

    @property
    def max_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.max_degree else 0

    def labels(self, n: int) -> list:
        return self.basis_labels[n]

    def entry(self, n: int, i: int, j: int) -> np.ndarray:
        """Coefficients over the group of gen_i in d_n(gen_j)."""
        order = self.group.order
        col = j * order + self.group.identity
        return self.differentials[n - 1][i * order : (i + 1) * order, col]

    def check_d_squared(self) -> bool:
        d = self.differentials
        return not any(((a @ b) % self.p).any() for a, b in zip(d, d[1:]))

    def is_minimal(self) -> bool:
        """A p-group, and every differential entry in the augmentation ideal."""
        order = self.group.order
        return self.group.is_p_group(self.p) and not any(
            (d.reshape(d.shape[0] // order, order, d.shape[1]).sum(axis=1) % self.p).any()
            for d in self.differentials
        )


def cyclic_resolution(n_order: int, p: int, max_degree: int) -> Resolution:
    """Rank-one resolution of C_n: d(e_i) = (g-1)e_{i-1} for i odd and
    the norm element times e_{i-1} for i even."""
    g = cyclic_group(n_order)
    one = np.eye(n_order, dtype=np.int64)
    gm1 = (np.roll(one, 1, axis=0) - one) % p  # column h holds g h - h
    norm = np.ones((n_order, n_order), dtype=np.int64)
    return Resolution(
        group=g,
        p=p,
        ranks=[1] * (max_degree + 1),
        differentials=[gm1 if n % 2 else norm for n in range(1, max_degree + 1)],
        basis_labels=[[(n,)] for n in range(max_degree + 1)],
        kind="cyclic",
    )


def _regroup(m: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """Reorder a Kronecker product's coordinates from (alpha, a, beta, b)
    to (alpha, beta, a, b) on both sides; rows and cols give the sizes."""
    return m.reshape(rows + cols).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(
        int(np.prod(rows)), int(np.prod(cols))
    )


def tensor_resolution(a: Resolution, b: Resolution, budget: int = DEFAULT_BUDGET) -> Resolution:
    """Total complex of A (x) B over the direct product group.

    Labels are (label_a, label_b, deg_a, deg_b); generators are ordered
    by ascending deg_a within each total degree.
    """
    if a.p != b.p:
        raise GroupError("tensor factors have different coefficient primes")
    p = a.p
    g = direct_product(a.group, b.group)
    na, nb = a.group.order, b.group.order
    max_degree = min(a.max_degree, b.max_degree)

    labels = [
        [(la, lb, i, n - i) for i in range(n + 1) for la in a.labels(i) for lb in b.labels(n - i)]
        for n in range(max_degree + 1)
    ]
    # first generator of the block A_i (x) B_{n-i} within degree n
    starts = [
        np.cumsum([0] + [a.rank(i) * b.rank(n - i) for i in range(n)])
        for n in range(max_degree + 1)
    ]

    diffs = []
    for n in range(1, max_degree + 1):
        shape = (len(labels[n - 1]) * g.order, len(labels[n]) * g.order)
        check_budget(shape[0] * shape[1], budget, f"d_{n} of the {g.name} tensor resolution")
        d = np.zeros(shape, dtype=np.int64)
        for i in range(n + 1):
            j = n - i
            c0 = starts[n][i] * g.order
            cols = (a.rank(i), na, b.rank(j), nb)
            if i >= 1:
                block = _regroup(
                    np.kron(a.differentials[i - 1], np.eye(b.rank(j) * nb, dtype=np.int64)),
                    (a.rank(i - 1), na, b.rank(j), nb),
                    cols,
                )
                r0 = starts[n - 1][i - 1] * g.order
                d[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
            if j >= 1:
                sign = -1 if i % 2 else 1
                block = _regroup(
                    sign * np.kron(np.eye(a.rank(i) * na, dtype=np.int64), b.differentials[j - 1]),
                    (a.rank(i), na, b.rank(j - 1), nb),
                    cols,
                )
                r0 = starts[n - 1][i] * g.order
                d[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block % p
        diffs.append(d)

    return Resolution(
        group=g,
        p=p,
        ranks=[len(row) for row in labels],
        differentials=diffs,
        basis_labels=labels,
        kind="tensor",
    )


def abelian_minimal_resolution(spec: AbelianPGroupSpec, max_degree: int,
                               budget: int = DEFAULT_BUDGET) -> Resolution:
    """Left-associated tensor of the cyclic resolutions of the factors.

    Labels are flattened to multidegree tuples (d_1, ..., d_r); for the
    trivial group the resolution is F_p concentrated in degree zero.
    """
    if spec.rank == 0:
        ranks = [1] + [0] * max_degree
        return Resolution(
            group=spec.group_table(),
            p=spec.p,
            ranks=ranks,
            differentials=[np.zeros((r, 0), dtype=np.int64) for r in ranks[:-1]],
            basis_labels=[[()]] + [[] for _ in range(max_degree)],
            kind="trivial",
        )
    res = cyclic_resolution(spec.factor_orders[0], spec.p, max_degree)
    for n_ord in spec.factor_orders[1:]:
        res = tensor_resolution(res, cyclic_resolution(n_ord, spec.p, max_degree), budget)
    res.basis_labels = [
        [_flatten_multidegree(lab) for lab in row] for row in res.basis_labels
    ]
    res.kind = "abelian-minimal"
    return res


def _flatten_multidegree(label) -> tuple[int, ...]:
    if (
        isinstance(label, tuple)
        and len(label) == 4
        and isinstance(label[0], tuple)
        and isinstance(label[2], int)
    ):
        la, lb, _, _ = label
        return _flatten_multidegree(la) + _flatten_multidegree(lb)
    if isinstance(label, tuple) and all(isinstance(v, int) for v in label):
        return label
    raise GroupError(f"unexpected tensor label {label!r}")


def homology_dims(res: Resolution, up_to: int) -> list[int]:
    """dim ker(d_n)/im(d_{n+1}) of the underlying F_p complex, with the
    augmentation in degree 0 (a desk-scale exactness check: all zero)."""
    maps = [np.ones((1, res.group.order), dtype=np.int64)] + res.differentials
    out = []
    for n in range(up_to + 1):
        ker = maps[n].shape[1] - rank(maps[n], res.p)
        im = rank(maps[n + 1], res.p) if n + 1 < len(maps) else 0
        out.append(ker - im)
    return out
