"""Free resolutions of F_p over group algebras.

Two constructions: the rank-one periodic resolution of a cyclic group
with differentials alternating (g - 1) and the norm, and tensor products
of resolutions over direct products with the usual Koszul sign
d(a (x) b) = da (x) b + (-1)^|a| a (x) db.  The bar resolution lives only
in the verifier's double complex.

A differential is stored as its generators' images.  Coordinate (b, h)
of a free module, at index b |G| + h, is the coefficient of h * gen_b.
Left multiplication by g permutes them, (g v)[b, g h] = v[b, h], and
d(g gen_c) = g d(gen_c), so the image of each generator fixes the |G|
columns of its translates.
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


def _act_matrix(group: FiniteGroupTable, g: int, n_blocks: int) -> np.ndarray:
    """Gather indices for left multiplication on n_blocks free generators:
    (g v) = v[perm], perm[b, x] = (b, g^-1 x)."""
    return (np.arange(n_blocks)[:, None] * group.order + group.mul[group.inv[g]]).ravel()


def _module_rows(group: FiniteGroupTable, img: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Rows of the flat F_p matrix of the module map with generator images
    img: column c |G| + g is g * img[:, c], row r of it img[perm_g[r], c]."""
    n_blocks = img.shape[0] // group.order
    perms = np.stack([_act_matrix(group, g, n_blocks)[rows] for g in range(group.order)])
    return img[perms].transpose(1, 2, 0).reshape(perms.shape[1], img.shape[1] * group.order)


@dataclass
class Resolution:
    """Graded free modules over F_p[group] with differentials.

    images[n-1] is d_n as its generators' images, entries in [0, p), of
    shape (rank(n-1) |G|) x rank(n): column c is d_n(gen_c) in coordinates
    (b, h) of F_{n-1}.  Column g * gen_c of the module matrix is a
    permutation of column c, so ``dense(n)`` rebuilds it by one gather.
    """

    group: FiniteGroupTable
    p: int
    ranks: list[int]
    images: list[np.ndarray]
    basis_labels: list[list]
    kind: str

    @property
    def max_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        return self.ranks[n] if 0 <= n <= self.max_degree else 0

    def labels(self, n: int) -> list:
        return self.basis_labels[n]

    def dense(self, n: int) -> np.ndarray:
        """d_n as the flat F_p matrix, (rank(n-1) |G|) x (rank(n) |G|): column
        c |G| + g is g * d_n(gen_c)."""
        return _module_rows(self.group, self.images[n - 1])

    @property
    def differentials(self) -> list[np.ndarray]:
        """Every d_n as ``dense(n)``, read only by the certificate code."""
        return [self.dense(n) for n in range(1, self.max_degree + 1)]

    def entry(self, n: int, i: int, j: int) -> np.ndarray:
        """Coefficients over the group of gen_i in d_n(gen_j)."""
        return self.images[n - 1][i * self.group.order : (i + 1) * self.group.order, j]

    def check_d_squared(self) -> bool:
        """d_n d_{n+1} = 0, a module map, vanishes on the generators of F_{n+1}."""
        return not any(((self.dense(n) @ self.images[n]) % self.p).any()
                       for n in range(1, self.max_degree))

    def is_minimal(self) -> bool:
        """A p-group, and every differential entry in the augmentation ideal
        (the augmentation of a translate is that of its generator's image)."""
        order = self.group.order
        return self.group.is_p_group(self.p) and not any(
            (d.reshape(d.shape[0] // order, order, d.shape[1]).sum(axis=1) % self.p).any()
            for d in self.images
        )


def cyclic_resolution(n_order: int, p: int, max_degree: int) -> Resolution:
    """Rank-one resolution of C_n: d(e_i) = (g-1)e_{i-1} for i odd and
    the norm element times e_{i-1} for i even."""
    g = cyclic_group(n_order)
    e = np.eye(n_order, 1, dtype=np.int64)  # the identity, as one column
    gm1 = (np.roll(e, 1, axis=0) - e) % p
    norm = np.ones((n_order, 1), dtype=np.int64)
    return Resolution(
        group=g,
        p=p,
        ranks=[1] * (max_degree + 1),
        images=[gm1 if n % 2 else norm for n in range(1, max_degree + 1)],
        basis_labels=[[(n,)] for n in range(max_degree + 1)],
        kind="cyclic",
    )


def tensor_resolution(a: Resolution, b: Resolution, budget: int = DEFAULT_BUDGET) -> Resolution:
    """Total complex of A (x) B over the direct product group.

    Labels are (label_a, label_b, deg_a, deg_b); generators are ordered
    by ascending deg_a within each total degree, and within the block
    A_i (x) B_j by (alpha, beta).  The image of gen_alpha (x) gen_beta is
    d(gen_alpha) (x) gen_beta, at the product group's coordinates (x, e_B),
    plus (-1)^i gen_alpha (x) d(gen_beta), at (e_A, y).
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

    def gens(n: int, i: int) -> np.ndarray:
        """Index in degree n of gen_alpha (x) gen_beta of A_i (x) B_{n-i}, on (alpha, beta)."""
        shape = (a.rank(i), b.rank(n - i))
        first = sum(a.rank(k) * b.rank(n - k) for k in range(i))
        return first + np.arange(shape[0] * shape[1]).reshape(shape)

    images = []
    for n in range(1, max_degree + 1):
        rows, cols = len(labels[n - 1]), len(labels[n])
        check_budget(rows * g.order * cols, budget, f"d_{n} of the {g.name} tensor resolution")
        img = np.zeros((rows, na, nb, cols), dtype=np.int64)  # (gen', x, y, gen)
        for i in range(n + 1):
            c = gens(n, i)
            if i >= 1:
                da = a.images[i - 1].reshape(a.rank(i - 1), na, a.rank(i))
                r = gens(n - 1, i - 1)  # on (alpha', beta)
                img[r[:, None, None, :], np.arange(na)[:, None, None], b.group.identity,
                    c] = da[..., None]
            if i < n:
                db = b.images[n - i - 1].reshape(b.rank(n - i - 1), nb, b.rank(n - i))
                r = gens(n - 1, i)  # on (alpha, beta')
                img[r[:, :, None, None], a.group.identity, np.arange(nb)[:, None],
                    c[:, None, None, :]] = (-1) ** i * db % p
        images.append(img.reshape(rows * g.order, cols))

    return Resolution(
        group=g,
        p=p,
        ranks=[len(row) for row in labels],
        images=images,
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
            images=[np.zeros((r, 0), dtype=np.int64) for r in ranks[:-1]],
            basis_labels=[[()]] + [[] for _ in range(max_degree)],
            kind="trivial",
        )
    res = cyclic_resolution(spec.factor_orders[0], spec.p, max_degree)
    for n_ord in spec.factor_orders[1:]:
        res = tensor_resolution(res, cyclic_resolution(n_ord, spec.p, max_degree), budget)
        res.basis_labels = [[la + lb for la, lb, _, _ in row] for row in res.basis_labels]
    res.kind = "abelian-minimal"
    return res


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
