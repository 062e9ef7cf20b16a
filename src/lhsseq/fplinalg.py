"""Exact dense linear algebra over the prime field F_p.

Everything below works on numpy int64 arrays with entries reduced into
[0, p).  Pivoting is deterministic (leftmost column, topmost unused row,
rows never swapped), so echelon forms, kernel bases and solutions are
reproducible across runs; every representative choice downstream
inherits that determinism.

One kernel, ``_eliminate``, serves every routine here: a right-looking
blocked Gauss-Jordan elimination in the style of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).  In a panel of 64 columns the
plain column loop runs on the rows still unused when the panel began,
touching only rows with a nonzero in the pivot column; all other work of
the panel is one deferred update by float64 matrix products.  Unused
rows keep their original order, so the (row, column) pivot pairs are
the rank profile matrix (Dumas, Pernet and Sultan, ISSAC 2015): the rank
of every leading submatrix A[:a, :b] is the number of pairs inside it.

Exactness bound.  ``_mul_add`` does every float64 product, with the
mod-p reduction delayed: a sum of k products of residues plus one
residue is at most k(p-1)^2 + (p-1), exact below 2^53.  It cuts the
inner dimension into chunks that keep that sum plus p (the reduction's
quotient may be one too large) below 2^53, and refuses p > 2^26, where
a chunk would hold a single product.

Crossover.  Under 2^17 entries or 129 columns, one panel: the plain
loop.  On a 2-core x86 box with one BLAS thread, the 1,145 eliminations
of 8,192+ entries in the two ``sseq`` benchmark runs (at most 528 x 276,
median density 0.7%) took 1.3 s, or 1.6-1.7 s at 2^14; the order-125
minimal resolution to degree 5 (p = 5, up to 998 x 875) took 1.3-1.4 s
with panels and 7.2 s without.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinAlgError",
    "rank",
    "rank_profile",
    "kernel_basis",
    "solve_linear",
    "subquotient_of",
    "Subquotient",
    "rref",
    "row_space",
]

# Panels of _PANEL columns for eliminations with at least
# _BLOCK_MIN_ENTRIES entries and more than 2 * _PANEL columns (so the
# k x 2k inverse of a panel's pivot block, k <= _PANEL, is never blocked).
_BLOCK_MIN_ENTRIES = 1 << 17
_PANEL = 64
# Rows of a deferred update per product: about 1 MB of float64.
_SLAB_ENTRIES = 1 << 17


class LinAlgError(ValueError):
    """Inconsistent input to a linear-algebra operation."""


def _as_array(entries, p: int, cols: int | None = None) -> np.ndarray:
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if cols is None else a.reshape(-1, cols)
    if a.ndim != 2:
        raise LinAlgError(f"expected a 2-d array, got shape {a.shape}")
    return a % p


def _chunk(p: int) -> int:
    """Largest exact inner dimension k: k(p-1)^2 + (p-1) + p < 2^53."""
    if p > 1 << 26:
        raise LinAlgError(f"p = {p} exceeds 2^26, the float64 product bound")
    return ((1 << 53) - 2 * p) // (p - 1) ** 2


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, x float64 integers in [0, 2^53 - p).  floor(x * (1/p))
    may miss the quotient by one either way, so the remainder is corrected."""
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _mul_add(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray) -> np.ndarray:
    """(c + a @ b) mod p as int64, exactly, for residue matrices a, b, c."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    acc = np.asarray(c, dtype=np.float64)
    step = _chunk(p)
    for s in range(0, a.shape[1], step):
        prod = a[:, s : s + step] @ b[s : s + step]
        prod += acc
        acc = _reduce(prod, p)
    return acc.astype(np.int64)


def _eliminate(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Reduce a (int64, entries in [0, p)) in place; return (pivot_rows,
    pivot_cols) in pivot order.  a[pivot_rows] is the RREF, the other rows
    end zero, and the pairs are the rank profile matrix: each column, left
    to right, takes the topmost unused row with a nonzero entry.
    """
    n_rows, n_cols = a.shape
    blocked = n_rows * n_cols >= _BLOCK_MIN_ENTRIES and n_cols > 2 * _PANEL
    width = _PANEL if blocked else max(n_cols, 1)
    free = np.ones(n_rows, dtype=bool)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    for c0 in range(0, n_cols, width):
        if len(piv_rows) == n_rows:
            break
        c1 = min(c0 + width, n_cols)
        # rows free at the panel's start; the others (earlier pivot rows)
        # are left to the deferred update, panel columns included
        live = free.copy()
        panel = a[:, c0:c1].copy() if blocked else None
        first = len(piv_rows)
        for col in range(c0, c1):
            nz = a[:, col].nonzero()[0]
            cand = nz[free[nz]]
            if not cand.size:
                continue
            row = int(cand[0])
            free[row] = False
            if a[row, col] != 1:
                a[row, col:c1] = (a[row, col:c1] * pow(int(a[row, col]), p - 2, p)) % p
            touched = nz[live[nz] & (nz != row)]
            if touched.size:
                a[touched, col:c1] = (
                    a[touched, col:c1] - a[touched, col, None] * a[row, col:c1]
                ) % p
            piv_rows.append(row)
            piv_cols.append(col)
            if len(piv_rows) == n_rows:
                break
        if blocked and len(piv_rows) > first:
            _update_deferred(a, panel, piv_rows[first:],
                             [c - c0 for c in piv_cols[first:]], ~live, c0, c1, p)
    return piv_rows, piv_cols


def _update_deferred(a, panel, rows, cols, stale, c0, c1, p) -> None:
    """Finish one panel: panel is a[:, c0:c1] before it, rows/cols its
    pivots, stale the rows its loop skipped.  The pivot rows become
    W = panel[rows][:, cols]^-1 a[rows, c0:] (the loop made their panel
    part) and each other row r with panel[r, cols] != 0 becomes
    a[r] - panel[r, cols] W, from column c1 on, or c0 on if stale.
    """
    coef = panel[:, cols]
    top = a[rows, c1:]
    k = len(rows)
    if top.size and not np.array_equal(coef[rows], np.eye(k, dtype=np.int64)):
        aug = np.concatenate([coef[rows], np.eye(k, dtype=np.int64)], axis=1)
        inv_rows, _ = _eliminate(aug, p)
        top = _mul_add(aug[inv_rows, k:], top, p, np.zeros_like(top))
    a[rows, c1:] = top
    coef[rows] = 0
    hit = np.flatnonzero(coef.any(axis=1))
    neg = ((-a[rows, c0:]) % p).astype(np.float64)
    slab = max(1, _SLAB_ENTRIES // neg.shape[1])
    for group, start in ((hit[stale[hit]], c0), (hit[~stale[hit]], c1)):
        for s in range(0, group.size, slab):
            r = group[s : s + slab]
            a[r, start:] = _mul_add(coef[r], neg[:, start - c0 :], p, a[r, start:])


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (R, pivot_cols), R holding only the nonzero
    rows.  Pivot choice: scan columns left to right, take the topmost
    unused row with a nonzero entry."""
    a = _as_array(m, p)
    rows, cols = _eliminate(a, p)
    return a[rows], cols


def rank_profile(m: np.ndarray, p: int) -> list[tuple[int, int]]:
    """The rank profile matrix of m as (row, column) pairs, by column.

    rank(m[:a, :b]) is the number of pairs (i, j) with i < a and j < b.
    An int64 array is reduced in place and overwritten, so the caller's
    matrix is the only full-size copy; other input is copied.
    """
    owned = isinstance(m, np.ndarray) and m.dtype == np.int64 and m.ndim == 2
    a = m if owned else _as_array(m, p)
    np.remainder(a, p, out=a)
    rows, cols = _eliminate(a, p)
    return list(zip(rows, cols))


def row_space(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical (rref) basis of the row space of m."""
    return rref(m, p)[0]


def rank(m: np.ndarray, p: int) -> int:
    """Rank of m over F_p."""
    return len(rref(m, p)[1])


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {v : m v = 0}, one vector per row.

    The basis is the canonical one read off the reduced echelon form
    (unit entry in each free column), so the output is deterministic.
    """
    r, pivots = rref(m, p)
    n_cols = r.shape[1]
    free = np.delete(np.arange(n_cols), pivots)
    out = np.zeros((free.size, n_cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = (-r[:, free]).T % p
    return out


def solve_linear(m: np.ndarray, target, p: int) -> np.ndarray | None:
    """One solution of m v = target, or None when inconsistent.

    Free variables are set to zero under the fixed left-to-right column
    order, so the returned solution is deterministic and depends linearly
    on the target (for a fixed m).
    """
    m = _as_array(m, p)
    t = np.asarray(target, dtype=np.int64).reshape(-1) % p
    if t.shape[0] != m.shape[0]:
        raise LinAlgError(f"target length {t.shape[0]} != rows {m.shape[0]}")
    aug = np.concatenate([m, t.reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, p)
    if m.shape[1] in pivots:
        return None
    x = np.zeros(m.shape[1], dtype=np.int64)
    x[pivots] = r[:, -1]
    return x


@dataclass
class Subquotient:
    """A subquotient V = Z/B of F_p^ambient with frozen representatives.

    cycle_basis and boundary_basis are rref row bases; quotient_reps are
    cycle vectors completing the boundary basis to a basis of Z.  reduce()
    is the induced linear coordinate map Z -> F_p^dim, vanishing exactly
    on B.
    """

    p: int
    ambient_dim: int
    cycle_basis: np.ndarray
    boundary_basis: np.ndarray
    quotient_reps: np.ndarray
    _b_pivots: list[int] = field(repr=False, default=None)
    _r_pivots: list[int] = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.quotient_reps.shape[0]

    def reduce(self, v) -> np.ndarray:
        """Coordinates of the class of v over quotient_reps.

        Raises LinAlgError when v is not in the span of the cycles.
        """
        v = np.asarray(v, dtype=np.int64).reshape(-1) % self.p
        if v.shape[0] != self.ambient_dim:
            raise LinAlgError("vector length does not match ambient dimension")
        # Representatives vanish on the boundary pivot columns, so the
        # boundary coefficients are v at those columns and the class
        # coordinates follow by one back-substitution.
        c_b = v[self._b_pivots] if self._b_pivots else np.zeros(0, dtype=np.int64)
        c_r = v[self._r_pivots] if self._r_pivots else np.zeros(0, dtype=np.int64)
        if self._b_pivots and self._r_pivots:
            c_r = (c_r - c_b @ self.boundary_basis[:, self._r_pivots]) % self.p
        resid = v.copy()
        if c_b.size:
            resid = (resid - c_b @ self.boundary_basis) % self.p
        if c_r.size:
            resid = (resid - c_r @ self.quotient_reps) % self.p
        if np.any(resid):
            raise LinAlgError("vector is not a cycle (not in the cycle span)")
        return c_r.copy()

    def lift(self, coords) -> np.ndarray:
        """Representative cycle of the class with the given coordinates."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1) % self.p
        if self.dim == 0:
            return np.zeros(self.ambient_dim, dtype=np.int64)
        return (coords @ self.quotient_reps) % self.p


def subquotient_of(cycles, boundaries, ambient_dim: int, p: int) -> Subquotient:
    """Build Z/B from spanning sets of Z and B.

    Requires B <= Z; raising otherwise signals an inconsistent
    differential upstream (a "boundary" that is not a cycle).
    """
    cyc = _as_array(cycles, p, cols=ambient_dim) if len(cycles) else np.zeros(
        (0, ambient_dim), dtype=np.int64
    )
    bnd = _as_array(boundaries, p, cols=ambient_dim) if len(boundaries) else np.zeros(
        (0, ambient_dim), dtype=np.int64
    )
    cyc_ech = row_space(cyc, p)
    bnd_ech, b_pivots = rref(bnd, p)
    both = np.concatenate([cyc_ech, bnd_ech], axis=0)
    if len(rref(both, p)[1]) != cyc_ech.shape[0]:
        raise LinAlgError("boundaries are not contained in the span of the cycles")
    # Kill the boundary pivot columns in the cycles, then echelonize what
    # is left: the surviving rows are canonical representatives of Z/B
    # whose pivot columns are disjoint from the boundary pivots.
    reduced = cyc_ech.copy()
    if b_pivots:
        reduced = _mul_add((-reduced[:, b_pivots]) % p, bnd_ech, p, reduced)
    reps, r_pivots = rref(reduced, p)
    return Subquotient(
        p=p,
        ambient_dim=ambient_dim,
        cycle_basis=cyc_ech,
        boundary_basis=bnd_ech,
        quotient_reps=reps,
        _b_pivots=b_pivots,
        _r_pivots=r_pivots,
    )
