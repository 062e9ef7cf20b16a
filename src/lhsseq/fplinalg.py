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

Exactness bound.  ``mul_mod`` does every float64 product, with the
mod-p reduction delayed: a sum of k products of residues plus one
residue is at most k(p-1)^2 + (p-1), exact below 2^53.  It cuts the
inner dimension into chunks that keep that sum plus p (the reduction's
quotient may be one too large) below 2^53, and refuses p > MAX_PRIME =
2^26, where a chunk would hold a single product.  The column loop
delays its reduction too, in int64: multipliers and pivot rows are
reduced before use, so k row updates leave an entry at most
(p-1) + k(p-1)^2 in absolute value.  A panel takes at most 362 pivots
(64 when blocked, else at most 128 columns or fewer than 2^17 entries),
and 362(p-1)^2 + p < 2^63 holds up to p = 2^26; ``_eliminate`` refuses
any p where it fails.

Crossover.  Under 2^17 entries or 129 columns, one panel: the plain
loop.  On a 2-core x86 box with one BLAS thread, replayed from copies
(five runs each): the 38 eliminations of 8,192+ entries in the two
``sseq`` benchmark runs (at most 276 x 276, median density 0.6%) took
0.039-0.049 s, and 0.049-0.062 s with the crossover at 2^14; the 26 of
``compare`` (at most 376 x 324) took 0.11-0.15 s, and 0.13-0.18 s at
2^14; the order-125 minimal resolution to degree 5 (p = 5, 14
eliminations of 8,192+ entries, eight past the crossover, up to 998 x
875) took 0.45-0.54 s with panels and 1.78-1.97 s without.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "MAX_PRIME",
    "check_budget",
    "LinAlgError",
    "mul_mod",
    "rank",
    "rank_profile",
    "kernel_basis",
    "solve_linear",
    "subquotient_of",
    "Subquotient",
    "rref",
]

# Panels of _PANEL columns for eliminations with at least
# _BLOCK_MIN_ENTRIES entries and more than 2 * _PANEL columns (so the
# k x 2k inverse of a panel's pivot block, k <= _PANEL, is never blocked).
_BLOCK_MIN_ENTRIES = 1 << 17
_PANEL = 64
# Rows of a deferred update per product: about 1 MB of float64.
_SLAB_ENTRIES = 1 << 17
# Most pivots one panel of the column loop takes: _PANEL when blocked,
# else at most 2 * _PANEL columns or fewer than _BLOCK_MIN_ENTRIES
# entries, so min(rows, cols) <= 362.
_LOOP_PIVOTS = max(2 * _PANEL, math.isqrt(_BLOCK_MIN_ENTRIES - 1))
# Row updates of fewer entries are reduced mod p at once while the panel
# is still clean (all residues).
_CLEAN_UPDATE = 512

MAX_PRIME = 1 << 26
DEFAULT_BUDGET = 1 << 27  # entries: 1 GiB as int64


class LinAlgError(ValueError):
    """Inconsistent input to a linear-algebra operation."""


class BudgetExceeded(RuntimeError):
    """An array would hold more entries than the budget allows."""


def check_budget(entries: int, budget: int, what: str) -> None:
    """No array a command builds may hold more than `budget` entries (rows x
    cols, or rows x faces for a bar face matrix); callers check before allocating."""
    if entries > budget:
        raise BudgetExceeded(f"{what} needs {entries:,} entries, budget is {budget:,}")


def _as_array(entries, p: int, cols: int | None = None) -> np.ndarray:
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if cols is None else a.reshape(-1, cols)
    if a.ndim != 2:
        raise LinAlgError(f"expected a 2-d array, got shape {a.shape}")
    return a % p


def _chunk(p: int) -> int:
    """Largest exact inner dimension k: k(p-1)^2 + (p-1) + p < 2^53."""
    if p > MAX_PRIME:
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


def mul_mod(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray | None = None) -> np.ndarray:
    """(c + a @ b) mod p as int64, exactly; c defaults to zero.

    Precondition: a, b and c hold residues in [0, p) (reduce them first).
    The products run in float64 BLAS with the reduction delayed: a sum of
    k products plus c is at most k(p-1)^2 + (p-1), so the inner dimension
    is cut into chunks that keep it plus p below 2^53.  Raises LinAlgError
    for p > MAX_PRIME = 2^26, where a chunk would hold a single product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if c is None:
        acc = np.zeros((a.shape[0], b.shape[1]))
    else:
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

    Row updates x -= f * pivot_row run without a mod-p reduction: only
    the pivot column (before it is searched for a pivot), the pivot row
    (before it is normalised) and, once, the whole panel at its end are
    reduced, so every entry stays below _LOOP_PIVOTS (p-1)^2 + p < 2^63
    (module docstring); LinAlgError for any p where that bound fails.  A
    panel whose updates are all small is kept reduced instead.
    """
    if _LOOP_PIVOTS * (p - 1) ** 2 + p >= 1 << 63:
        raise LinAlgError(f"p = {p} overflows the int64 bound of the elimination loop")
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
        # The loop works on w: all of a when there is one panel, else a
        # C-contiguous copy of the panel part of the rows free at the
        # panel's start (w_rows; w_free is indexed like w's rows).  The
        # other rows, earlier pivot rows, are stale: left to the deferred
        # update, panel columns included.
        if blocked:
            stale = ~free
            w_rows = np.flatnonzero(free)
            w = a[w_rows, c0:c1]
            w_free = np.ones(w_rows.size, dtype=bool)
        else:
            w, w_rows, w_free = a, None, free
        first = len(piv_rows)
        dirty = False  # a row update has run: w may hold non-residues
        for j in range(c1 - c0):
            col = w[:, j]
            if dirty:
                np.remainder(col, p, out=col)
            nz = col.nonzero()[0]
            cand = nz[w_free[nz]]
            if not cand.size:
                continue
            row = int(cand[0])
            w_free[row] = False
            pivot = w[row, j:]
            if dirty:
                np.remainder(pivot, p, out=pivot)
            if pivot[0] != 1:
                pivot *= pow(int(pivot[0]), p - 2, p)
                np.remainder(pivot, p, out=pivot)
            touched = nz[nz != row]
            if touched.size:
                block = w[touched, j:]
                block -= col[touched, None] * pivot
                # a small block is cheaper to reduce now than to leave the
                # panel dirty, which costs two reductions per later column
                if dirty or block.size >= _CLEAN_UPDATE:
                    dirty = True
                else:
                    np.remainder(block, p, out=block)
                w[touched, j:] = block
            piv_rows.append(row if w_rows is None else int(w_rows[row]))
            piv_cols.append(c0 + j)
            if len(piv_rows) == n_rows:
                break
        if dirty:
            np.remainder(w, p, out=w)
        if blocked and len(piv_rows) > first:  # else w is unchanged
            # the pivot columns as they were before the panel: a itself
            # is not written until the loop's rows go back into it
            coef = a[:, piv_cols[first:]]
            a[w_rows, c0:c1] = w
            free[w_rows] = w_free
            _update_deferred(a, coef, piv_rows[first:], stale, c0, c1, p)
    return piv_rows, piv_cols


def _update_deferred(a, coef, rows, stale, c0, c1, p) -> None:
    """Finish one panel of columns c0:c1: coef is a[:, cols] before it,
    (rows, cols) its pivots, stale the rows its loop skipped (coef is
    overwritten).  The pivot rows become W = coef[rows]^-1 a[rows, c0:]
    (the loop made their panel part) and each other row r with
    coef[r] != 0 becomes a[r] - coef[r] W, from column c1 on, or c0 on
    if stale.
    """
    top = a[rows, c1:]
    k = len(rows)
    if top.size and not np.array_equal(coef[rows], np.eye(k, dtype=np.int64)):
        aug = np.concatenate([coef[rows], np.eye(k, dtype=np.int64)], axis=1)
        inv_rows, _ = _eliminate(aug, p)
        top = mul_mod(aug[inv_rows, k:], top, p)
    a[rows, c1:] = top
    coef[rows] = 0
    hit = np.flatnonzero(coef.any(axis=1))
    neg = ((-a[rows, c0:]) % p).astype(np.float64)
    slab = max(1, _SLAB_ENTRIES // neg.shape[1])
    for group, start in ((hit[stale[hit]], c0), (hit[~stale[hit]], c1)):
        for s in range(0, group.size, slab):
            r = group[s : s + slab]
            a[r, start:] = mul_mod(coef[r], neg[:, start - c0 :], p, a[r, start:])


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


def rank(m: np.ndarray, p: int) -> int:
    """Rank of m over F_p."""
    return len(rref(m, p)[1])


def kernel_basis(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Basis of the right kernel {v : m v = 0}, one vector per row, and
    its free columns (the non-pivot columns of the echelon form of m).

    The basis is the canonical one read off the reduced echelon form, so
    the output is deterministic.  It is the identity on its free columns:
    a kernel vector v is v[free] times the basis, and the basis is its own
    echelon basis for ``subquotient_of(..., free=free)``.
    """
    r, pivots = rref(m, p)
    n_cols = r.shape[1]
    free = np.delete(np.arange(n_cols), pivots)
    out = np.zeros((free.size, n_cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = (-r[:, free]).T % p
    return out, free.tolist()


def solve_linear(m: np.ndarray, target, p: int):
    """Solve m x = t for a target vector t, or for every column t of a 2-d
    target at once.

    A vector gives one solution, or None when inconsistent.  A block gives
    (X, consistent): X[:, c] solves column c when consistent[c] and is zero
    otherwise.  Free variables are set to zero under the fixed
    left-to-right column order, so solutions are deterministic and depend
    linearly on the target (for a fixed m).

    All columns share one rref of [m | T].  Its rows with no pivot in m
    are zero on m, hence zero on every consistent column (y m = 0 gives
    y m x = 0), so each consistent column gets exactly its one-column
    solution and a column is consistent iff those rows vanish on it.
    """
    m = _as_array(m, p)
    t = np.asarray(target, dtype=np.int64)
    block = t.ndim == 2
    t = (t if block else t.reshape(-1, 1)) % p
    if t.shape[0] != m.shape[0]:
        raise LinAlgError(f"target length {t.shape[0]} != rows {m.shape[0]}")
    n = m.shape[1]
    r, pivots = rref(np.concatenate([m, t], axis=1), p)
    k = sum(c < n for c in pivots)
    consistent = ~r[k:, n:].any(axis=0)
    x = np.zeros((n, t.shape[1]), dtype=np.int64)
    x[pivots[:k]] = r[:k, n:] * consistent
    if block:
        return x, consistent
    return x[:, 0] if consistent[0] else None


@dataclass
class Subquotient:
    """A subquotient V = Z/B of F_p^ambient with frozen representatives.

    boundary_basis is the rref row basis of B; quotient_reps are cycle
    vectors completing it to a basis of Z.  reduce() is the induced linear
    coordinate map Z -> F_p^dim, vanishing exactly on B.
    """

    p: int
    ambient_dim: int
    boundary_basis: np.ndarray
    quotient_reps: np.ndarray
    _b_pivots: list[int] = field(repr=False)
    _r_pivots: list[int] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.quotient_reps.shape[0]

    def reduce(self, v) -> np.ndarray:
        """Coordinates of the class of v over quotient_reps; for a block of
        vectors (rows), one row of coordinates each.

        Raises LinAlgError when any vector is not in the span of the cycles.
        """
        v = np.asarray(v, dtype=np.int64)
        block = v.ndim == 2
        v = (v if block else v.reshape(1, -1)) % self.p
        if v.shape[1] != self.ambient_dim:
            raise LinAlgError("vector length does not match ambient dimension")
        # Representatives vanish on the boundary pivot columns, so the
        # boundary coefficients are v at those columns and the class
        # coordinates follow by one back-substitution.
        p = self.p
        b = self.boundary_basis
        c_b = v[:, self._b_pivots]
        c_r = (v[:, self._r_pivots] - mul_mod(c_b, b[:, self._r_pivots], p)) % p
        if (mul_mod(c_r, self.quotient_reps, p, mul_mod(c_b, b, p)) != v).any():
            raise LinAlgError("vector is not a cycle (not in the cycle span)")
        return c_r if block else c_r[0]


def subquotient_of(cycles, boundaries, ambient_dim: int, p: int,
                   free: list[int] | None = None) -> Subquotient:
    """Build Z/B from spanning sets of Z and B.

    Requires B <= Z; raising otherwise signals an inconsistent
    differential upstream (a "boundary" that is not a cycle).  With free,
    the columns on which cycles is the identity (a basis and its free
    columns from ``kernel_basis``), cycles is used as the echelon basis of
    Z as it stands and only B and the reduced cycles are eliminated.  The
    result is the same: quotient_reps is the RREF of Z meet {v : v = 0 on
    the pivot columns of B}, whatever basis of Z is given.
    """
    cyc = _as_array(cycles, p, cols=ambient_dim) if len(cycles) else np.zeros(
        (0, ambient_dim), dtype=np.int64
    )
    bnd = _as_array(boundaries, p, cols=ambient_dim) if len(boundaries) else np.zeros(
        (0, ambient_dim), dtype=np.int64
    )
    if free is None:
        cyc_ech, z_pivots = rref(cyc, p)
    else:
        if not np.array_equal(cyc[:, free], np.eye(len(free), dtype=np.int64)):
            raise LinAlgError("cycles are not the identity on the given free columns")
        cyc_ech, z_pivots = cyc, free
    bnd_ech, b_pivots = rref(bnd, p)
    # cyc_ech is the identity on the columns z_pivots, so a boundary row
    # lies in the cycle span exactly when it equals its entries there
    # times cyc_ech
    if (mul_mod(bnd_ech[:, z_pivots], cyc_ech, p) != bnd_ech).any():
        raise LinAlgError("boundaries are not contained in the span of the cycles")
    # Kill the boundary pivot columns in the cycles, then echelonize what
    # is left: the surviving rows are canonical representatives of Z/B
    # whose pivot columns are disjoint from the boundary pivots.
    reduced = cyc_ech
    if b_pivots:
        reduced = mul_mod((-cyc_ech[:, b_pivots]) % p, bnd_ech, p, cyc_ech)
    reps, r_pivots = rref(reduced, p)
    return Subquotient(
        p=p,
        ambient_dim=ambient_dim,
        boundary_basis=bnd_ech,
        quotient_reps=reps,
        _b_pivots=b_pivots,
        _r_pivots=r_pivots,
    )
