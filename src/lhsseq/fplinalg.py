"""Exact dense linear algebra over the prime field F_p.

Inputs are reduced into [0, p) and every public output (echelon forms,
kernel bases, solutions, products, ``Subquotient`` fields) is an int64
array.  Pivoting is deterministic (leftmost column, topmost unused row,
rows never swapped), so echelon forms, kernel bases and solutions are
reproducible across runs; every representative choice downstream
inherits that determinism.

One kernel, ``_eliminate``, serves every routine here: a right-looking
blocked Gauss-Jordan elimination in the style of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).  In a panel of 64 columns the
plain column loop runs on the rows still unused when the panel began,
touching only rows with a nonzero in the pivot column; all other work of
the panel is one deferred update by float matrix products.  Unused rows
keep their original order, so the (row, column) pivot pairs are the rank
profile matrix (Dumas, Pernet and Sultan, ISSAC 2015): the rank of every
leading submatrix A[:a, :b] is the number of pairs inside it.

Lanes.  The working and product types are the narrowest that the two
exactness bounds below allow, chosen from p and the inner dimension
alone, as FFLAS-FFPACK chooses its floating type:

* elimination (``work_dtype``): int16 while 362(p-1)^2 + p < 2^15, that
  is p <= 7; int32 while it is below 2^31, 11 <= p <= 2423; int64 for
  2437 <= p <= MAX_PRIME;
* products (``product_dtype``): float32 when the whole inner dimension k
  is one exact float32 chunk, k(p-1)^2 + 2p <= 2^24 (k <= 1,048,575 at
  p = 5, k <= 167,771 at p = 11, k >= 1 only for p <= 4093); otherwise
  float64 in chunks.

Exactness bound.  ``mul_mod`` does every product in floats, with the
mod-p reduction delayed: a sum of k products of residues plus one
residue is at most k(p-1)^2 + (p-1), exact below 2^t (t = 24 bits in
float32, 53 in float64).  It keeps that sum plus p (the reduction's
quotient may be one too large) below 2^t: in one float32 product, or by
cutting the inner dimension into float64 chunks, and refuses p >
MAX_PRIME = 2^26, where a float64 chunk would hold a single product.
The column loop delays its reduction too, in the working type:
multipliers and pivot rows are reduced before use, so k row updates
leave an entry at most (p-1) + k(p-1)^2 in absolute value.  A panel
takes at most 362 pivots (64 when blocked, else at most 128 columns or
fewer than 2^17 entries), and 362(p-1)^2 + p < 2^63 holds up to p =
2^26; ``_eliminate`` refuses any p and array type where it fails.

Crossover.  Under 2^17 entries or 129 columns, one panel: the plain
loop.  On a 2-core x86 box with one BLAS thread, replayed from copies
in the working type (five runs each): the 38 eliminations of 8,192+
entries in the two ``sseq`` benchmark runs (at most 276 x 276, int16)
took 0.015-0.016 s, and 0.020 s with the crossover at 2^14; the 26 of
``compare`` (at most 376 x 324) took 0.035-0.036 s, and 0.048 s at
2^14; the order-125 minimal resolution to degree 5 (p = 5, 14
eliminations of 8,192+ entries, eight past the crossover, up to 998 x
875) took 0.116-0.118 s with panels, 0.118-0.120 s at 2^14 and
0.211-0.213 s without.  In int64 with float64 products the same
replays took 0.016, 0.062 and 0.194 s.
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
    "product_dtype",
    "rank",
    "rank_profile",
    "kernel_basis",
    "solve_linear",
    "subquotient_of",
    "Subquotient",
    "rref",
    "work_dtype",
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
# bits of precision of the product types, largest value of the loop types
_FLOAT_BITS = {np.float32: 24, np.float64: 53}
_INT_MAX = [(t, np.iinfo(t).max) for t in (np.int16, np.int32, np.int64)]
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


def work_dtype(p: int) -> type:
    """The narrowest signed integer type of the elimination loop at p: one
    that holds _LOOP_PIVOTS (p-1)^2 + p (module docstring)."""
    bound = _LOOP_PIVOTS * (p - 1) ** 2 + p
    for dtype, top in _INT_MAX:
        if bound <= top:
            return dtype
    raise LinAlgError(f"p = {p} overflows the int64 bound of the elimination loop")


def _as_array(entries, p: int, cols: int | None = None) -> np.ndarray:
    """A new 2-d array of the residues of entries in the working dtype of p,
    made in one pass (no full-size int64 temporary for integer input)."""
    a = np.asarray(entries)
    if a.dtype.kind != "i":
        a = a.astype(np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if cols is None else a.reshape(-1, cols)
    if a.ndim != 2:
        raise LinAlgError(f"expected a 2-d array, got shape {a.shape}")
    out = np.empty(a.shape, dtype=work_dtype(p))
    # an int64 divisor makes the remainder run in int64 whatever a's type
    np.remainder(a, np.int64(p), out=out, casting="unsafe")
    return out


def _chunk(p: int, dtype=np.float64) -> int:
    """Largest exact inner dimension k in dtype, of t bits of precision:
    k(p-1)^2 + (p-1) + p < 2^t."""
    if p > MAX_PRIME:
        raise LinAlgError(f"p = {p} exceeds 2^26, the float64 product bound")
    return ((1 << _FLOAT_BITS[dtype]) - 2 * p) // (p - 1) ** 2


def product_dtype(k: int, p: int) -> type:
    """The float type of ``mul_mod`` for inner dimension k: float32 when all
    k products fit one exact float32 chunk, k(p-1)^2 + 2p <= 2^24, else
    float64.  A left factor stored in it is used without conversion."""
    return np.float32 if k <= _chunk(p, np.float32) else np.float64


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, x float integers in [0, 2^t - p), t the bits of x's
    precision (24 for float32, 53 for float64).  q = x (1/p) is taken in
    that precision, 1/p and the product each rounded once (relative error
    at most 2^-t), so |q - x/p| <= (x/p)(2^(1-t) + 2^-2t) < (2 + 2^-t)/p,
    below 1 for p >= 3; for p = 2 both are exact.  floor(q) thus misses
    the quotient by at most one either way: q p <= x + p < 2^t and x - q p
    are exact, and one p corrects the remainder."""
    q = x * (1 / x.dtype.type(p))
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _mul_mod(a, b, p: int, c=None) -> np.ndarray:
    """(c + a @ b) mod p as exact floats of product_dtype(k, p), k the inner
    dimension; the work of ``mul_mod`` without its conversion to int64."""
    dtype = product_dtype(a.shape[1], p)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if c is None:
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=dtype)
    else:
        acc = np.asarray(c, dtype=dtype)
    # float32 is chosen only for k within its chunk, so a float32 chunk of
    # 0 (p > 4093) comes with k = 0 and no product
    step = max(_chunk(p, dtype), 1)
    for s in range(0, a.shape[1], step):
        prod = a[:, s : s + step] @ b[s : s + step]
        prod += acc
        acc = _reduce(prod, p)
    return acc


def mul_mod(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray | None = None) -> np.ndarray:
    """(c + a @ b) mod p as int64, exactly; c defaults to zero.

    Precondition: a, b and c hold residues in [0, p) (reduce them first).
    The products run in float BLAS with the reduction delayed: a sum of k
    products plus c is at most k(p-1)^2 + (p-1), exact while it plus p
    stays below 2^t, t = 24 in float32 and 53 in float64.  When the whole
    inner dimension k fits one float32 chunk (``product_dtype``) the
    product is one float32 matmul; otherwise k is cut into float64 chunks.
    Raises LinAlgError for p > MAX_PRIME = 2^26, where a float64 chunk
    would hold a single product.
    """
    return _mul_mod(a, b, p, c).astype(np.int64)


def _eliminate(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Reduce a (entries in [0, p), of any signed integer dtype that holds
    _LOOP_PIVOTS (p-1)^2 + p) in place; return (pivot_rows, pivot_cols) in
    pivot order.  a[pivot_rows] is the RREF, the other rows end zero, and
    the pairs are the rank profile matrix: each column, left to right,
    takes the topmost unused row with a nonzero entry.

    Row updates x -= f * pivot_row run without a mod-p reduction: only
    the pivot column (before it is searched for a pivot), the pivot row
    (before it is normalised) and, once, the whole panel at its end are
    reduced, so every entry stays below _LOOP_PIVOTS (p-1)^2 + p (module
    docstring); LinAlgError for a dtype or p where that bound fails.  A
    panel whose updates are all small is kept reduced instead.
    """
    if _LOOP_PIVOTS * (p - 1) ** 2 + p > np.iinfo(a.dtype).max:
        raise LinAlgError(f"p = {p} overflows the {a.dtype} bound of the elimination loop")
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
    if top.size and not np.array_equal(coef[rows], np.eye(k, dtype=a.dtype)):
        aug = np.concatenate([coef[rows], np.eye(k, dtype=a.dtype)], axis=1)
        inv_rows, _ = _eliminate(aug, p)
        top = _mul_mod(aug[inv_rows, k:], top, p)
    a[rows, c1:] = top
    coef[rows] = 0
    hit = np.flatnonzero(coef.any(axis=1))
    # coefficients and pivot rows in the product dtype once per panel; each
    # slab converts only its own rows of a
    dtype = product_dtype(k, p)
    neg = ((-a[rows, c0:]) % p).astype(dtype)
    slab = max(1, _SLAB_ENTRIES // neg.shape[1])
    for group, start in ((hit[stale[hit]], c0), (hit[~stale[hit]], c1)):
        cg = coef[group].astype(dtype)
        for s in range(0, group.size, slab):
            r = group[s : s + slab]
            a[r, start:] = _mul_mod(cg[s : s + slab], neg[:, start - c0 :], p, a[r, start:])


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (R, pivot_cols), R holding only the nonzero
    rows.  Pivot choice: scan columns left to right, take the topmost
    unused row with a nonzero entry."""
    a = _as_array(m, p)
    rows, cols = _eliminate(a, p)
    return a[rows].astype(np.int64, copy=False), cols


def rank_profile(m: np.ndarray, p: int) -> list[tuple[int, int]]:
    """The rank profile matrix of m as (row, column) pairs, by column.

    rank(m[:a, :b]) is the number of pairs (i, j) with i < a and j < b.
    A 2-d array already in the working dtype of p (int16 for p <= 7, int32
    up to 2423, else int64) is reduced in place and overwritten, so the
    caller's matrix is the only full-size copy; other input is copied
    into that dtype.
    """
    owned = isinstance(m, np.ndarray) and m.dtype == work_dtype(p) and m.ndim == 2
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
    t = np.asarray(target)
    block = t.ndim == 2
    t = _as_array(t if block else t.reshape(-1, 1), p)
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
        if (_mul_mod(c_r, self.quotient_reps, p, _mul_mod(c_b, b, p)) != v).any():
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
    empty = np.zeros((0, ambient_dim), dtype=np.int64)
    cyc = _as_array(cycles, p, cols=ambient_dim) if len(cycles) else empty
    if free is None:
        cyc_ech, z_pivots = rref(cyc, p)
    else:
        if not np.array_equal(cyc[:, free], np.eye(len(free), dtype=np.int64)):
            raise LinAlgError("cycles are not the identity on the given free columns")
        cyc_ech, z_pivots = cyc, free
    # rref's working copy of the boundaries is the only one, eliminated in
    # place and dropped once its echelon rows are taken
    bnd_ech, b_pivots = rref(boundaries if len(boundaries) else empty, p)
    # cyc_ech is the identity on the columns z_pivots, so a boundary row
    # lies in the cycle span exactly when it equals its entries there
    # times cyc_ech
    if (_mul_mod(bnd_ech[:, z_pivots], cyc_ech, p) != bnd_ech).any():
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
