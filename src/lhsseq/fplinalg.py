"""Exact dense linear algebra over the prime field F_p.

Everything below works on numpy int64 arrays with entries reduced into
[0, p).  Pivoting is deterministic (topmost row, leftmost column), so
echelon forms, kernel bases and solutions are reproducible across runs;
every representative choice downstream inherits that determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinAlgError",
    "rank",
    "kernel_basis",
    "solve_linear",
    "subquotient_of",
    "Subquotient",
    "rref",
    "row_space",
]


class LinAlgError(ValueError):
    """Inconsistent input to a linear-algebra operation."""


def _as_array(entries, p: int, cols: int | None = None) -> np.ndarray:
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if cols is None else a.reshape(-1, cols)
    if a.ndim != 2:
        raise LinAlgError(f"expected a 2-d array, got shape {a.shape}")
    return a % p


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a), p - 2, p)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (R, pivot_cols) where R holds only the nonzero rows.  Pivot
    choice: scan columns left to right, take the topmost unused row with
    a nonzero entry.
    """
    r = _as_array(m, p).copy()
    n_rows, n_cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            r[[row, sel]] = r[[sel, row]]
        r[row] = (r[row] * _inv_mod(r[row, col], p)) % p
        other = r[:, col].copy()
        other[row] = 0
        touched = np.nonzero(other)[0]
        if touched.size:
            r[touched] = (r[touched] - np.outer(other[touched], r[row])) % p
        pivots.append(col)
        row += 1
    return r[:row], pivots


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
    m = _as_array(m, p)
    n_cols = m.shape[1]
    r, pivots = rref(m, p)
    free = [c for c in range(n_cols) if c not in pivots]
    out = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, pc in enumerate(pivots):
            out[k, pc] = (-r[i, f]) % p
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
    for i, pc in enumerate(pivots):
        x[pc] = r[i, -1]
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
        reduced = (reduced - reduced[:, b_pivots] @ bnd_ech) % p
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
