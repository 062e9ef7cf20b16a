"""The spectral sequence of a central extension, driven by formulas.

Coordinates: the starting page at bidegree (i, j) is H^i(G) tensored
with the one-dimensional row generator of the kernel (t^k for j = 2k,
t^k u for j = 2k+1; for a kernel of order two the rows are powers of u
with u^2 = t and the same bookkeeping applies).  Each later page is the
homology of the one before, E_{r+1} = H(E_r, d_r), in E_r's coordinates.
A cell keeps its classes' representatives in E_2 coordinates, on which
the formulas are evaluated, and the steps through which an E_2 cycle
reduces to its page class.  Each d_r is one page matrix per bidegree,
built from the block of representatives (rows) by matrix products with
the cached multiplication and Massey maps:

    d2(t^k u chi) = t^k xi chi                   d2(t^k chi) = 0
    d3(t^k chi)   = k t^{k-1} xi' chi            (xi' the Bockstein class)
    d3(t^k u chi) = -k t^{k-1} u xi' chi
    d4(t^k u chi) = k t^{k-1} <xi', chi, xi>     (Massey triple product)
    d4(t^k chi)   = k(k-1) t^{k-2} u xi' chi'    with xi chi' = xi' chi

d4 on an even row solves xi chi' = xi' chi for the whole block at once.
The multiplication maps are summed from RingContext's monomial product
tables, and the Massey map is one composition, sum_k C(p^{m_k}, 3)
(w_k times) o d_k with w_k = x_k d_k(xi) d_k(xi') a fixed degree-five
class (see massey_map); neither calls cup per basis monomial.
Differentials on pages five and up are zero unless supplied as
overrides, which are extended over the page by the Leibniz rule (their
products with surviving base-row classes), again one solve per bidegree,
in page coordinates.  Both kinds reach turn_page as page matrices.

Rows the formulas cannot tell apart share their work.  The formulas read
row j = 2k + eps only through eps (d_2) or k mod p and eps (d_3, d_4),
so within one call differential_matrix builds one page matrix per (i,
eps, source cell object, target cell object), and for r > 2 per k mod p
as well, and turn_page one new cell per (old
cell object, outgoing matrix, incoming matrix), the matrices compared by
content.  Every E_2 row is the same cell, so away from the truncation
edge the cells of rows j and j + 2p stay one object on every page.  A
run with an rng shares no d_r: each bidegree draws its own d_4 choices,
so the random stream is the one an unshared run consumes.  Shared cells,
steps and page matrices are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .cohomology import CohoClass, RingContext, contract, cup
from .extensions import ExtensionSpec
from .fplinalg import (
    LinAlgError,
    Subquotient,
    kernel_basis,
    mul_mod,
    solve_linear,
    subquotient_of,
)

__all__ = [
    "EngineError",
    "Cell",
    "Page",
    "DifferentialOverride",
    "PoincareData",
    "differential_matrix",
    "apply_overrides",
    "turn_page",
    "run",
    "expand_rational",
    "E2Element",
]

DEFAULT_R_MAX = 7


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class E2Element:
    """A sum of homogeneous starting-page elements, one class per row."""

    spec: ExtensionSpec
    rows: dict[int, CohoClass]  # fiber degree j -> base class

    def single_bidegree(self) -> tuple[int, int]:
        items = [(j, c) for j, c in self.rows.items() if not c.is_zero()]
        if len(items) != 1:
            raise EngineError("expected a single-bidegree element")
        j, c = items[0]
        return c.degree, j

    def __str__(self):
        parts = []
        for j in sorted(self.rows):
            c = self.rows[j]
            if c.is_zero():
                continue
            k, eps = divmod(j, 2)
            fiber = ("t" if k == 1 else f"t^{k}" if k else "") + ("*u" if eps and k else "u" if eps else "")
            parts.append(f"({c})" + (f"*{fiber}" if fiber else ""))
        return " + ".join(parts) if parts else "0"


@dataclass
class DifferentialOverride:
    """A documented higher differential d_r(source) = value, r >= 5."""

    r: int
    source: E2Element
    value: E2Element
    provenance: str = ""

    def __post_init__(self):
        if self.r < 5:
            raise EngineError("overrides are for pages five and up")
        i_s, j_s = self.source.single_bidegree()
        i_v, j_v = self.value.single_bidegree()
        if (i_v, j_v) != (i_s + self.r, j_s - self.r + 1):
            raise EngineError(
                f"override bidegrees inconsistent with a d_{self.r}: "
                f"source ({i_s},{j_s}), value ({i_v},{j_v})"
            )


@dataclass(frozen=True, eq=False)
class Cell:
    """One bidegree of a page: its classes' representatives in E_2
    coordinates (rows), and the subquotient of each page at which it
    changed, in the coordinates of the page before."""

    reps: np.ndarray
    steps: tuple[Subquotient, ...] = ()

    def __post_init__(self):
        _frozen(self.reps)

    @property
    def dim(self) -> int:
        return self.reps.shape[0]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Page coordinates of E_2 vectors (residues; rows for a block) that
        are cycles of every page so far.  Raises LinAlgError for any that is
        not."""
        for step in self.steps:
            v = step.reduce(v)
        return v


@dataclass
class Page:
    """One page of the spectral sequence, truncated at total degree N."""

    r: int
    N: int
    cells: dict[tuple[int, int], Cell]
    valid_through: int

    def dim(self, i: int, j: int) -> int:
        cell = self.cells.get((i, j))
        return cell.dim if cell else 0

    def dims_table(self) -> dict[tuple[int, int], int]:
        return {
            (i, j): cell.dim for (i, j), cell in sorted(self.cells.items()) if cell.dim
        }

    def total_dims(self, through: int | None = None) -> list[int]:
        through = self.valid_through if through is None else through
        out = [0] * (through + 1)
        for (i, j), cell in self.cells.items():
            if i + j <= through:
                out[i + j] += cell.dim
        return out


@dataclass
class PoincareData:
    coefficients: list[int]
    valid_through: int


class EngineContext:
    """Cached ring data for one extension."""

    def __init__(self, spec: ExtensionSpec, N: int, r_max: int = DEFAULT_R_MAX, rng=None):
        if N < 0:
            raise EngineError(f"max degree must be non-negative, got {N}")
        if r_max < 2:
            raise EngineError(f"r_max must be at least 2 (pages start at E_2), got {r_max}")
        self.spec = spec
        self.N = N
        self.r_max = r_max
        self.p = spec.p
        self.ring = RingContext(spec.quotient)
        self.xi = spec.xi
        self.xi_prime = spec.xi_prime
        self.rng = rng
        self._mult = {}
        # (k, C(p^{m_k}, 3) mod p, w_k) of massey_map, nonzero ones only
        self._massey_factors = []
        group = spec.quotient
        for k, order in enumerate(group.factor_orders):
            coeff = comb(order, 3) % self.p
            w = cup(cup(CohoClass.x(group, k), contract(self.xi, k)), contract(self.xi_prime, k))
            if coeff and not w.is_zero():
                self._massey_factors.append((k, coeff, w))

    def mult_matrix(self, cls: CohoClass, degree: int, shift: int) -> np.ndarray:
        """Multiplication by cls: H^degree -> H^{degree+shift}; the shift
        is passed explicitly so the zero class keeps honest dimensions."""
        key = (cls, shift, degree)
        if key not in self._mult:
            if cls.is_zero():
                m = np.zeros((self.ring.dim(degree + shift), self.ring.dim(degree)), dtype=np.int64)
            elif cls.degree != shift:
                raise EngineError("class degree does not match the shift")
            else:
                m = self.ring.multiplication_matrix(cls, degree)
            self._mult[key] = m
        return self._mult[key]

    def massey_map(self, degree: int) -> np.ndarray:
        """Matrix of chi -> h(xi', chi, xi) on H^degree(G).

        h(xi', chi, xi) = (-1)^(|chi|+1) sum_k C(p^{m_k}, 3) x_k d_k(xi')
        d_k(chi) d_k(xi), and moving d_k(xi), of degree one, to the front
        of d_k(xi') d_k(chi) costs (-1)^(|chi|+1), which cancels the sign.
        So the map is sum_k C(p^{m_k}, 3) (w_k times) o d_k, with the
        degree-five class w_k = x_k d_k(xi) d_k(xi'); factors whose
        coefficient or w_k vanishes are left out."""
        key = ("massey", degree)
        if key not in self._mult:
            m = np.zeros((self.ring.dim(degree + 4), self.ring.dim(degree)), dtype=np.int64)
            for k, coeff, w in self._massey_factors:
                mult = coeff * self.mult_matrix(w, degree - 1, 5) % self.p
                m = mul_mod(mult, self.ring.contraction_matrix(k, degree), self.p, m)
            self._mult[key] = m
        return self._mult[key]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: cells, steps and page matrices are shared by
    the rows whose inputs are equal, so an in-place write must raise."""
    a.flags.writeable = False
    return a


def _shared(table: dict, ids: tuple, arrays: tuple, build):
    """build(), or the value it gave earlier in this table for the same
    ids and equal arrays (None matches None).  A key holds the ids and a
    hash of each array's bytes, never a copy; np.array_equal confirms a
    hit (the key puts None in the same places)."""
    key = ids + tuple(None if a is None else hash(a.tobytes()) for a in arrays)
    entries = table.setdefault(key, [])
    for held, value in entries:
        if all(a is b or np.array_equal(a, b) for a, b in zip(held, arrays)):
            return value
    value = build()
    entries.append((arrays, value))
    return value


def _init_page(ctx: EngineContext) -> Page:
    """The starting page: every cell is its whole coordinate space, its
    classes the unit vectors."""
    cells = {}
    for i in range(ctx.N + 1):
        dim = ctx.ring.dim(i)
        if dim == 0:
            continue
        e2 = Cell(np.eye(dim, dtype=np.int64))
        for j in range(ctx.N + 1 - i):
            cells[(i, j)] = e2
    return Page(r=2, N=ctx.N, cells=cells, valid_through=ctx.N - ctx.r_max)


def _row_sign(j: int, deg: int) -> int:
    """Sign for moving the fiber part of row j past a base class."""
    return -1 if (j * deg) % 2 else 1


def _formula_value(ctx: EngineContext, r: int, i: int, j: int, reps: np.ndarray):
    """Images under d_r of a block of representatives (rows, V_{i,j}
    coordinates, residues), as rows in V_{i+r, j-r+1} coordinates, or None
    when the formula gives zero."""
    p = ctx.p
    k, eps = divmod(j, 2)
    if r == 2:
        if eps == 0:
            return None
        return mul_mod(reps, ctx.mult_matrix(ctx.xi, i, 2).T, p)
    if r == 3:
        coeff = (-k if eps else k) % p
        if coeff == 0:
            return None
        return coeff * mul_mod(reps, ctx.mult_matrix(ctx.xi_prime, i, 3).T, p) % p
    if r == 4:
        if eps == 1:
            coeff = k % p
            if coeff == 0:
                return None
            if mul_mod(reps, ctx.mult_matrix(ctx.xi, i, 2).T, p).any() or mul_mod(
                reps, ctx.mult_matrix(ctx.xi_prime, i, 3).T, p
            ).any():
                raise EngineError(
                    "page-4 representative violates the survival conditions "
                    "(page turning is inconsistent)"
                )
            val = mul_mod(reps, ctx.massey_map(i).T, p)
            if ctx.rng is not None:
                # the indeterminacy xi' H^{i+1} + H^{i+2} xi, one column
                # per nonzero product
                indet = np.concatenate(
                    [ctx.mult_matrix(ctx.xi_prime, i + 1, 3), ctx.mult_matrix(ctx.xi, i + 2, 2)],
                    axis=1,
                )
                indet = indet[:, indet.any(axis=0)]
                if indet.shape[1]:
                    shift = ctx.rng.randint(0, p, size=(len(reps), indet.shape[1]))
                    val = mul_mod(shift, indet.T, p, val)
            return coeff * val % p
        coeff = (k * (k - 1)) % p
        if coeff == 0:
            return None
        target = mul_mod(ctx.mult_matrix(ctx.xi_prime, i, 3), reps.T, p)
        m_xi = ctx.mult_matrix(ctx.xi, i + 1, 2)
        chi_prime, solved = solve_linear(m_xi, target, p)
        if not solved.all():
            raise EngineError(
                "no solution of xi * chi' = xi' * chi for a surviving class "
                "(page turning is inconsistent)"
            )
        if ctx.rng is not None and m_xi.shape[1]:
            ker, _ = kernel_basis(m_xi, p)
            if ker.shape[0]:
                shift = ctx.rng.randint(0, p, size=(len(reps), ker.shape[0]))
                chi_prime = mul_mod(ker.T, shift.T, p, chi_prime)
        return coeff * mul_mod(chi_prime.T, ctx.mult_matrix(ctx.xi_prime, i + 1, 3).T, p) % p
    raise EngineError(f"no closed formula for d_{r}")


def _page_block(r: int, ij: tuple[int, int], cell: Cell, rows: np.ndarray,
                what: str = "value") -> np.ndarray:
    """Page coordinates, as columns, of E_2 rows that must be page-r cycles
    of cell: the page matrix of d_r on ij when the rows are the images of
    its source representatives."""
    try:
        return cell.reduce(rows).T
    except LinAlgError as exc:
        raise EngineError(f"d_{r} {what} at {ij} is not a page-{r} cycle: {exc}") from exc


def differential_matrix(ctx: EngineContext, page: Page, r: int):
    """Per-bidegree d_r: {(i, j): page matrix}, mapping source page
    coordinates to target page coordinates.

    The formulas read row j = 2k + eps only through eps (d_2) or k mod p
    and eps (d_3, d_4), so without an rng one read-only matrix serves every
    bidegree with the same (i, eps, source cell, target cell), and for
    r > 2 the same k mod p.  With an rng each bidegree draws its own d_4
    choices, in the order it always has."""
    if r != page.r:
        raise EngineError(f"page is at r={page.r}, asked for d_{r}")
    out, built = {}, {}
    for (i, j), cell in page.cells.items():
        tgt = page.cells.get((i + r, j - r + 1))
        if cell.dim == 0 or tgt is None:
            # missing target: either a negative row (formulas vanish there)
            # or beyond the truncation, where valid_through already rules
            continue
        k, eps = divmod(j, 2)
        # d_2 reads only eps; d_3 and d_4 read k mod p as well
        key = (i, eps if r == 2 else (k % ctx.p, eps), id(cell), id(tgt))
        if ctx.rng is not None or key not in built:
            images = _formula_value(ctx, r, i, j, cell.reps)
            built[key] = _frozen(np.zeros((tgt.dim, cell.dim), dtype=np.int64) if images is None
                                 else _page_block(r, (i, j), tgt, images))
        out[(i, j)] = built[key]
    return out


def check_d_squared(diffs: dict, r: int, p: int) -> None:
    """d_r^2 = 0, one product per distinct pair of page matrices."""
    products = {}
    for (i, j), m1 in diffs.items():
        m2 = diffs.get((i + r, j - r + 1))
        if m2 is None or not m1.size or not m2.size:
            continue
        if _shared(products, (), (m2, m1), lambda: mul_mod(m2, m1, p).any()):
            raise EngineError(f"d_{r}^2 != 0 at bidegree {(i, j)}")


def turn_page(ctx: EngineContext, page: Page, diffs: dict) -> Page:
    """E_{r+1} = H(E_r, d_r), cell by cell, in page-r coordinates.

    A changed cell takes one step, the subquotient of F_p^dim with cycles
    the kernel of the outgoing page matrix and boundaries the columns of
    the incoming one; its quotient representatives times the old ones are
    the new ones.  A cell whose page matrices are both zero (or missing) is
    carried over unchanged.  Bidegrees with the same old cell object and
    equal outgoing and incoming matrices (by content; zero and missing
    alike) get one new cell object, so rows that the formulas cannot tell
    apart share their cells from page to page."""
    r = page.r
    p = ctx.p
    check_d_squared(diffs, r, p)
    new_cells, turned = {}, {}
    for (i, j), cell in page.cells.items():
        out, inc = (_nonzero(diffs.get(ij)) for ij in ((i, j), (i - r, j + r - 1)))
        if out is None and inc is None:
            new_cells[(i, j)] = cell
            continue
        new_cells[(i, j)] = _shared(turned, (id(cell),), (out, inc),
                                    lambda: _turn_cell(cell, out, inc, p))
    return Page(r=r + 1, N=page.N, cells=new_cells, valid_through=page.valid_through)


def _nonzero(d: np.ndarray | None) -> np.ndarray | None:
    return d if d is not None and d.any() else None


def _turn_cell(cell: Cell, out: np.ndarray | None, inc: np.ndarray | None, p: int) -> Cell:
    """The cell of H(E_r, d_r) at a bidegree with page matrices out and inc
    (None for zero)."""
    if out is None:  # the kernel of a zero matrix
        cycles, free = np.eye(cell.dim, dtype=np.int64), list(range(cell.dim))
    else:
        cycles, free = kernel_basis(out, p)
    boundaries = np.zeros((0, cell.dim), dtype=np.int64) if inc is None else inc.T
    step = subquotient_of(cycles, boundaries, cell.dim, p, free)
    _frozen(step.boundary_basis)
    _frozen(step.quotient_reps)
    return Cell(mul_mod(step.quotient_reps, cell.reps, p), cell.steps + (step,))


def apply_overrides(ctx: EngineContext, page: Page, overrides: list[DifferentialOverride]):
    """Differential on page r from overrides, extended by Leibniz.

    Each override contributes the classes of source * rho, rho a basis
    class of the base row H^a(G), each a page-r cycle; a page basis class
    in their span maps to the matching combination of the classes of
    value * rho, and one outside it to zero.
    """
    r = page.r
    active = [ov for ov in overrides if ov.r == r]
    p = ctx.p
    for ov in active:
        _check_source_survives(ctx, page, ov)
    out = {}
    for (i, j), cell in page.cells.items():
        tgt = page.cells.get((i + r, j - r + 1))
        if cell.dim == 0 or tgt is None:
            continue
        sources, values = [], []
        for ov in active:
            i_s, j_s = ov.source.single_bidegree()
            if j_s != j or i < i_s:
                continue
            # columns source * rho and value * rho over the basis rho of H^a
            a = i - i_s
            i_v, j_v = ov.value.single_bidegree()
            sources.append(_row_sign(j_s, a) * ctx.mult_matrix(ov.source.rows[j_s], a, i_s))
            values.append(_row_sign(j_v, a) * ctx.mult_matrix(ov.value.rows[j_v], a, i_v))
        if not sources:
            continue
        s_mat = np.concatenate(sources, axis=1) % p
        v_mat = np.concatenate(values, axis=1) % p
        s_cols = _page_block(r, (i, j), cell, s_mat.T, "override source product")
        v_cols = _page_block(r, (i, j), tgt, v_mat.T)
        _check_override_well_defined(s_cols, v_cols, p)
        # x is zero on the page basis classes outside the sources' span
        x, _ = solve_linear(s_cols, np.eye(cell.dim, dtype=np.int64), p)
        out[(i, j)] = _frozen(mul_mod(v_cols, x, p))
    return out


def _check_source_survives(ctx, page: Page, ov: DifferentialOverride):
    i_s, j_s = ov.source.single_bidegree()
    cell = page.cells.get((i_s, j_s))
    if cell is None:
        raise EngineError(f"override source {(i_s, j_s)} is outside the computed range")
    vec = ctx.ring.to_vector(ov.source.rows[j_s], i_s)
    try:
        coords = cell.reduce(vec)
    except LinAlgError as exc:
        raise EngineError(
            f"override source {ov.source} does not survive to page {page.r}"
        ) from exc
    if not coords.any():
        raise EngineError(f"override source {ov.source} is zero on page {page.r}")


def _check_override_well_defined(s_cols, v_cols, p: int):
    """Combinations of source products (columns) that vanish on the page
    must carry values that vanish on the target page, otherwise the
    override file is inconsistent."""
    if mul_mod(v_cols, kernel_basis(s_cols, p)[0].T, p).any():
        raise EngineError("override differential is not well defined on the page")


def run(
    spec: ExtensionSpec,
    N: int,
    overrides: list[DifferentialOverride] | None = None,
    r_max: int = DEFAULT_R_MAX,
    rng=None,
) -> dict:
    """Compute pages 2..r_max and the Poincare data of the last page."""
    overrides = overrides or []
    ctx = EngineContext(spec, N, r_max, rng=rng)
    page = _init_page(ctx)
    pages = {2: page}
    while page.r < r_max:
        if page.r in (2, 3, 4):
            diffs = differential_matrix(ctx, page, page.r)
        else:
            diffs = apply_overrides(ctx, page, overrides)
        page = turn_page(ctx, page, diffs)
        pages[page.r] = page
    final = pages[r_max]
    poincare = PoincareData(
        coefficients=final.total_dims(final.valid_through),
        valid_through=final.valid_through,
    )
    return {
        "pages": pages,
        "poincare": poincare,
        "possible_higher": possible_higher_differentials(final, r_max),
    }


def possible_higher_differentials(page: Page, r_max: int) -> list[tuple[int, tuple, tuple]]:
    """Bidegree pairs that could still support a nonzero d_r for r > r_max.

    Purely an inspection of nonzero bidegrees within the trusted range;
    the engine cannot rule these out by itself.
    """
    out = []
    max_j = max((j for (_, j), c in page.cells.items() if c.dim), default=0)
    for r in range(r_max + 1, max_j + 2):
        for (i, j), cell in page.cells.items():
            if not cell.dim or j < r - 1:
                continue
            if i + j + 1 > page.valid_through:
                continue
            if page.dim(i + r, j - r + 1):
                out.append((r, (i, j), (i + r, j - r + 1)))
    return out


def expand_rational(numerator, denominator, N: int) -> list[int]:
    """Power series coefficients of numerator/denominator up to degree N.

    Polynomials are integer coefficient lists, constant term first; the
    denominator must have constant term +-1 (so the expansion is integral).
    """
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    num = list(numerator) + [0] * (N + 1 - len(numerator))
    den = list(denominator)
    if not den or den[0] not in (1, -1):
        raise ValueError("denominator constant term must be +1 or -1")
    coeffs = []
    for n in range(N + 1):
        acc = num[n]
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * coeffs[n - k]
        coeffs.append(acc * den[0])
    return coeffs


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
