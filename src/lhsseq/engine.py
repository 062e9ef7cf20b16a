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

E_2's classes are the unit vectors, so d_2's page matrix is the cached
multiplication by xi itself.  d4 on an even row solves xi chi' = xi' chi
for the whole block at once.
The multiplication maps are summed from RingContext's monomial product
tables, and the Massey map is one composition, sum_k C(p^{m_k}, 3)
(w_k times) o d_k with w_k = x_k d_k(xi) d_k(xi') a fixed degree-five
class (see massey_map); neither calls cup per basis monomial.
Differentials on pages five and up are zero unless supplied as
overrides, which are extended over the page by the Leibniz rule (their
products with surviving base-row classes), again one solve per bidegree,
in page coordinates.  differential_matrix makes both kinds, and keeps a
page matrix only where it is nonzero: a bidegree without one has d_r = 0.

A page is stored as its row block.  The lemma (kernel C_p): for
r <= 2p + 1, E_r = N_r (x) F_p[t^p], N_r the rows 0..2p-1.  For r <= 2p,
t^p is a d_r-cycle (Kudo's transgression theorem, Mem. Fac. Sci. Kyusyu
Univ. A 9, 1956), so d_r, a derivation, is t^p-linear; zero out of rows
j < r - 1, it maps N_r into itself, and E_{r+1} = H(N_r, d_r) (x)
F_p[t^p].  The formulas above are t^p-linear as they stand: they read
row j = 2k + eps only through eps and k mod p.  So a Page holds the
cells (i, j) with j < 2p and i + j <= N, row j reads block row j mod 2p,
and an override, given on the block, acts on every t^{pk} multiple of
its source.  E_3 even has period 2 (t is a d_2-cycle), so turning E_2
copies rows 0 and 1 up the block.  Refused: an override on a page
r > 2p (any at p = 2), one whose source lies in a row >= 2p (give it
divided by t^{pk}), and any with kernel_m > 1, where the lemma is not
shown; so at p = 2 the pages past E_5 equal E_5.  Cells of total degree
N never get their outgoing d_r, so pages are exact through N - 1 only.
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
    """A homogeneous starting-page element: a nonzero base class in row j,
    at bidegree (cls.degree, j)."""

    j: int
    cls: CohoClass

    @property
    def bidegree(self) -> tuple[int, int]:
        return self.cls.degree, self.j

    def __str__(self):
        k, eps = divmod(self.j, 2)
        fiber = ("t" if k == 1 else f"t^{k}" if k else "") + ("*u" if eps and k else "u" if eps else "")
        return f"({self.cls})" + (f"*{fiber}" if fiber else "")


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
        i_s, j_s = self.source.bidegree
        i_v, j_v = self.value.bidegree
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
    """One page of the spectral sequence, truncated at total degree N, as
    its row block: the cells (i, j) with j < period = 2p and i + j <= N."""

    r: int
    N: int
    period: int
    cells: dict[tuple[int, int], Cell]
    valid_through: int

    def cell(self, i: int, j: int) -> Cell | None:
        """The cell at (i, j), block row j mod period; None off the page."""
        if i < 0 or j < 0 or i + j > self.N:
            return None
        return self.cells.get((i, j % self.period))

    def dim(self, i: int, j: int) -> int:
        cell = self.cell(i, j)
        return cell.dim if cell else 0

    def dims_table(self) -> dict[tuple[int, int], int]:
        """Nonzero dimensions through total degree N - 1, the last exact one."""
        return {(i, j): d for i in range(self.N) for j in range(self.N - i)
                if (d := self.dim(i, j))}

    def total_dims(self, through: int | None = None) -> list[int]:
        through = self.valid_through if through is None else through
        return [sum(self.dim(i, n - i) for i in range(n + 1)) for n in range(through + 1)]


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
    """a, made read-only: cells, steps and page matrices are shared (by
    rows, pages or the multiplication cache), so a write must raise."""
    a.flags.writeable = False
    return a


def _init_page(ctx: EngineContext) -> Page:
    """The starting block: every cell is its whole coordinate space, its
    classes the unit vectors."""
    period = 2 * ctx.p
    cells = {}
    for i in range(ctx.N + 1):
        dim = ctx.ring.dim(i)
        if dim == 0:
            continue
        e2 = Cell(np.eye(dim, dtype=np.int64))
        for j in range(min(period, ctx.N + 1 - i)):
            cells[(i, j)] = e2
    return Page(r=2, N=ctx.N, period=period, cells=cells, valid_through=ctx.N - ctx.r_max)


def _row_sign(j: int, deg: int) -> int:
    """Sign for moving the fiber part of row j past a base class."""
    return -1 if (j * deg) % 2 else 1


def _formula_value(ctx: EngineContext, r: int, i: int, j: int, reps: np.ndarray):
    """Images under d_r, r = 3 or 4, of a block of representatives (rows,
    V_{i,j} coordinates, residues), as rows in V_{i+r, j-r+1} coordinates,
    or None when the formula gives zero."""
    p = ctx.p
    k, eps = divmod(j, 2)
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


def differential_matrix(ctx: EngineContext, page: Page, overrides=()):
    """d_r on the block, r = page.r: {(i, j): page matrix}, mapping source
    page coordinates to target page coordinates, for the bidegrees where
    d_r is nonzero; a missing key is a zero matrix.  d_2, d_3 and d_4 are
    the formulas; on pages five and up d_r comes from the overrides of
    page r, extended by the Leibniz rule (_leibniz_block), and is zero
    without them."""
    r = page.r
    active = [ov for ov in overrides if ov.r == r]
    for ov in active:
        _check_source_survives(ctx, page, ov)
    out = {}
    for (i, j), cell in page.cells.items():
        tgt = page.cells.get((i + r, j - r + 1))
        if cell.dim == 0 or tgt is None:
            # missing target: either a negative row (d_r vanishes there)
            # or beyond the truncation, where valid_through already rules
            continue
        if r == 2:  # on E_2's unit vectors, multiplication by xi itself
            m = ctx.mult_matrix(ctx.xi, i, 2) if j % 2 else None
        elif r <= 4:
            images = _formula_value(ctx, r, i, j, cell.reps)
            m = None if images is None else _page_block(r, (i, j), tgt, images)
        else:
            m = _leibniz_block(ctx, r, (i, j), cell, tgt, active)
        if m is not None and m.any():
            out[(i, j)] = _frozen(m)
    return out


def _leibniz_block(ctx: EngineContext, r: int, ij: tuple[int, int], cell: Cell, tgt: Cell,
                   active: list[DifferentialOverride]) -> np.ndarray | None:
    """The page matrix at ij of d_r from the overrides of page r, extended by
    Leibniz, or None when none reaches ij.

    Each override contributes the classes of source * rho, rho a basis
    class of the base row H^a(G), each a page-r cycle; a page basis class
    in their span maps to the matching combination of the classes of
    value * rho, and one outside it to zero.  On the block this is also
    d_r(t^{pk} source * rho) = t^{pk} value * rho.
    """
    i, j = ij
    p = ctx.p
    sources, values = [], []
    for ov in active:
        (i_s, j_s), (i_v, j_v) = ov.source.bidegree, ov.value.bidegree
        if j_s != j or i < i_s:
            continue
        # columns source * rho and value * rho over the basis rho of H^a
        a = i - i_s
        sources.append(_row_sign(j_s, a) * ctx.mult_matrix(ov.source.cls, a, i_s))
        values.append(_row_sign(j_v, a) * ctx.mult_matrix(ov.value.cls, a, i_v))
    if not sources:
        return None
    s_mat = np.concatenate(sources, axis=1) % p
    v_mat = np.concatenate(values, axis=1) % p
    s_cols = _page_block(r, ij, cell, s_mat.T, "override source product")
    v_cols = _page_block(r, ij, tgt, v_mat.T)
    _check_override_well_defined(s_cols, v_cols, p)
    # x is zero on the page basis classes outside the sources' span
    x, _ = solve_linear(s_cols, np.eye(cell.dim, dtype=np.int64), p)
    return mul_mod(v_cols, x, p)


def check_d_squared(diffs: dict, r: int, p: int) -> None:
    """d_r^2 = 0 at every bidegree."""
    for (i, j), m1 in diffs.items():
        m2 = diffs.get((i + r, j - r + 1))
        if m2 is not None and mul_mod(m2, m1, p).any():
            raise EngineError(f"d_{r}^2 != 0 at bidegree {(i, j)}")


def turn_page(ctx: EngineContext, page: Page, diffs: dict) -> Page:
    """E_{r+1} = H(E_r, d_r), cell by cell of the block, in page-r
    coordinates.

    A changed cell takes one step, the subquotient of F_p^dim with cycles
    the kernel of the outgoing page matrix and boundaries the columns of
    the incoming one; its quotient representatives times the old ones are
    the new ones.  A cell with no page matrix out or in (diffs holds the
    nonzero ones) is carried over unchanged.  A block cell in row j is hit
    from row j + r - 1; when that is 2p or more, the source is t^p times a
    class of a row below r - 1, where d_r is zero, so no matrix comes in."""
    r = page.r
    check_d_squared(diffs, r, ctx.p)
    new_cells = {}
    for (i, j), cell in page.cells.items():
        if r == 2 and j >= 2:
            # t is a d_2-cycle (d_2 reads only eps): E_3 repeats rows 0 and 1
            new_cells[(i, j)] = new_cells[(i, j % 2)]
            continue
        out, inc = diffs.get((i, j)), diffs.get((i - r, j + r - 1))
        new_cells[(i, j)] = (cell if out is None and inc is None
                             else _turn_cell(cell, out, inc, ctx.p))
    return Page(r=r + 1, N=page.N, period=page.period, cells=new_cells,
                valid_through=page.valid_through)


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
    # an E_2 cell's representatives are the identity
    reps = mul_mod(step.quotient_reps, cell.reps, p) if cell.steps else step.quotient_reps
    return Cell(reps, cell.steps + (step,))


def _check_overrides(ctx: EngineContext, overrides: list[DifferentialOverride]):
    """Refuse the overrides the row block cannot carry (module docstring) or no page turn reads."""
    p, period = ctx.p, 2 * ctx.p
    if overrides and ctx.spec.kernel_m > 1:
        raise EngineError(f"overrides need kernel_m = 1, got {ctx.spec.kernel_m}: the row "
                          "block is shown for a kernel C_p only")
    for ov in overrides:
        i_s, j_s = ov.source.bidegree
        if i_s + j_s > ctx.N:
            raise EngineError(f"override source {(i_s, j_s)} is outside the computed range")
        if ov.r > period:
            raise EngineError(f"d_{ov.r} override at p = {p}: past page 2p = {period}, t^{p} "
                              f"need not survive, so the override cannot act on its multiples")
        if ov.r >= ctx.r_max:
            raise EngineError(f"d_{ov.r} override with r_max = {ctx.r_max}: pages turn only "
                              f"through d_{ctx.r_max - 1}, so it would never act; raise r_max")
        if j_s >= period:
            raise EngineError(f"override source {ov.source} lies in row {j_s} >= 2p = {period}: "
                              f"give the override divided by t^{p * (j_s // period)}")


def _check_source_survives(ctx, page: Page, ov: DifferentialOverride):
    i_s, j_s = ov.source.bidegree
    cell = page.cells[(i_s, j_s)]
    vec = ctx.ring.to_vector(ov.source.cls, i_s)
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
    _check_overrides(ctx, overrides)
    page = _init_page(ctx)
    pages = {2: page}
    while page.r < r_max:
        page = turn_page(ctx, page, differential_matrix(ctx, page, overrides))
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
    top = page.valid_through
    return [(r, (i, j), (i + r, j - r + 1))
            for r in range(r_max + 1, top + 1)
            for i in range(top) for j in range(r - 1, top - i)
            if page.dim(i, j) and page.dim(i + r, j - r + 1)]


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
