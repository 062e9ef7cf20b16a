"""The spectral sequence of a central extension, driven by formulas.

Coordinates: the starting page at bidegree (i, j) is H^i(G) tensored
with the one-dimensional row generator of the kernel (t^k for j = 2k,
t^k u for j = 2k+1; for a kernel of order two the rows are powers of u
with u^2 = t and the same bookkeeping applies).  Every page stores, per
bidegree, nested cycle/boundary subspaces of that fixed coordinate
space, so the formula differentials can always be evaluated on concrete
representatives: each d_r is one linear map per bidegree, applied to
the block of its quotient representatives (rows) by matrix products
with the cached multiplication and Massey maps:

    d2(t^k u chi) = t^k xi chi                   d2(t^k chi) = 0
    d3(t^k chi)   = k t^{k-1} xi' chi            (xi' the Bockstein class)
    d3(t^k u chi) = -k t^{k-1} u xi' chi
    d4(t^k u chi) = k t^{k-1} <xi', chi, xi>     (Massey triple product)
    d4(t^k chi)   = k(k-1) t^{k-2} u xi' chi'    with xi chi' = xi' chi

d4 on an even row solves xi chi' = xi' chi for the whole block at once.
Differentials on pages five and up are zero unless supplied as
overrides, which are extended over the page by the Leibniz rule (their
products with surviving base-row classes), again one solve per bidegree.
Both kinds reach turn_page as the same (page matrix, image rows) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import CohoClass, RingContext, triple_h
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
    "Page",
    "DifferentialOverride",
    "PoincareData",
    "init_pages",
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


@dataclass
class Page:
    """One page of the spectral sequence, truncated at total degree N."""

    r: int
    N: int
    cells: dict[tuple[int, int], Subquotient]
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

    def mult_matrix(self, cls: CohoClass, degree: int, shift: int) -> np.ndarray:
        """Multiplication by cls: H^degree -> H^{degree+shift}; the shift
        is passed explicitly so the zero class keeps honest dimensions."""
        key = (str(cls), shift, degree)
        if key not in self._mult:
            rows = self.ring.dim(degree + shift)
            cols = self.ring.dim(degree)
            m = np.zeros((rows, cols), dtype=np.int64)
            if not cls.is_zero():
                if cls.degree != shift:
                    raise EngineError("class degree does not match the shift")
                m = self.ring.multiplication_matrix(cls, degree)
            self._mult[key] = m % self.p
        return self._mult[key]

    def massey_map(self, degree: int) -> np.ndarray:
        """Matrix of chi -> h(xi', chi, xi) on H^degree(G)."""
        key = ("massey", degree)
        if key not in self._mult:
            rows = self.ring.dim(degree + 4)
            cols = self.ring.dim(degree)
            m = np.zeros((rows, cols), dtype=np.int64)
            for col, mon in enumerate(self.ring.basis(degree)):
                chi = CohoClass(self.spec.quotient, {mon: 1})
                val = triple_h(self.xi_prime, chi, self.xi)
                m[:, col] = self.ring.to_vector(val, degree + 4)
            self._mult[key] = m % self.p
        return self._mult[key]


def init_pages(spec: ExtensionSpec, N: int, r_max: int = DEFAULT_R_MAX) -> Page:
    """The starting page: full cycle spaces, no boundaries."""
    ctx = EngineContext(spec, N, r_max)
    return _init_page(ctx)


def _init_page(ctx: EngineContext) -> Page:
    """Every cell is its whole coordinate space: the identity is already
    the canonical echelon basis, so no elimination is needed."""
    cells = {}
    for i in range(ctx.N + 1):
        dim = ctx.ring.dim(i)
        if dim == 0:
            continue
        for j in range(ctx.N + 1 - i):
            cells[(i, j)] = Subquotient(
                p=ctx.p,
                ambient_dim=dim,
                boundary_basis=np.zeros((0, dim), dtype=np.int64),
                quotient_reps=np.eye(dim, dtype=np.int64),
                _b_pivots=[],
                _r_pivots=list(range(dim)),
            )
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


def _page_block(r: int, ij: tuple[int, int], tgt: Subquotient, images: np.ndarray):
    """(page matrix, image rows) of d_r on bidegree ij, from the images of
    its representatives as rows in the target's ambient coordinates."""
    try:
        return tgt.reduce(images).T, images
    except LinAlgError as exc:
        raise EngineError(f"d_{r} value at {ij} is not a page-{r} cycle: {exc}") from exc


def differential_matrix(ctx: EngineContext, page: Page, r: int):
    """Per-bidegree d_r data: {(i, j): (page matrix, image rows)}.

    The page matrix maps source page coordinates to target page
    coordinates; image row k is the image of quotient representative k
    in ambient V coordinates.
    """
    if r != page.r:
        raise EngineError(f"page is at r={page.r}, asked for d_{r}")
    out = {}
    for (i, j), cell in page.cells.items():
        tgt = page.cells.get((i + r, j - r + 1))
        if cell.dim == 0 or tgt is None:
            # missing target: either a negative row (formulas vanish there)
            # or beyond the truncation, where valid_through already rules
            continue
        images = _formula_value(ctx, r, i, j, cell.quotient_reps)
        if images is None:
            images = np.zeros((cell.dim, tgt.ambient_dim), dtype=np.int64)
        out[(i, j)] = _page_block(r, (i, j), tgt, images)
    return out


def check_d_squared(page: Page, diffs: dict, r: int, p: int) -> None:
    for (i, j), (m1, _) in diffs.items():
        nxt = diffs.get((i + r, j - r + 1))
        if nxt is None:
            continue
        m2 = nxt[0]
        if m1.size and m2.size and mul_mod(m2, m1, p).any():
            raise EngineError(f"d_{r}^2 != 0 at bidegree {(i, j)}")


def turn_page(ctx: EngineContext, page: Page, diffs: dict) -> Page:
    """Homology of d_r, cell by cell.  The new cycles are the boundaries
    plus the combinations of representatives in the kernel of the outgoing
    page matrix (one exact product); the new boundaries add the incoming
    image rows.  subquotient_of echelonizes both spans and checks B <= Z by
    one exact product.  A cell whose outgoing and incoming page matrices
    are both zero is carried over unchanged: subquotient_of would rebuild
    it from the same spans, identically."""
    r = page.r
    p = ctx.p
    check_d_squared(page, diffs, r, p)
    new_cells = {}
    for (i, j), cell in page.cells.items():
        out = diffs.get((i, j))
        inc = diffs.get((i - r, j + r - 1))
        if all(d is None or not d[0].any() for d in (out, inc)):
            new_cells[(i, j)] = cell
            continue
        cycles = cell.quotient_reps
        if out is not None:
            cycles = mul_mod(kernel_basis(out[0], p)[0], cycles, p)
        boundaries = cell.boundary_basis
        if inc is not None:
            boundaries = np.concatenate([boundaries, inc[1]])
        new_cells[(i, j)] = subquotient_of(
            np.concatenate([cell.boundary_basis, cycles]), boundaries, cell.ambient_dim, p
        )
    return Page(r=r + 1, N=page.N, cells=new_cells, valid_through=page.valid_through)


def apply_overrides(
    ctx: EngineContext, page: Page, overrides: list[DifferentialOverride]
):
    """Differential on page r from overrides, extended by Leibniz.

    Each override contributes the subspace {source * rho} with rho a
    surviving base-row class; a page class decomposes (modulo boundaries)
    over those subspaces and maps to the matching combination of
    value * rho, and to zero off them.
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
        aug = np.concatenate([s_mat, cell.boundary_basis.T], axis=1)
        _check_override_well_defined(r, (i, j), tgt, aug, v_mat)
        # x is zero on the representatives outside sources + boundaries
        x, _ = solve_linear(aug, cell.quotient_reps.T, p)
        out[(i, j)] = _page_block(r, (i, j), tgt, mul_mod(v_mat, x[: s_mat.shape[1]], p).T)
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
        raise EngineError(
            f"override source {ov.source} is zero on page {page.r}"
        )


def _check_override_well_defined(r, ij, tgt: Subquotient, aug, v_mat):
    """Kernel directions of [sources | boundaries] must carry values into
    the target boundaries, otherwise the override file is inconsistent."""
    heads = kernel_basis(aug, tgt.p)[0][:, : v_mat.shape[1]]
    mat, _ = _page_block(r, ij, tgt, mul_mod(heads, v_mat.T, tgt.p))
    if mat.any():
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
