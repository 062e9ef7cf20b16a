"""The paper's theorem over the class space: for a drawn central extension
of an abelian p-group by C_p, the engine's pages E_2..E_5 (the closed d_2,
d_3 and d_4) equal the pages of the formula-free double-complex oracle.

p is drawn from {2, 3, 5} and the quotient from every sum of cyclic
p-groups with |E| <= 81 (125 at p = 5); the class xi is a nonzero
combination of the x_i and the y_i y_j.  The compared degree falls with
the quotient's rank so that each example stays well under a second, and
the engine runs to that degree plus DEFAULT_R_MAX, as `compare` does.
Examples are derandomized: every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lhsseq.cohomology import CohoClass, cup
from lhsseq.engine import DEFAULT_R_MAX, run
from lhsseq.extensions import ExtensionSpec
from lhsseq.groups import AbelianPGroupSpec
from lhsseq.oracle import double_complex_ss

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# the largest sum of quotient exponents: p^(1 + sum) = |E| <= 81, 125 at p = 5
MAX_EXPONENT_SUM = {2: 5, 3: 3, 5: 2}
# the compared total degree by quotient rank
DEGREE_BY_RANK = {1: 8, 2: 7, 3: 5, 4: 3, 5: 2}


@st.composite
def extensions(draw) -> ExtensionSpec:
    p = draw(st.sampled_from(sorted(MAX_EXPONENT_SUM)))
    top = MAX_EXPONENT_SUM[p]
    rank = draw(st.integers(1, top))
    spare = top - rank  # exponent units beyond one per factor
    exponents = []
    for _ in range(rank):
        extra = draw(st.integers(0, spare))
        spare -= extra
        exponents.append(1 + extra)
    q = AbelianPGroupSpec(p, tuple(sorted(exponents, reverse=True)))
    n = len(q.exponents)
    gens = [CohoClass.x(q, i) for i in range(n)]
    gens += [cup(CohoClass.y(q, i), CohoClass.y(q, j)) for i in range(n) for j in range(i + 1, n)]
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(gens), max_size=len(gens))
                  .filter(any))
    xi = CohoClass.zero(q)
    for c, g in zip(coeffs, gens):
        xi = xi + g.scale(c)
    return ExtensionSpec(p=p, kernel_m=1, quotient=q, xi=xi)


@SETTINGS
@given(extensions())
def test_engine_pages_two_to_five_equal_the_oracle(spec):
    deg = DEGREE_BY_RANK[len(spec.quotient.exponents)]
    engine = run(spec, deg + DEFAULT_R_MAX, r_max=5)["pages"]
    oracle = double_complex_ss(spec, deg, r_max=5).tables
    for r in range(2, 6):
        etab = {k: v for k, v in engine[r].dims_table().items() if sum(k) <= deg}
        otab = {k: v for k, v in oracle[r].items() if sum(k) <= deg and v}
        assert etab == otab, (spec.describe(), r)
