"""Parsers for class expressions, extension spec files and override files.

One expression grammar covers everything: integer coefficients, the
generators y<i>, x<i> of the quotient cohomology, and (for starting-page
elements) the kernel symbols t and u; products with '*', powers with '^',
sums with '+'/'-'.  Examples: "y1*y2", "x1 + y1*y2", "t^2*u*y1*y2", "0".

Spec files are single flat records like
    {p: 3, kernel_m: 1, quotient: [1, 1], xi: "y1*y2"}
and override files hold one differential per line,
    d5 | t^2*x1*y2 - t^2*x2*y1 | x1^3*x2 - x2^3*x1 | Kudo transgression
with '#' comments.
"""

from __future__ import annotations

import re

from .cohomology import CohoClass
from .engine import DifferentialOverride, E2Element, EngineError
from .extensions import ExtensionSpec
from .groups import AbelianPGroupSpec

__all__ = [
    "ParseError",
    "parse_class",
    "parse_e2",
    "parse_extension_spec",
    "parse_overrides",
]


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<sym>[yx]\d+|[tu])|(?P<op>[*^+-]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at ...{text[pos:pos + 10]!r}")
            break
        pos = m.end()
        if m.group("int") is not None:
            out.append(("int", int(m.group("int"))))
        elif m.group("sym") is not None:
            out.append(("sym", m.group("sym")))
        else:
            out.append(("op", m.group("op")))
    return out


def _split_terms(tokens):
    """Split a token list into (sign, factor tokens) at top-level +/-."""
    terms = []
    current = []
    sign = 1
    expecting_factor = True
    for kind, val in tokens:
        if kind == "op" and val in "+-" and expecting_factor and not current:
            sign = -sign if val == "-" else sign
            continue
        if kind == "op" and val in "+-":
            terms.append((sign, current))
            current, sign = [], (1 if val == "+" else -1)
            expecting_factor = True
        else:
            current.append((kind, val))
            expecting_factor = False
    terms.append((sign, current))
    return [t for t in terms if t[1]]


def _parse_term(sign, factors, group, allow_kernel):
    coeff = sign
    eps = [0] * group.rank
    pows = [0] * group.rank
    t_pow = 0
    u_pow = 0
    k = 0
    while k < len(factors):
        kind, val = factors[k]
        power = 1
        if k + 1 < len(factors):
            nk, nv = factors[k + 1]
            if kind != "op" and nk == "op" and nv == "^":
                if k + 2 >= len(factors) or factors[k + 2][0] != "int":
                    raise ParseError("'^' must be followed by an integer")
                power = factors[k + 2][1]
                del factors[k + 1 : k + 3]
        if kind == "int":
            coeff *= val**power
        elif kind == "sym":
            if val in ("t", "u"):
                if not allow_kernel:
                    raise ParseError(f"symbol {val!r} is not allowed in a base class")
                if val == "t":
                    t_pow += power
                else:
                    u_pow += power
            else:
                idx = int(val[1:]) - 1
                if idx < 0 or idx >= group.rank:
                    raise ParseError(
                        f"generator {val!r} exceeds the quotient rank {group.rank}"
                    )
                if val[0] == "y":
                    eps[idx] += power
                else:
                    pows[idx] += power
        elif kind == "op" and val == "*":
            pass
        else:
            raise ParseError(f"unexpected token {val!r}")
        k += 1
    return coeff, eps, pows, t_pow, u_pow


def parse_class(text: str, group: AbelianPGroupSpec) -> CohoClass:
    """Parse an expression in y/x generators into a CohoClass."""
    return _parse_rows(text, group).get(0, CohoClass.zero(group))


def parse_e2(text: str, spec: ExtensionSpec) -> E2Element:
    """Parse a starting-page expression (t/u symbols allowed)."""
    rows = _parse_rows(text, spec.quotient, spec.kernel_order)
    return E2Element(spec=spec, rows={j: c for j, c in rows.items() if not c.is_zero()})


def _parse_rows(text: str, group: AbelianPGroupSpec, kernel_order: int | None = None):
    """{j: the quotient class multiplying the kernel monomial of degree j}; the
    kernel symbols t and u are allowed only when kernel_order is given."""
    rows: dict[int, CohoClass] = {}
    for sign, factors in _split_terms(_tokenize(text)):
        coeff, eps, pows, t_pow, u_pow = _parse_term(sign, factors, group, kernel_order is not None)
        if u_pow > 1:
            if kernel_order == 2:
                t_pow, u_pow = t_pow + u_pow // 2, u_pow % 2
            else:
                raise ParseError("u^2 = 0 for kernels of order > 2")
        mono = CohoClass.monomial(group, eps, pows, coeff)
        j = 2 * t_pow + u_pow
        rows[j] = rows.get(j, CohoClass.zero(group)) + mono
    return rows


_RECORD = re.compile(r"^\s*\{(.*)\}\s*$", re.S)
_SPEC_KEYS = ("p", "kernel_m", "quotient", "xi", "xi_prime")


def parse_extension_spec(text: str) -> ExtensionSpec:
    """Parse a flat {key: value, ...} record into an ExtensionSpec."""
    text = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    m = _RECORD.match(text.strip())
    body = m.group(1) if m else text
    fields: dict[str, object] = {}
    for chunk in _split_top_level(body):
        if not chunk.strip():
            continue
        if ":" not in chunk:
            raise ParseError(f"expected 'key: value', got {chunk!r}")
        key, val = chunk.split(":", 1)
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ParseError(f"unknown spec field {key!r}; the fields are {', '.join(_SPEC_KEYS)}")
        if key in fields:
            raise ParseError(f"spec field {key!r} is given twice")
        fields[key] = _parse_value(val.strip())
    missing = {"p", "kernel_m", "quotient", "xi"} - set(fields)
    if missing:
        raise ParseError(f"missing spec fields: {sorted(missing)}")
    for key, kind in (("p", int), ("kernel_m", int), ("quotient", list)):
        if not isinstance(fields[key], kind):
            raise ParseError(f"spec field {key!r} must be {kind.__name__}, got {fields[key]!r}")
    p = fields["p"]
    quotient = AbelianPGroupSpec(p, tuple(fields["quotient"]))
    xi = parse_class(str(fields["xi"]), quotient)
    xi_prime = None
    if "xi_prime" in fields:
        xi_prime = parse_class(str(fields["xi_prime"]), quotient)
    return ExtensionSpec(
        p=p,
        kernel_m=fields["kernel_m"],
        quotient=quotient,
        xi=xi,
        xi_prime=xi_prime,
    )


def _split_top_level(body: str):
    depth = 0
    quote = None
    current = []
    for ch in body:
        if quote:
            if ch == quote:
                quote = None
            else:
                current.append(ch)
            continue
        if ch in "\"'":
            quote = ch
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in ",\n" and depth == 0:
            yield "".join(current)
            current = []
        else:
            current.append(ch)
    if current:
        yield "".join(current)


def _parse_value(val: str):
    val = val.strip()
    if val.startswith("[") and val.endswith("]"):
        inner = val[1:-1].strip()
        try:
            return [int(v) for v in inner.split(",")] if inner else []
        except ValueError:
            raise ParseError(f"expected a list of integers, got {val!r}") from None
    if val and val[0] in "\"'":
        return val.strip("\"'")
    try:
        return int(val)
    except ValueError:
        return val


def parse_overrides(text: str, spec: ExtensionSpec) -> list:
    """Parse an override file: 'd<r> | source | value | provenance' lines."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 3:
            raise ParseError(f"line {lineno}: expected 'd<r> | source | value [| note]'")
        m = re.fullmatch(r"d(\d+)", parts[0])
        if not m:
            raise ParseError(f"line {lineno}: bad page marker {parts[0]!r}")
        try:
            out.append(
                DifferentialOverride(
                    r=int(m.group(1)),
                    source=parse_e2(parts[1], spec),
                    value=parse_e2(parts[2], spec),
                    provenance=parts[3] if len(parts) > 3 else "",
                )
            )
        except EngineError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return out
