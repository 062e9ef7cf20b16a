"""Re-derive and prove the pinned cohomology dimensions in workloads.py.

    PYTHONPATH=src python3 perfbench/certify.py

For each pinned list, resolve the group of its spec file with
lhsseq.oracle.minimal_resolution one degree past the list and prove, with
an elimination written here that shares no code with lhsseq.fplinalg:

* d_n d_{n+1} = 0;
* every d_n commutes with left multiplication by every group element,
  so the F_n are free modules and the d_n module maps;
* every entry of d_n lies in the augmentation ideal (minimality), so the
  cochain differentials vanish and dim H^n = b_n, the rank of F_n;
* rank d_n + rank d_{n+1} = |E| b_n, with d_0 the augmentation
  (exactness at F_n).

Then the b_n must equal the pinned list.  Takes a few minutes; exits 1 on
any failure.
"""

from __future__ import annotations

import sys

import numpy as np

from lhsseq.extensions import build_extension_group
from lhsseq.oracle import minimal_resolution
from lhsseq.parsing import parse_extension_spec
from workloads import EXTRASPECIAL_125_DIMS, RANK3_ORDER81_DIMS, SPECS

PINNED = [
    (f"{SPECS}/rank3_order81.cfg", RANK3_ORDER81_DIMS),
    (f"{SPECS}/extraspecial_125.cfg", EXTRASPECIAL_125_DIMS),
]


def rank_mod_p(m: np.ndarray, p: int) -> int:
    """Rank over F_p by forward elimination."""
    a = np.array(m, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % p
        r += 1
    return r


def left_mult(mul: np.ndarray, g: int, blocks: int) -> np.ndarray:
    """perm with (g v)[perm] = v: coordinate (b, h) goes to (b, g h)."""
    order = mul.shape[0]
    return (np.arange(blocks)[:, None] * order + mul[g][None, :]).ravel()


def certify(spec_path: str, pinned: list[int]) -> list[str]:
    with open(spec_path) as fh:
        spec = parse_extension_spec(fh.read())
    group = build_extension_group(spec)
    p, order, mul = spec.p, group.order, np.asarray(group.mul)
    top = len(pinned) - 1
    data = minimal_resolution(group, top + 1, p)
    b = list(data.ranks)
    diffs = [np.ones((1, order), dtype=np.int64)] + [d % p for d in data.differentials]
    problems = []
    ranks = [rank_mod_p(d, p) for d in diffs]
    for n in range(1, top + 2):
        d = diffs[n]
        if d.shape != (b[n - 1] * order, b[n] * order):
            problems.append(f"d_{n} has shape {d.shape}")
            continue
        if np.any(d.reshape(b[n - 1], order, -1).sum(axis=1) % p):
            problems.append(f"d_{n} is not minimal")
        for g in range(order):
            rows, cols = left_mult(mul, g, b[n - 1]), left_mult(mul, g, b[n])
            gd = np.empty_like(d)
            gd[rows] = d
            if not np.array_equal(gd, d[:, cols]):
                problems.append(f"d_{n} does not commute with element {g}")
                break
        if np.any(diffs[n - 1] @ d % p):
            problems.append(f"d_{n - 1} d_{n} != 0")
    for n in range(top + 1):
        if ranks[n] + ranks[n + 1] != order * b[n]:
            problems.append(f"not exact at F_{n}: ranks {ranks[n]} + {ranks[n + 1]} != {order} * {b[n]}")
    if b[: top + 1] != pinned:
        problems.append(f"ranks {b[: top + 1]} differ from the pinned {pinned}")
    return problems


def main() -> int:
    failed = False
    for spec_path, pinned in PINNED:
        problems = certify(spec_path, pinned)
        failed |= bool(problems)
        print(f"{spec_path}: {'FAIL' if problems else 'certified'} dims {pinned}")
        for line in problems:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
