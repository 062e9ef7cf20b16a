"""Per-layer call counts and self times of one `lhsseq` invocation.

    PYTHONPATH=src python3 perfbench/layer_trace.py STATS.json sseq --spec S ...

Imports every `lhsseq` module, wraps the functions listed in TARGETS,
runs `lhsseq.cli.main` on the remaining arguments in this process and
writes the counters to STATS.json.  Nothing in `src/` is changed: the
wrappers are installed from here, at run time.

A wrapped function is replaced in every `lhsseq` module that binds it,
because `engine`, `oracle`, `verifier` and `resolutions` import fplinalg
functions by name.  A target that no longer exists is listed under
"absent" and counts zero instead of failing the run.

Self time is a call's duration minus the time spent in wrapped calls it
made, so the self times of nested layers add up to the traced total.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, qualified name) of each traced function, by layer.
TARGETS = [
    ("fplinalg", "rref"),
    ("fplinalg", "subquotient_of"),
    ("fplinalg", "kernel_basis"),
    ("fplinalg", "solve_linear"),
    ("fplinalg", "Subquotient.reduce"),
    ("engine", "run"),
    ("engine", "differential_matrix"),
    ("engine", "apply_overrides"),
    ("engine", "turn_page"),
    ("engine", "check_d_squared"),
    ("engine", "EngineContext.massey_map"),
    ("engine", "EngineContext.mult_matrix"),
    ("cohomology", "cup"),
    ("cohomology", "triple_h"),
    ("cohomology", "RingContext.multiplication_matrix"),
    ("oracle", "minimal_resolution"),
    ("oracle", "double_complex_ss"),
    ("oracle", "_HomDoubleComplex.d0_block"),
    ("oracle", "_HomDoubleComplex.d1_block"),
    ("oracle", "_stream_corner_profile"),
    ("resolutions", "abelian_minimal_resolution"),
    ("resolutions", "cyclic_resolution"),
    ("verifier", "build_double_complex"),
    ("verifier", "BarDoubleComplex.d0_matrix"),
    ("verifier", "BarDoubleComplex.d1_matrix"),
    ("verifier", "BarDoubleComplex.product"),
    ("verifier", "BarDoubleComplex.complex_identity_residual"),
    ("verifier", "check_lemma1"),
    ("verifier", "build_ladder"),
    ("verifier", "build_eta_family"),
    ("diagonals", "homotopy_identity_residual"),
    ("extensions", "build_extension_group"),
    ("parsing", "parse_extension_spec"),
    ("parsing", "parse_overrides"),
]


def _matrix_shape(args, kwargs) -> tuple[int, ...]:
    """Shape of the first argument, a matrix (rref, _stream_corner_profile)."""
    return np.shape(args[0] if args else next(iter(kwargs.values())))


class LayerTrace:
    """Counters for the wrapped functions of one process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.resolution_keys: set[str] = set()
        self.absent: list[str] = []
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        on_call = self._on_call(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - child_time.pop()
                if child_time:
                    child_time[-1] += dt

        return traced

    def _on_call(self, name: str, fn):
        """Extra counters taken from a call's arguments, for some targets."""
        if name == "fplinalg.rref":
            def count(args, kwargs):
                rows, cols = _matrix_shape(args, kwargs)
                self.counts["fplinalg.rref.entries"] += rows * cols
            return count
        if name == "oracle._stream_corner_profile":
            def count(args, kwargs):
                self.counts["oracle._stream_corner_profile.cols"] += _matrix_shape(args, kwargs)[1]
            return count
        if name == "oracle.minimal_resolution":
            sig = inspect.signature(fn)

            # Keyed without the degree: a resolution to a lower degree is a
            # prefix of one to a higher degree of the same group.
            def key(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                parts = []
                for arg, v in bound.arguments.items():
                    table = getattr(v, "mul", None)  # a FiniteGroupTable
                    if table is not None:
                        parts.append(hashlib.sha256(table.tobytes()).hexdigest())
                    elif arg != "max_degree":
                        parts.append(repr(v))
                self.resolution_keys.add(" ".join(parts))
            return key
        return None

    def install(self) -> None:
        pkg = importlib.import_module("lhsseq")
        modules = [pkg] + [importlib.import_module(f"lhsseq.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        for mod_name, qualname in self.targets:
            name = f"{mod_name}.{qualname}"
            owner = sys.modules.get(f"lhsseq.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            if path:
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def stats(self) -> dict:
        metrics: dict[str, float] = {}
        for mod_name, qualname in self.targets:
            name = f"{mod_name}.{qualname}"
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            metrics[f"{name}.s"] = self.self_s.get(name, 0.0)
        metrics["fplinalg.rref.entries"] = self.counts.get("fplinalg.rref.entries", 0)
        metrics["oracle._stream_corner_profile.cols"] = self.counts.get(
            "oracle._stream_corner_profile.cols", 0)
        return {
            "metrics": metrics,
            "resolution_keys": sorted(self.resolution_keys),
            "absent": self.absent,
        }


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = LayerTrace()
    tracer.install()
    import lhsseq.cli

    try:
        return lhsseq.cli.main(cli_args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
