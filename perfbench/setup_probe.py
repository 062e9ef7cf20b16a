"""The set-up part of one `lhsseq` invocation, on its own.

    PYTHONPATH=src python3 perfbench/setup_probe.py sseq --spec S [--overrides O] ...

Takes the same arguments as the CLI and does only what that subcommand
does before its computation: start the interpreter and import lhsseq.cli
(with numpy); for a subcommand that reads a spec, parse the spec and
override files; for `oracle` and `compare`, build the extension group;
for `verify`, import the modules it loads on demand (scipy with
`verifier`).  run.py times this process as `setup_s`.
"""

import sys

import lhsseq.cli
from lhsseq.extensions import build_extension_group
from lhsseq.parsing import parse_extension_spec, parse_overrides


def main(argv: list[str]) -> int:
    args = lhsseq.cli.build_parser().parse_args(argv)
    if args.command == "verify":
        from lhsseq import diagonals, verifier  # noqa: F401
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            spec = parse_extension_spec(fh.read())
        if getattr(args, "overrides", None):
            with open(args.overrides) as fh:
                parse_overrides(fh.read(), spec)
        if args.command in ("oracle", "compare"):
            build_extension_group(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
