"""Command-line front end.

Subcommands: ``trees`` (canonical enumeration), ``structure`` (coproduct or
antipode tables for one element), ``char`` (group arithmetic, exp/log,
evolution and symplectic checks over JSON files).  Exit codes: 0 success,
2 mathematical domain errors, 1 I/O, parse and usage errors (including
output that stdout cannot encode; ``--out`` files are written as UTF-8).
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import (
    Character,
    InfinitesimalCharacter,
    char_inv,
    char_mul,
    char_exp,
    char_log,
    tree_values_from_json_dict,
)
from .convolution import TruncatedFunctional
from .errors import AlgebraError, DomainError, ParseError
from .evolution import FunctionalCurve, evolve
from .hopf import resolve_hopf
from .ideals import is_symplectic, pair_table
from .rings import RATIONAL, parse_rational
from .series import apply_series
from .trees import enumerate_trees


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors raise ``ParseError`` (exit 1,
    one ``error:`` line) instead of printing the usage and exiting 2.  Its
    subparsers are of the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"))
    common.add_argument("--out", help="output file (default stdout)")

    parser = _Parser(
        prog="hopfchar",
        description="Exact computations in truncated Hopf-algebra character groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", parents=[common],
                             help="list canonical trees per order")
    p_trees.add_argument("--max-order", type=int, required=True)

    p_struct = sub.add_parser("structure", parents=[common],
                              help="coproduct/antipode of one element")
    p_struct.add_argument("element", help="basis element (forest or word serialization)")
    p_struct.add_argument("--which", choices=("coproduct", "antipode"), required=True)
    p_struct.add_argument("--hopf", default="ck",
                          help='Hopf algebra id: "ck" or "tensor(d)" (default ck)')

    p_char = sub.add_parser("char", parents=[common],
                            help="character arithmetic on JSON files")
    p_char.add_argument(
        "op",
        choices=("mul", "inv", "exp", "log", "evolve", "symplectic", "apply"),
    )
    p_char.add_argument("inputs", nargs="+", help="input JSON file paths")
    p_char.add_argument("--t", help="evolution end time as a rational (default 1)")
    p_char.add_argument("--series",
                        help='series literal "c0,c1,..." for the apply op')
    return parser


def _emit(args, text: str) -> None:
    """Write text and a final newline to the ``--out`` file, as UTF-8, or to
    stdout.  Text that stdout cannot encode is an I/O error, and stdout gets
    none of it: the whole text is encoded before any is written."""
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as err:
        raise OSError(f"stdout cannot encode the output: {err}") from None


def _load_json(path: str) -> dict:
    """The JSON object in the file at path.  Text that does not decode as
    UTF-8 JSON, or nests past the recursion limit, is a ``ParseError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as err:  # a JSONDecodeError is a ValueError
            raise ParseError(f"{path}: {err}", getattr(err, "pos", None)) from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    return data


def _cmd_trees(args) -> str:
    if args.max_order < 1:
        raise DomainError(f"--max-order must be >= 1, got {args.max_order}")
    levels = enumerate_trees(args.max_order)
    if args.format == "json":
        return json.dumps(
            {str(n + 1): [t.serial for t in level] for n, level in enumerate(levels)},
            indent=2,
        )
    lines = []
    for n, level in enumerate(levels, start=1):
        lines.append(f"order {n} ({len(level)} trees):")
        for tree in level:
            lines.append(f"  {tree.serial}")
    return "\n".join(lines)


def _cmd_structure(args) -> str:
    hopf = resolve_hopf(args.hopf)
    element = hopf.parse_basis(args.element)
    if args.which == "antipode":
        vec = hopf.antipode(element)
        if args.format == "json":
            return json.dumps(
                {b.serial: str(c) for b, c in sorted(
                    vec, key=lambda kv: (kv[0].degree, kv[0].serial))},
                indent=2,
            )
        return vec.format()
    terms = sorted(
        hopf.coproduct(element),
        key=lambda t: (t[1].degree, t[1].serial, t[2].serial),
    )
    if args.format == "json":
        return json.dumps(
            [[str(c), left.serial, right.serial] for c, left, right in terms],
            indent=2,
        )
    lines = []
    for coeff, left, right in terms:
        prefix = "" if coeff == 1 else f"{coeff} "
        lines.append(f"{prefix}{left.serial} ⊗ {right.serial}")
    return "\n".join(lines)


#: The one ``char`` op that reads each of these options; the others refuse it.
_READ_BY = {"t": "evolve", "series": "apply", "format": "symplectic"}


def _cmd_char(args) -> str:
    op = args.op
    for option, reader in _READ_BY.items():
        if getattr(args, option) is not None and op != reader:
            raise ParseError(f"{op} does not read --{option}")
    count, files = (2, "two input files") if op == "mul" else (1, "one input file")
    if len(args.inputs) != count:
        raise ParseError(f"{op} needs exactly {files}")
    if op == "mul":
        phi = Character(TruncatedFunctional.from_json_dict(_load_json(args.inputs[0])))
        psi = Character(TruncatedFunctional.from_json_dict(_load_json(args.inputs[1])))
        return char_mul(phi, psi).functional.to_json()
    if op == "inv":
        phi = Character(TruncatedFunctional.from_json_dict(_load_json(args.inputs[0])))
        return char_inv(phi).functional.to_json()
    if op == "exp":
        phi = InfinitesimalCharacter(
            TruncatedFunctional.from_json_dict(_load_json(args.inputs[0]))
        )
        return char_exp(phi).functional.to_json()
    if op == "log":
        psi = Character(TruncatedFunctional.from_json_dict(_load_json(args.inputs[0])))
        return char_log(psi).functional.to_json()
    if op == "evolve":
        curve = FunctionalCurve.from_json_dict(_load_json(args.inputs[0]))
        return evolve(curve, RATIONAL.parse_element("1" if args.t is None else args.t)).to_json()
    if op == "apply":
        if not args.series:
            raise ParseError("apply needs --series \"c0,c1,...\"")
        functional = TruncatedFunctional.from_json_dict(_load_json(args.inputs[0]))
        series = [parse_rational(p) for p in args.series.split(",")]
        return apply_series(series, functional).to_json()
    # symplectic: tree-value map JSON {"truncation": N, "trees": {...}}
    values, truncation, ring = tree_values_from_json_dict(_load_json(args.inputs[0]))
    verdict = is_symplectic(values, truncation, ring)
    count = len(pair_table(truncation))
    if args.format == "json":
        return json.dumps({"symplectic": verdict, "generators": count}, indent=2)
    return f"{'true' if verdict else 'false'} (generators checked: {count})"


def _attach_values(argv: list) -> list:
    """Spell ``--t V``, ``--series V`` and ``--out V`` (or an abbreviation
    such as ``--ser V``) as ``--t=V``, ``--series=V`` and ``--out=V``.

    argparse takes a value that starts with "-" for an option unless it is a
    plain negative number, so ``--t -1/2`` would be a usage error.  Here the
    token after any of these options is always its value, as in getopt."""
    out, tokens = [], iter(argv)
    for token in tokens:
        takes_value = len(token) > 2 and any(option.startswith(token)
                                             for option in ("--t", "--series", "--out"))
        value = next(tokens, None) if takes_value else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        if args.command == "trees":
            output = _cmd_trees(args)
        elif args.command == "structure":
            output = _cmd_structure(args)
        else:
            output = _cmd_char(args)
        _emit(args, output)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except AlgebraError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
