"""Command-line interface.

    etalg classify FILE [--certificates] [--json] [--order grevlex|lex]
                        [--budget-pairs N] [--budget-primitive N]
    etalg nette FILE ...          sections of one report, see below
    etalg smooth FILE ...
    etalg etale FILE ...
    etalg differentials FILE ...
    etalg decompose FILE ...

Every subcommand runs ``classify`` on the sections of the text report that
``SUBCOMMAND_SECTIONS`` names, which computes only the stages those
sections read, and prints them:

    classify       every section of the full report (``pipeline.SECTIONS``),
                   or --json
    nette          the nette flag, then a note section for the zero ring
    smooth         the standard-smooth and elementary-smooth flags
    etale          the standard-etale flag, Noether dimension, discriminant,
                   etale verdict and nilpotent witness
    differentials  the cokernel presentation of the differentials and their
                   dimension
    decompose      the etale verdict, a section saying why there is no
                   decomposition, the decomposition, primitive element and
                   nilpotent witness

With --certificates, which the report records, a flag section carries its
decision's evidence and the decomposition its idempotent certificate.

Exit codes: 0 classified, 1 input error (a command line that does not parse,
an unreadable file or a rejected presentation), 2 budget exceeded or bounded
search exhausted, 3 any other error of the package (an internal
contradiction is a bug and is reported the same way, never as a traceback).
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetExceeded, EtalgError, ParseError, SearchExhausted
from .groebner import DEFAULT_PAIR_BUDGET
from .multipoly import MonomialOrder
from .parsing import parse_file
from .pipeline import DEFAULT_PRIMITIVE_BUDGET, SECTIONS, classify, render_report


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on exit code 1, the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _budget(text):
    """A budget on the command line: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("file", help="presentation file (field / vars / relations)")
    parser.add_argument("--order", default="grevlex", choices=("grevlex", "lex"),
                        help="monomial order for the Groebner engine")
    parser.add_argument("--budget-pairs", type=_budget, default=DEFAULT_PAIR_BUDGET,
                        metavar="N",
                        help="Groebner critical-pair budget: pairs taken off the queue "
                             "after the Gebauer-Moller criteria")
    parser.add_argument("--budget-primitive", type=_budget, default=DEFAULT_PRIMITIVE_BUDGET,
                        metavar="N",
                        help="primitive-element search budget, also per field-leaf scan")
    parser.add_argument("--certificates", action="store_true",
                        help="print constructive certificates")


def build_parser():
    parser = _Parser(
        prog="etalg",
        description="Classify finitely presented algebras over Q or GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_classify = sub.add_parser("classify", help="full classification report")
    _add_common(p_classify)
    p_classify.add_argument("--json", action="store_true", help="emit the report as JSON")
    for name, description in (
        ("nette", "unramifiedness test only"),
        ("smooth", "standard / elementary smoothness tests"),
        ("etale", "etale verdict with discriminant"),
        ("differentials", "differential-module presentation"),
        ("decompose", "structure decomposition of an etale algebra"),
    ):
        _add_common(sub.add_parser(name, help=description))
    return parser


_PARSER = build_parser()  # built once per process; parse_args keeps no state between calls

# The report sections each subcommand computes and prints.
SUBCOMMAND_SECTIONS = {
    "classify": SECTIONS,
    "nette": ("nette", "trivial_note"),
    "smooth": ("standard_smooth", "elementary_smooth"),
    "etale": ("standard_etale", "noether_dimension", "discriminant", "etale", "nilpotent_witness"),
    "differentials": ("differentials", "omega_dimension"),
    "decompose": ("etale", "no_decomposition", "decomposition", "primitive_element",
                  "nilpotent_witness"),
}


def _run(args) -> str:
    report = classify(
        parse_file(args.file),
        order=MonomialOrder.parse(args.order),
        pair_budget=args.budget_pairs,
        primitive_budget=args.budget_primitive,
        certificates=args.certificates,
        sections=SUBCOMMAND_SECTIONS[args.command],
    )
    if getattr(args, "json", False):
        return report.to_json() + "\n"
    return render_report(report)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        sys.stdout.write(_run(args))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EtalgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
