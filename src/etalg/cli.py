"""Command-line interface.

    etalg classify FILE [--certificates] [--json] [--order grevlex|lex]
                        [--budget-pairs N] [--budget-primitive N]
    etalg nette FILE ...          sections of the full report, see below
    etalg smooth FILE ...
    etalg etale FILE ...
    etalg differentials FILE ...
    etalg decompose FILE ...

Every subcommand but ``differentials`` runs ``classify`` and prints the
sections of its one text report that ``SUBCOMMAND_SECTIONS`` names:

    classify    every section (``pipeline.SECTIONS``), or --json
    nette       the nette flag, then a note section for the zero ring
    smooth      the standard-smooth and elementary-smooth flags
    etale       the standard-etale flag, Noether dimension, discriminant,
                etale verdict and nilpotent witness
    decompose   the etale verdict, a section saying why there is no
                decomposition, the decomposition, primitive element and
                nilpotent witness

With --certificates, which the report records, a flag section carries its
decision's evidence and the decomposition its idempotent certificate.
``differentials`` prints the cokernel presentation of the differentials and
their dimension instead.

Exit codes: 0 classified, 1 input error, 2 budget exceeded or bounded search
exhausted, 3 any other error of the package (an internal contradiction is a
bug and is reported the same way, never as a traceback).
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetExceeded, EtalgError, ParseError, SearchExhausted
from .groebner import DEFAULT_PAIR_BUDGET, contains_one, noether_dimension
from .kaehler import omega_dimension, omega_presentation, relation_basis
from .multipoly import MonomialOrder
from .parsing import parse_file
from .pipeline import DEFAULT_PRIMITIVE_BUDGET, SECTIONS, classify, render_sections


def _add_common(parser):
    parser.add_argument("file", help="presentation file (field / vars / relations)")
    parser.add_argument("--order", default="grevlex", choices=("grevlex", "lex"),
                        help="monomial order for the Groebner engine")
    parser.add_argument("--budget-pairs", type=int, default=DEFAULT_PAIR_BUDGET, metavar="N",
                        help="Groebner critical-pair budget")
    parser.add_argument("--budget-primitive", type=int, default=DEFAULT_PRIMITIVE_BUDGET,
                        metavar="N",
                        help="primitive-element search budget, also per field-leaf scan")
    parser.add_argument("--certificates", action="store_true",
                        help="print constructive certificates")


def build_parser():
    parser = argparse.ArgumentParser(
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


# The report sections each subcommand prints.
SUBCOMMAND_SECTIONS = {
    "classify": SECTIONS,
    "nette": ("nette", "trivial_note"),
    "smooth": ("standard_smooth", "elementary_smooth"),
    "etale": ("standard_etale", "noether_dimension", "discriminant", "etale", "nilpotent_witness"),
    "decompose": ("etale", "no_decomposition", "decomposition", "primitive_element",
                  "nilpotent_witness"),
}


def _run(args) -> str:
    presentation = parse_file(args.file)
    order = MonomialOrder.parse(args.order)
    if args.command == "differentials":
        return _differentials_text(presentation, order, args.budget_pairs)
    report = classify(
        presentation,
        order=order,
        pair_budget=args.budget_pairs,
        primitive_budget=args.budget_primitive,
        certificates=args.certificates,
    )
    if getattr(args, "json", False):
        return report.to_json() + "\n"
    return "\n".join(render_sections(report, SUBCOMMAND_SECTIONS[args.command])) + "\n"


def _differentials_text(presentation, order, pair_budget) -> str:
    D = omega_presentation(presentation)
    lines = ["differential-module presentation:"]
    lines.append(f"  generators: {', '.join(D.generators)}")
    lines.append("  relations (columns of the transposed Jacobian):")
    if presentation.s == 0:
        lines.append("    (none)")
    for j in range(presentation.s):
        terms = []
        for i, gen in enumerate(D.generators):
            entry = D.relation_table[i][j]
            if entry.is_zero:
                continue
            terms.append(f"({entry.format(order)})*{gen}")
        lines.append(f"    r{j + 1}: " + (" + ".join(terms) if terms else "0"))
    gb = relation_basis(presentation, order, pair_budget)
    if contains_one(gb):
        lines.append("  omega-dimension: 0 (zero ring)")
    elif noether_dimension(gb) == 0:
        lines.append(f"  omega-dimension: {omega_dimension(presentation, order, pair_budget, gb=gb)}")
    else:
        lines.append("  omega-dimension: undefined (quotient not finite-dimensional)")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
