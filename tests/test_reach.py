"""Which functions of ``etalg`` no CLI run reaches, each with its reason.

Every subcommand, plain and with ``--certificates``, runs over every sample
and golden input under ``sys.setprofile``; every module-level function and
method of ``src/etalg`` that it never calls must be listed in ``UNREACHED``
with the reason it stays.  Code that only a library caller or a test runs
thus needs a written reason, and a function that joins or leaves the CLI's
path shows up here.  Dataclass-generated methods are left out: their code is
not in the module file.
"""

import importlib
import inspect
import pkgutil
import sys

import etalg
from etalg import cli, errors
from etalg.finalg import FiniteAlgebra
from test_golden import render_all
from util import input_files

BENCH = "bench target: bench/tracing.py traces it"
WRAPPER = "exported per-step wrapper of the path the CLI runs"
LIBRARY = "library that PAPER.md or README names"
ORACLE = "acceptance oracle"
ERROR = "error path: no sample or golden input fails there"
ABSTRACT = "abstract FieldContext method"
LARGE_P = "large-p root path: every pinned input has a small p"
RAW_TABLE = "raw-table constructor: it checks a table that comes from outside the program"
OPTION = "CLI option that no golden run passes"
PROTOCOL = "value protocol (repr, ==, hash) that no report prints"
RING = "polynomial ring operation that the tests build oracles with"

UNREACHED = {
    "cli._Parser.error": ERROR,
    "cli._budget": OPTION,
    "errors.ParseError.__init__": ERROR,
    **{f"fields.FieldContext.{name}": ABSTRACT
       for name in ("characteristic", "enumerate_scalars", "from_int", "invert", "name", "one",
                    "pth_root", "reduce", "reduce_all", "zero")},
    "fields.PrimeField.pth_root": LIBRARY,  # the p-th-power decomposition's
    "fields.Rationals.pth_root": ERROR,
    "finalg.FiniteAlgebra.__repr__": PROTOCOL,
    "finalg.FiniteAlgebra._check_associativity": RAW_TABLE,
    "finalg.FiniteAlgebra._shared_vectors": RAW_TABLE,
    "finalg._padded": ORACLE,  # product's
    "finalg.monogenic_from_poly": ORACLE,
    "finalg.product": ORACLE,
    "groebner.GroebnerBasis.__repr__": PROTOCOL,
    "groebner.inverse_mod": BENCH,
    "groebner.is_invertible_mod": BENCH,
    "kaehler.elementary_smooth_decision": WRAPPER,
    "kaehler.nette_decision": WRAPPER,
    "kaehler.standard_etale_decision": WRAPPER,
    "kaehler.standard_smooth_decision": WRAPPER,
    "kaehler.universal_derivation": LIBRARY,
    "linalg.solve": BENCH,
    "multipoly.MonomialOrder.__eq__": PROTOCOL,
    "multipoly.MonomialOrder.__hash__": PROTOCOL,
    "multipoly.MonomialOrder.__repr__": PROTOCOL,
    "multipoly.MultiPoly.__neg__": RING,
    "multipoly.MultiPoly.__repr__": PROTOCOL,
    "multipoly.MultiPoly.leading": RING,
    "multipoly.MultiPoly.monic": RING,
    "pipeline._split_roots": LARGE_P,
    "pipeline.decompose_etale": BENCH,
    "pipeline.frobenius_split": BENCH,
    "pipeline.primitive_element": BENCH,
    "unipoly.UniPoly.__add__": RING,
    "unipoly.UniPoly.__hash__": PROTOCOL,
    "unipoly.UniPoly.__neg__": RING,
    "unipoly.UniPoly.__pow__": RING,
    "unipoly.UniPoly.__repr__": PROTOCOL,
    "unipoly.UniPoly.__sub__": RING,
    "unipoly.UniPoly.coeff": RING,
    "unipoly.UniPoly.constant": RING,
    "unipoly.UniPoly.from_ints": RING,
    "unipoly.coprime_split": LIBRARY,
    "unipoly.discriminant": LIBRARY,
    "unipoly.extended_gcd": LIBRARY,
    "unipoly.pth_power_decompose": LIBRARY,
    "unipoly.resultant": LIBRARY,
}


def package_functions():
    """{code object: "module.qualname"} for the functions and methods written in each module's file."""
    out = {}
    for info in pkgutil.iter_modules(etalg.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"etalg.{info.name}")
        members = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    members.append(member.fget if isinstance(member, property) else member)
            else:
                members.append(obj)
        for func in members:
            if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                out[func.__code__] = f"{info.name}.{func.__qualname__}"
    return out


def test_every_function_no_cli_run_reaches_has_a_reason():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        cli.build_parser()  # what importing etalg.cli runs, before any test can profile it
        for _, path in input_files():
            render_all(path)
    finally:
        sys.setprofile(None)
    unreached = {name for code, name in package_functions().items() if code not in called}
    assert unreached == set(UNREACHED)


def test_the_deleted_duplicates_stay_deleted():
    # the CLI's own paths are _times_basis, _basis_traces with gram_matrix, and _idempotent
    for name in ("mul_operator", "trace", "idempotent_of", "inverse_in_subalgebra"):
        assert not hasattr(FiniteAlgebra, name)
    assert not hasattr(errors, "RepeatedZeroRoot") and not hasattr(errors, "NotInvertible")
