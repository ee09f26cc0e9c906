"""Expected verdicts computed with sympy, and the check of etalg's output.

Nothing here imports etalg.  The oracle works from the generator's own
description of an input (field, variables, relation strings) and decides
each verdict by Groebner bases that sympy computes:

  trivial              1 in I
  noether dimension    largest variable set that contains the support of
                       no leading monomial of I
  vector-space dim.    number of standard monomials, when that dimension is 0
  nette                1 in I + <n x n minors of Ja>              (needs s >= n)
  standard smooth      1 in I + <leading s x s minor of Ja>       (needs s <= n)
  elementary smooth    1 in I + <s x s minors of Ja>              (needs s <= n)
  standard etale       1 in I + <det Ja>                          (needs s == n)
  etale                trivial, or dimension 0 and nette: a finite algebra is
                       etale exactly when its differentials vanish

Ja is the n x s transposed Jacobian, entry (i, j) = d f_j / d X_i.  The zero
ring passes every flag.  etalg decides etale by the trace-form discriminant,
so the last line cross-checks two different criteria.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, product

import sympy

FLAG_KEYS = ("nette", "standard_smooth", "elementary_smooth", "standard_etale")

# Verdicts each subcommand prints; classify prints the full set.
REQUIRED = {
    "classify": ("trivial", *FLAG_KEYS, "noether_dimension", "vector_space_dimension", "etale"),
    "nette": ("nette",),
    "smooth": ("standard_smooth", "elementary_smooth"),
    "etale": ("standard_etale", "noether_dimension", "etale"),
    "decompose": ("etale",),
}


def _groebner(polys, gens, p):
    options = {"modulus": p} if p else {"domain": "QQ"}
    return sympy.groebner(polys, *gens, order="grevlex", **options)


def _contains_one(polys, gens, p) -> bool:
    return list(_groebner(polys, gens, p).exprs) == [1]


def _noether_dimension(lead, n) -> int:
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if not any(sup <= set(subset) for sup in supports):
                return size
    return 0


def _count_standard_monomials(lead, n) -> int:
    bounds = []
    for i in range(n):
        pure = [m[i] for m in lead if m[i] and not any(e for k, e in enumerate(m) if k != i)]
        bounds.append(min(pure))
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    return sum(
        1 for mono in product(*(range(b) for b in bounds))
        if not any(divides(m, mono) for m in lead)
    )


def expected(case) -> dict:
    """Every verdict for one input, decided without etalg."""
    gens = sympy.symbols(case.variables)
    names = dict(zip(case.variables, gens))
    polys = [sympy.expand(sympy.sympify(rel.replace("^", "**"), locals=names))
             for rel in case.relations]
    n, s = len(gens), len(polys)
    basis = _groebner(polys, gens, case.p)
    if list(basis.exprs) == [1]:
        return {"trivial": True, **{k: True for k in FLAG_KEYS}, "noether_dimension": None,
                "vector_space_dimension": 0, "etale": True}
    lead = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    dim = _noether_dimension(lead, n)
    ja = sympy.Matrix(n, s, lambda i, j: sympy.diff(polys[j], gens[i]))

    def minors(k):
        return [ja.extract(list(r), list(c)).det(method="berkowitz")
                for r in combinations(range(n), k) for c in combinations(range(s), k)]

    nette = s >= n and _contains_one(polys + minors(n), gens, case.p)
    standard_smooth = s <= n and _contains_one(
        polys + [ja.extract(list(range(s)), list(range(s))).det(method="berkowitz")],
        gens, case.p)
    elementary_smooth = s <= n and _contains_one(polys + minors(s), gens, case.p)
    standard_etale = s == n and _contains_one(polys + [ja.det(method="berkowitz")], gens, case.p)
    return {
        "trivial": False,
        "nette": nette,
        "standard_smooth": standard_smooth,
        "elementary_smooth": elementary_smooth,
        "standard_etale": standard_etale,
        "noether_dimension": dim,
        "vector_space_dimension": _count_standard_monomials(lead, n) if dim == 0 else None,
        "etale": dim == 0 and nette,
    }


# ------------------------------------------------------------------ reading etalg's output

_TEXT_KEYS = {
    "trivial": "trivial",
    "nette": "nette",
    "standard-smooth": "standard_smooth",
    "elementary-smooth": "elementary_smooth",
    "standard-etale": "standard_etale",
    "noether-dimension": "noether_dimension",
    "vector-space-dimension": "vector_space_dimension",
    "etale": "etale",
}
_FACTOR = re.compile(r"^  g\d+ = (.*)$")


def _degree(poly_text: str) -> int:
    """Degree of a univariate polynomial as etalg prints it (variable T)."""
    degrees = [int(e) for e in re.findall(r"T\^(\d+)", poly_text)]
    if re.search(r"T(?!\^)", poly_text):
        degrees.append(1)
    return max(degrees, default=0)


def parse_verdicts(command: tuple, stdout: str) -> dict:
    """The verdicts an op printed, plus the sum of its factor degrees."""
    if "--json" in command:
        data = json.loads(stdout)
        verdicts = {key: data[key] for key in REQUIRED["classify"]}
        if data["decomposition"] is not None:
            verdicts["factor_degrees"] = sum(_degree(g) for g in data["decomposition"])
        return verdicts
    verdicts = {}
    factors = None
    for line in stdout.splitlines():
        if line == "decomposition:":
            factors = []
            continue
        match = _FACTOR.match(line)
        if factors is not None and match:
            factors.append(_degree(match.group(1)))
            continue
        key, sep, value = line.partition(": ")
        if not sep or key not in _TEXT_KEYS:
            continue
        if value in ("true", "false"):
            verdicts[_TEXT_KEYS[key]] = value == "true"
        elif value.startswith("undefined"):
            verdicts[_TEXT_KEYS[key]] = None
        else:
            verdicts[_TEXT_KEYS[key]] = int(value)
    if command[0] == "classify":
        verdicts.setdefault("vector_space_dimension", None)
    if factors is not None:
        verdicts["factor_degrees"] = sum(factors)
    return verdicts


def mismatches(command: tuple, stdout: str, want: dict) -> list:
    """Every way the op's printed verdicts disagree with the oracle; [] when none."""
    try:
        got = parse_verdicts(command, stdout)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    for key in REQUIRED[command[0]]:
        if key not in got:
            problems.append(f"{key}: missing")
        elif got[key] != want[key]:
            problems.append(f"{key}: printed {got[key]!r}, expected {want[key]!r}")
    if "factor_degrees" in got and got["factor_degrees"] != want["vector_space_dimension"]:
        problems.append(f"decomposition degrees add to {got['factor_degrees']}, "
                        f"expected {want['vector_space_dimension']}")
    return problems
