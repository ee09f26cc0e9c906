"""Seeded input pools for the three benchmark workloads.

A workload is a fixed cycle of slots.  A slot fixes the family, the field,
the degrees and the CLI command.  The workload's corpus is that cycle
repeated a few times, with coefficients drawn once from a generator seeded
by the workload's name, so every prefix of the corpus has nearly the same
mix.

The run's seed then rewrites every input into an isomorphic presentation:
each variable is multiplied by a unit (a sign over Q) and each relation by a
unit.  The text, the printed report and its digest change with the seed; the
algebra, the verdicts and the shape of every Groebner computation do not.
So the cost profile of a pool stays put from seed to seed, which comparing
runs made with different seeds needs.  Drawing the structure itself from the
seed made the 90th-percentile latency of one pool differ from the next by
about a third.

This module imports neither etalg nor sympy: the measured process must not
carry the oracle's memory, and the inputs must not come from the program
under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

Q = 0  # field marker: p == 0 means the rationals


@dataclass(frozen=True)
class Case:
    """One benchmark input: a presentation and the CLI command run on it."""

    family: str
    p: int                # 0 for Q, else the prime of GF(p)
    variables: tuple
    relations: tuple      # polynomials in the .alg grammar
    command: tuple        # subcommand and flags; the file name goes after the subcommand

    @property
    def field(self) -> str:
        return "Q" if self.p == Q else f"GF({self.p})"

    def alg_text(self) -> str:
        lines = [f"field {self.field}", f"vars {', '.join(self.variables)}", "relations:"]
        lines += [f"  {rel}" for rel in self.relations]
        return "\n".join(lines) + "\n"

    def argv(self, path: str) -> list:
        return [self.command[0], path, *self.command[1:]]


# ------------------------------------------------------------------ polynomial text

def _join(terms) -> str:
    text = " + ".join(terms)
    return text.replace("+ -", "- ") if text else "0"


def _term(c: int, mono: str) -> str:
    if mono == "1":
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def _nonzero(rng, cmax: int, p: int) -> int:
    """A nonzero integer in [-cmax, cmax] that stays nonzero modulo p."""
    choices = [c for c in range(-cmax, cmax + 1) if c and (p == Q or c % p)]
    return rng.choice(choices)


def _quadric(rng, names, p, density, cmax):
    """Random quadric; every square appears, other monomials with ``density``."""
    terms = []
    for a, b in combinations_with_replacement(names, 2):
        if a == b or rng.random() < density:
            terms.append(_term(_nonzero(rng, cmax, p), f"{a}^2" if a == b else f"{a}*{b}"))
    for mono in (*names, "1"):
        if rng.random() < density:
            terms.append(_term(_nonzero(rng, cmax, p), mono))
    return _join(terms)


def _diagonal_quadric(rng, names, p, cmax):
    """Sum of squares plus one cross term, one linear term and a constant."""
    terms = [_term(_nonzero(rng, cmax, p), f"{v}^2") for v in names]
    a, b = rng.sample(list(names), 2)
    terms.append(_term(_nonzero(rng, cmax, p), f"{a}*{b}"))
    terms.append(_term(_nonzero(rng, cmax, p), rng.choice(names)))
    terms.append(str(_nonzero(rng, cmax, p)))
    return _join(terms)


# ------------------------------------------------------------------ families

def tower(rng, p, a, b, command):
    """X^a - c, Y^b - e*X - d: a two-step tower, zero-dimensional with s = n."""
    c = _nonzero(rng, 9, p)
    e = _nonzero(rng, 3, p)
    d = _nonzero(rng, 9, p)
    rels = (_join([f"X^{a}", str(-c)]), _join([f"Y^{b}", _term(-e, "X"), str(-d)]))
    return Case("tower", p, ("X", "Y"), rels, command)


def quadric_pair(rng, p, command):
    """Two generic plane conics: zero-dimensional with s = n."""
    names = ("X", "Y")
    rels = (_quadric(rng, names, p, 0.8, 4), _quadric(rng, names, p, 0.8, 4))
    return Case("quadric_pair", p, names, rels, command)


def quadric_surface(rng, p, command):
    """One quadric in three variables: positive-dimensional with s < n."""
    names = ("X", "Y", "Z")
    return Case("quadric_surface", p, names, (_quadric(rng, names, p, 0.6, 4),), command)


def quadric_ci(rng, p, command):
    """Two quadrics in four variables: positive-dimensional with s < n."""
    names = ("X", "Y", "Z", "W")
    rels = (_diagonal_quadric(rng, names, p, 3), _diagonal_quadric(rng, names, p, 3))
    return Case("quadric_ci", p, names, rels, command)


def _shifted_power_coeffs(p, m, a, b):
    """Coefficients, low degree first, of (X+a)^m + X - b modulo p."""
    coeffs = [0] * (m + 1)
    binom = 1
    for k in range(m + 1):
        coeffs[k] = binom * pow(a, m - k, p) % p
        binom = binom * (m - k) // (k + 1)
    coeffs[1] = (coeffs[1] + 1) % p
    coeffs[0] = (coeffs[0] - b) % p
    return coeffs


def _poly_gcd_degree(f, g, p):
    """Degree of gcd(f, g) over GF(p); coefficient lists, low degree first."""
    def trim(h):
        while h and h[-1] % p == 0:
            h = h[:-1]
        return h

    f, g = trim(f), trim(g)
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            f = trim([(c - q * g[k - shift]) % p if k >= shift else c for k, c in enumerate(f)])
        f, g = g, f
    return len(f) - 1


def shifted_power(rng, p, m, command):
    """(X+a)^m + X - b with a squarefree draw: an etale univariate quotient."""
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        f = _shifted_power_coeffs(p, m, a, b)
        df = [k * c % p for k, c in enumerate(f)][1:]
        if _poly_gcd_degree(f, df, p) == 0:
            break
    return Case("shifted_power", p, ("X",), (f"(X + {a})^{m} + X - {b}",), command)


def _random_monic(rng, p, degree):
    terms = [f"X^{degree}" if degree > 1 else "X"]
    for k in range(degree - 1, -1, -1):
        c = rng.randrange(p)
        if c:
            terms.append(_term(c, "1" if k == 0 else ("X" if k == 1 else f"X^{k}")))
    return _join(terms)


def repeated_factors(rng, p, pattern, command):
    """Product of random monic factors, some repeated: never etale."""
    parts = []
    for degree, mult in pattern:
        factor = f"({_random_monic(rng, p, degree)})"
        parts.append(f"{factor}^{mult}" if mult > 1 else factor)
    return Case("repeated_factors", p, ("X",), ("*".join(parts),), command)


def p_power(rng, p, command):
    """X^p - X and a shifted Y^p - Y: GF(p)^(p^2), which has no primitive element."""
    a, b = rng.randrange(p), rng.randrange(p)
    shift = _join([t for t in ("Y", _term(a, "X") if a else "", str(b) if b else "") if t])
    rels = (f"X^{p} - X", f"({shift})^{p} - ({shift})")
    return Case("p_power", p, ("X", "Y"), rels, command)


# ------------------------------------------------------------------ workloads

CLASSIFY = ("classify",)
CLASSIFY_JSON = ("classify", "--json")
CERTIFIED_COMMANDS = ("classify", "nette", "smooth", "etale", "decompose")


def _systems_cycle():
    slots = []
    for p in (Q, 7, 11):
        slots += [
            lambda rng, p=p: tower(rng, p, 3, 2, CLASSIFY),
            lambda rng, p=p: quadric_pair(rng, p, CLASSIFY),
            lambda rng, p=p: quadric_surface(rng, p, CLASSIFY),
            lambda rng, p=p: tower(rng, p, 2, 4, CLASSIFY),
            lambda rng, p=p: quadric_ci(rng, p, CLASSIFY),
        ]
    return slots


_REPEATED_PATTERNS = (((3, 2), (2, 1), (6, 1), (1, 2)), ((4, 3), (3, 2), (1, 4)))


def _quotients_cycle():
    slots = []
    for k, p in enumerate((3, 5, 7)):
        slots += [
            lambda rng, p=p: shifted_power(rng, p, 14, CLASSIFY_JSON),
            lambda rng, p=p: shifted_power(rng, p, 17, CLASSIFY_JSON),
            lambda rng, p=p, k=k: repeated_factors(rng, p, _REPEATED_PATTERNS[k % 2], CLASSIFY_JSON),
            lambda rng, p=p: shifted_power(rng, p, 20, CLASSIFY_JSON),
            lambda rng, p=p: shifted_power(rng, p, 23, CLASSIFY_JSON),
        ]
        if p in (3, 5):
            slots.append(lambda rng, p=p: p_power(rng, p, CLASSIFY_JSON))
    return slots


def _certified_cycle():
    families = (
        lambda rng, cmd: tower(rng, Q, 3, 2, cmd),
        lambda rng, cmd: shifted_power(rng, 5, 17, cmd),
        lambda rng, cmd: quadric_pair(rng, 7, cmd),
        lambda rng, cmd: repeated_factors(rng, 3, _REPEATED_PATTERNS[0], cmd),
        lambda rng, cmd: quadric_surface(rng, Q, cmd),
        lambda rng, cmd: tower(rng, 11, 2, 4, cmd),
        lambda rng, cmd: p_power(rng, 3, cmd),
        lambda rng, cmd: quadric_ci(rng, 11, cmd),
        lambda rng, cmd: shifted_power(rng, 7, 20, cmd),
    )
    # Nine families against five commands: one cycle of 45 meets every pairing.
    slots = []
    for k in range(len(families) * len(CERTIFIED_COMMANDS)):
        command = (CERTIFIED_COMMANDS[k % len(CERTIFIED_COMMANDS)], "--certificates")
        slots.append(lambda rng, f=families[k % len(families)], c=command: f(rng, c))
    return slots


def rescale(case: Case, rng) -> Case:
    """An isomorphic presentation: X_i -> c_i * X_i, f_j -> u_j * f_j for units c_i, u_j."""
    if case.p == Q:
        scalars, multipliers = (1, -1), (1, -1, 2, -2, 3, -3)
    else:
        scalars = multipliers = tuple(range(1, case.p))
    scale = {v: rng.choice(scalars) for v in case.variables}
    pattern = re.compile(r"\b(?:%s)\b" % "|".join(case.variables))

    def substitute(match):
        name = match.group(0)
        return name if scale[name] == 1 else f"({_term(scale[name], name)})"

    relations = []
    for rel in case.relations:
        text = pattern.sub(substitute, rel)
        u = rng.choice(multipliers)
        relations.append(text if u == 1 else f"{u}*({text})")
    return replace(case, relations=tuple(relations))


# name -> (slot cycle, copies of the cycle in the corpus, block).  A run
# stops only after a whole block of ops, a stretch of the pool with the
# workload's full mix, so that where it stops does not shift the mix.
WORKLOADS = {
    "systems": (_systems_cycle, 4, 15),
    "quotients": (_quotients_cycle, 3, 17),
    "certified": (_certified_cycle, 1, 9),
}


def generate(workload: str, seed: int) -> list:
    """The pool of a workload: its corpus, rewritten by ``seed`` (see ``rescale``)."""
    cycle, repeats, _ = WORKLOADS[workload]
    corpus_rng = random.Random(f"etalg-bench:{workload}")
    seed_rng = random.Random(f"etalg-bench:{workload}:{seed}")
    slots = cycle()
    corpus = [slot(corpus_rng) for _ in range(repeats) for slot in slots]
    return [rescale(case, seed_rng) for case in corpus]
