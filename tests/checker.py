"""An independent check of the decision lines of ``etalg classify --certificates``.

The checker reads two texts, an input presentation and its report, and
decides every claim of the decision lines again with sympy.  It imports
nothing from etalg, so a defect shared by the engine and its own
certificate checks cannot pass it.  Ja is the transposed Jacobian: one row
per variable, one column per relation, entry (i, j) = df_j/dX_i, and I is
the relation ideal.  Under each of the four flags:

  - ``1 = (c_1)*f1 + ... + (c_k)*minor[rows|cols]`` expands to 1, with f_j
    the j-th input relation and minor[rows|cols] the determinant of that
    submatrix of Ja;
  - ``minor: M`` / ``det: M``, and the bracketed detail above it, is the
    leading s x s minor / det(Ja), and ``inverse mod relations: V`` under it
    has M*V - 1 in I;
  - ``failed ideal (reduced basis): g_1; ...; g_r`` is sympy's reduced
    grevlex basis of I + <the minors of size min(s, n)> for nette and
    elementary smooth, and of I for a flag whose size precondition fails
    and for the two single-minor flags (standard smooth and standard etale
    print I; 1 is then checked not to be in I + <M>).  An empty list is <0>.

The ``trivial:`` line is checked as 1 in I, and a flag of a trivial report
as true with the detail ``the relation ideal contains 1``.  Of a
zero-dimensional quotient, the ``basis:`` line must list exactly the
standard monomials of sympy's reduced grevlex basis of I, ascending in
grevlex, and each ``structure constants:`` line ``b_i * b_j = v`` must have
v on those monomials and b_i*b_j - v reducing to 0 by that basis, one line
for each i <= j.  ``check_report`` returns how many lines of each kind it
checked and raises AssertionError, naming the line, on the first claim that
fails.
"""

import re
from collections import Counter
from itertools import combinations, combinations_with_replacement, product, takewhile

import sympy
from sympy.polys.orderings import grevlex

FLAG_LINE = re.compile(r"(nette|standard-smooth|elementary-smooth|standard-etale): (true|false)")
TERM = re.compile(r"\(([^()]*)\)\*(f\d+|minor\[[^\]]*\])")
SINGLE = {"standard-smooth": ("leading minor ", "minor: "), "standard-etale": ("det(Ja) = ", "det: ")}
FAILED = "failed ideal (reduced basis): "


class Ring:
    """K[X_1..X_n] of an input text, with its relations, Ja and ideal bases in sympy."""

    def __init__(self, input_text):
        lines = [raw.partition("#")[0].strip() for raw in input_text.splitlines()]
        lines = [line for line in lines if line]
        field = lines[0].removeprefix("field").strip()
        self.modulus = None if field == "Q" else int(re.fullmatch(r"GF\((\d+)\)", field)[1])
        names = [name.strip() for name in lines[1].removeprefix("vars").split(",")]
        assert lines[2] == "relations:", lines[2]
        self.names = [name for name in names if name]
        self.gens = [sympy.Symbol(name) for name in self.names]
        self.relations = [self.poly(text) for text in lines[3:]]
        self.s, self.n = len(self.relations), len(self.gens)
        self.ja = [[f.diff(x) for f in self.relations] for x in self.gens]
        self._bases = {}

    def poly(self, text):
        """A polynomial in the ring's syntax; over GF(p) a/b is a * b^-1 mod p."""
        return self.convert(sympy.parse_expr(text.replace("^", "**"),
                                             local_dict=dict(zip(self.names, self.gens))))

    def convert(self, expr):
        if self.modulus is None:
            return sympy.Poly(expr, *self.gens, domain=sympy.QQ)
        p = self.modulus
        terms = {monom: int(c.p) * pow(int(c.q), -1, p) % p
                 for monom, c in sympy.Poly(expr, *self.gens, domain=sympy.QQ).terms()}
        return sympy.Poly.from_dict(terms or {(0,) * len(self.gens): 0}, *self.gens,
                                    domain=sympy.GF(p))

    def constant(self, c):
        return self.convert(sympy.Integer(c))

    def minor(self, rows, cols):
        """The determinant of Ja's submatrix on these rows and columns (1 when empty)."""
        if not rows:
            return self.constant(1)
        total = self.constant(0)
        for k, j in enumerate(cols):  # expansion along the first row
            entry = self.ja[rows[0]][j]
            if not entry.is_zero:
                rest = self.minor(rows[1:], cols[:k] + cols[k + 1:])
                total = total + entry * rest if k % 2 == 0 else total - entry * rest
        return total

    def minors(self, size):
        return [self.minor(rows, cols) for rows in combinations(range(self.n), size)
                for cols in combinations(range(self.s), size)]

    def basis(self, extra=()):
        """sympy's reduced grevlex basis of I + <extra>, as a set (empty for <0>)."""
        key = tuple(extra)
        if key not in self._bases:
            gens = [f for f in self.relations + list(extra) if not f.is_zero]
            if not gens:
                self._bases[key] = frozenset()
            else:
                options = {"modulus": self.modulus} if self.modulus else {"domain": sympy.QQ}
                G = sympy.groebner([f.as_expr() for f in gens], *self.gens, order="grevlex", **options)
                self._bases[key] = frozenset(self.convert(g.as_expr()) for g in G.polys)
        return self._bases[key]

    def remainder(self, f):
        """f reduced by sympy's reduced grevlex basis of I."""
        options = {"modulus": self.modulus} if self.modulus else {}
        G = [g.as_expr() for g in self.basis()]
        return self.convert(sympy.reduced(f.as_expr(), G, *self.gens, order="grevlex", **options)[1])

    def standard_monomials(self):
        """The exponents outside the leading monomials of I's reduced grevlex basis.

        The pure powers among them bound each exponent; the set is empty when
        some variable has none, that is when I is not zero-dimensional.
        """
        leading = [g.monoms(order="grevlex")[0] for g in self.basis()]
        bounds = [min((m[i] for m in leading if sum(m) == m[i]), default=0) for i in range(self.n)]
        return {e for e in product(*map(range, bounds))
                if not any(all(map(int.__le__, m, e)) for m in leading)}

    def printed_basis(self, text):
        return frozenset(self.poly(g) for g in text.split("; ")) if text else frozenset()

    def term(self, label):
        """f_j or minor[rows|cols], from a Bezout identity's labels."""
        if label.startswith("f"):
            return self.relations[int(label[1:]) - 1]
        rows_txt, cols_txt = label[len("minor["):-1].split("|")
        rows = tuple(self.names.index(name) for name in rows_txt.split(",") if name)
        cols = tuple(int(name[1:]) - 1 for name in cols_txt.split(",") if name)
        return self.minor(rows, cols)


def flag_blocks(report_text):
    """(flag, value, the indented lines under it) for each flag line of a report."""
    lines = report_text.splitlines()
    for k, line in enumerate(lines):
        if match := FLAG_LINE.fullmatch(line):
            body = []
            for follow in lines[k + 1:]:
                if not follow.startswith("    "):
                    break
                body.append(follow[4:])
            yield match[1], match[2] == "true", body


def check_quotient(R, report_text, checked):
    """The ``basis:`` line and the ``structure constants:`` lines under it."""
    labels = re.search(r"^basis: (.*)$", report_text, re.M)[1].split(", ")
    monomials = [R.poly(label).monoms()[0] for label in labels]
    standard = R.standard_monomials()
    assert len(set(monomials)) == len(monomials) and set(monomials) == standard, labels
    assert monomials == sorted(monomials, key=grevlex), labels
    checked["basis"] += 1
    lines = report_text.splitlines()
    pairs = []
    for line in takewhile(lambda text: text.startswith("  "),
                          lines[lines.index("structure constants:") + 1:]):
        product_txt, value_txt = line[2:].split(" = ")
        pairs.append(tuple(product_txt.split(" * ")))
        bi, bj = (R.poly(label) for label in pairs[-1])
        v = R.poly(value_txt)
        assert set(v.monoms()) <= standard or v.is_zero, line
        assert R.remainder(bi * bj - v).is_zero, line
        checked["structure constants"] += 1
    assert pairs == list(combinations_with_replacement(labels, 2)), "the table is not every b_i * b_j"


def check_report(input_text, report_text):
    """Check every decision line of a ``classify --certificates`` report; count them by kind."""
    R = Ring(input_text)
    checked = Counter()
    one = frozenset({R.constant(1)})
    trivial = re.search(r"^trivial: (true|false)$", report_text, re.M)[1] == "true"
    assert trivial == (R.basis() == one), f"trivial: {trivial}"
    checked["trivial"] += 1
    fits = {"nette": R.s >= R.n, "standard-smooth": R.s <= R.n,
            "elementary-smooth": R.s <= R.n, "standard-etale": R.s == R.n}
    blocks = list(flag_blocks(report_text))
    assert sorted(flag for flag, _, _ in blocks) == sorted(fits), "a flag line is missing"
    for flag, value, body in blocks:
        where = f"{flag}: {body}"
        if trivial:
            assert value and body == ["[the relation ideal contains 1]"], where
            checked["trivial"] += 1
            continue
        if not fits[flag]:
            assert not value and len(body) == 2 and body[0].startswith("["), where
            assert body[1].startswith(FAILED), where
            assert R.printed_basis(body[1].removeprefix(FAILED)) == R.basis(), where
            checked["failed ideal"] += 1
            continue
        if flag in SINGLE:
            detail, name = SINGLE[flag]
            M = R.minor(tuple(range(R.s)), tuple(range(R.s)))
            assert body[0].startswith(f"[{detail}") and body[0].endswith("]"), where
            assert R.poly(body[0][len(detail) + 1:-1]) == M, where
            checked["minor"] += 1
            if value:
                assert len(body) == 3 and body[1].startswith(name), where
                assert body[2].startswith("inverse mod relations: "), where
                assert R.poly(body[1].removeprefix(name)) == M, where
                checked["minor"] += 1
                V = R.poly(body[2].removeprefix("inverse mod relations: "))
                assert R.basis([M * V - R.constant(1)]) == R.basis(), where  # M*V - 1 in I
                checked["inverse"] += 1
            else:
                assert len(body) == 2 and body[1].startswith(FAILED), where
                assert R.printed_basis(body[1].removeprefix(FAILED)) == R.basis(), where
                assert R.basis([M]) != one, where
                checked["failed ideal"] += 1
            continue
        if value:
            assert len(body) == 1 and body[0].startswith("1 = "), where
            identity = body[0].removeprefix("1 = ")
            terms = TERM.findall(identity)
            assert " + ".join(f"({c})*{label}" for c, label in terms) == identity, where
            total = R.constant(0)
            for c, label in terms:
                total = total + R.poly(c) * R.term(label)
            assert total == R.constant(1), where
            checked["bezout"] += 1
        else:
            assert len(body) == 1 and body[0].startswith(FAILED), where
            printed = R.printed_basis(body[0].removeprefix(FAILED))
            assert printed == R.basis(R.minors(min(R.s, R.n))) and printed != one, where
            checked["failed ideal"] += 1
    if re.search(r"^basis: ", report_text, re.M):
        check_quotient(R, report_text, checked)
    return checked
