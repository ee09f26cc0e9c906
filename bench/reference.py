"""Counters of two reference inputs, traced, against the figures they should show.

    python3 bench/reference.py

* The three-step tower X^3 - 2, Y^2 - X - 1, Z^2 - Y - 3 over Q: ``classify``
  runs Groebner 5 times (the base ideal, then I + <det Ja> once for each of
  the four flags, since s = n).
* (X+1)^30 + X over GF(3): the structure table takes m(m+1)/2 + 1 + n normal
  forms (every product of two basis monomials, the unit, and each variable),
  which is 467 for m = 30 and n = 1.

The counts describe the code as it is; an optimisation that removes
duplicate Groebner runs or builds the table from fewer normal forms changes
them on purpose.  Prints one JSON object per input.
"""

from __future__ import annotations

import json
import sys

from run import WORK, load_cli, run_op
import tracing

REFERENCES = (
    ("tower3", "field Q\nvars X, Y, Z\nrelations:\n  X^3 - 2\n  Y^2 - X - 1\n  Z^2 - Y - 3\n", 3),
    ("shifted30", "field GF(3)\nvars X\nrelations:\n  (X + 1)^30 + X\n", 1),
)


def trace_one(cli, name, text):
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"reference-{name}.alg"
    path.write_text(text, encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code, _, error, seconds = run_op(cli, ["classify", str(path)])
    finally:
        tracer.end_op()
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}\n{error}")
    return tracer, seconds


def main() -> int:
    cli = load_cli()
    for name, text, n in REFERENCES:
        tracer, seconds = trace_one(cli, name, text)
        layers = tracer.summary(1)
        m = int(layers["groebner.quotient_algebra.dim"])
        print(json.dumps({
            "input": name,
            "classify_ms": round(seconds * 1e3, 1),
            "buchberger_calls": int(layers["groebner.buchberger.calls"]),
            "buchberger_repeat_calls": int(layers["groebner.buchberger.repeat_calls"]),
            "table_dim": m,
            "table_normal_forms": tracer.count_within("groebner.normal_form", "groebner.quotient_algebra"),
            "formula_m(m+1)/2+1+n": m * (m + 1) // 2 + 1 + n,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
