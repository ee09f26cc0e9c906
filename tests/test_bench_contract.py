"""The benchmark harness traces etalg by name; every traced name must still resolve.

``bench/tracing.py`` is loaded from its source without writing anything under
``bench/`` and without patching etalg (``install`` only looks the names up).
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    import etalg.cli  # noqa: F401  (the harness traces what the CLI has imported)

    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == []
    assert "pipeline.render_report" in tracer.names
