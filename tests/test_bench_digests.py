"""The reports on the benchmark's ``--seed 1`` pools are pinned by their digests.

Each pool comes from ``bench/workloads.py``, loaded from its source without
writing anything under ``bench/``.  Its inputs are written under the test's
temporary directory and run through ``etalg.cli.main`` in this process.  The
digest is the one ``bench/run.py`` prints: sha256 over the stdout sha256 of
each input, in pool order.  A change to the benchmark that changes the pools
re-pins these values; any other change must leave them as they are.
"""

import contextlib
import hashlib
import io
import sys
import types
from pathlib import Path

import pytest

from etalg.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

DIGESTS = {
    "systems": "ed382add84a534b1b83ac43fec94ac7e733f552dd460300607ac41a4ba0f2e93",
    "quotients": "019f1a6b64ae8b3d957fd2b38c39315622bbcdfebe41f4a11b1bc0fb370f55fa",
    "certified": "93331ebef765267f84c36e6d50549c1308ddbf9b48a11b8bfc5422dddd8f9f83",
}


def load_workloads(monkeypatch):
    module = types.ModuleType("bench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look the module up
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
    return out.getvalue()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_1_pool_digest(tmp_path, monkeypatch, workload):
    digests = []
    for k, case in enumerate(load_workloads(monkeypatch).generate(workload, 1)):
        path = tmp_path / f"{k:03d}-{case.family}.alg"
        path.write_text(case.alg_text(), encoding="utf-8")
        digests.append(hashlib.sha256(stdout_of(case.argv(str(path))).encode("utf-8")).hexdigest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == DIGESTS[workload]
