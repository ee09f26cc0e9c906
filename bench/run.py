"""End-to-end benchmark of the etalg CLI on one seeded workload.

    python3 bench/run.py --workload systems --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  It writes the workload's seeded
``.alg`` files under ``.bench_build/``, then calls ``etalg.cli.main`` in
this process, one input after the other (a closed loop with one client and
no threads), with stdout captured.  Each call is one op.  After the measured
phase, sympy decides every verdict again (``oracle.py``) and each op's
printed verdicts are checked against it.

The host's processor speed drifts, so the end-to-end times are scaled to a
reference speed measured between blocks of ops (``calibrate.py``); the raw
wall-clock figures go to the context line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
input twice, untraced and traced in alternating order, and reports the
per-layer metrics of ``tracing.py`` with ``trace_overhead_ratio``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries context that is not
gated: the output digest, op counts, the failed ratio, the line count of
``src/etalg``, the Python version and the processor count.  A checkout
without ``src/etalg`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "etalg-bench"

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9       # fresh interpreters per run; setup_s is their median
MIN_OPS = 100        # untraced ops per run, so that 10 samples lie beyond p90
WARMUP_OPS = 3


class CheckoutError(Exception):
    """The benchmark does not sit in a checkout with etalg's sources."""


def load_cli():
    """etalg.cli from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "etalg" / "__init__.py").is_file():
        raise CheckoutError(f"no etalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import etalg.cli

    if Path(etalg.cli.__file__).resolve().parent != SRC / "etalg":
        raise CheckoutError(f"imported etalg from {etalg.cli.__file__}, not from {SRC}")
    return etalg.cli


def scale(before, after):
    """Factor from wall time to reference time, for work between two kernel timings."""
    return calibrate.REFERENCE_S / ((before + after) / 2)


def _median_launch(code: str, runs: int):
    """(median reference seconds, median wall seconds) of ``python -c code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    wall, scaled = [], []
    speed = calibrate.sample()
    for _ in range(runs + 1):  # the first launch may write bytecode; it is dropped
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        wall.append(perf_counter() - start)
        before, speed = speed, calibrate.sample()
        scaled.append(wall[-1] * scale(before, speed))
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def measure_setup(runs=SETUP_RUNS):
    """{name: (reference s, wall s)}: medians for a fresh interpreter to import etalg, and to ``pass``."""
    return {"etalg": _median_launch("import etalg", runs), "pass": _median_launch("pass", runs)}


def run_op(cli, argv):
    """(exit code or None, stdout, traceback text, seconds) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed op, not a failed run
            error = traceback.format_exc()
        seconds = perf_counter() - start
    return code, out.getvalue(), error or err.getvalue(), seconds


def write_inputs(name, cases):
    """Write the pool as ``.alg`` files under the work directory; returns relative paths."""
    folder = WORK / name
    folder.mkdir(parents=True, exist_ok=True)
    for stale in folder.glob("*.alg"):
        stale.unlink()
    paths = []
    for k, case in enumerate(cases):
        path = folder / f"{k:03d}-{case.family}.alg"
        path.write_text(case.alg_text(), encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    return paths


class Recorder:
    """Per-op outcomes, and the first stdout digest of every input."""

    def __init__(self):
        self.ops = []          # (input index, traced, exit code, error, seconds, stdout digest)
        self.first = {}        # input index -> (digest, stdout)

    def add(self, index, traced, code, stdout, error, seconds):
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        self.first.setdefault(index, (digest, stdout))
        self.ops.append((index, traced, code, error, seconds, digest))

    def digest(self, count):
        """sha256 over the stdout digests of inputs 0 .. count-1."""
        return hashlib.sha256("".join(self.first[k][0] for k in range(count)).encode()).hexdigest()


def measure(cli, cases, paths, seconds, tracer=None, min_ops=MIN_OPS, block=1):
    """The closed loop: inputs in pool order until time, op count and coverage are met.

    The loop stops only after a multiple of ``block`` ops.  The calibration
    kernel is timed before the first block and after each; returns the
    recorder, the elapsed seconds, and for each recorded op the factor from
    its wall time to reference time.

    With a tracer, every op runs its input twice, untraced and traced, and
    the two alternate in which goes first.
    """
    recorder = Recorder()
    for k in range(min(WARMUP_OPS, len(cases))):
        run_op(cli, cases[k].argv(paths[k]))
    speeds = [calibrate.sample()]
    blocks = []  # block number of each recorded op
    start = perf_counter()
    op = 0
    while op < max(min_ops, len(cases)) or perf_counter() - start < seconds or op % block:
        index = op % len(cases)
        argv = cases[index].argv(paths[index])
        modes = (False,) if tracer is None else ((False, True) if op % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.begin_op(len(recorder.ops))
            try:
                outcome = run_op(cli, argv)
            finally:
                if traced:
                    tracer.end_op()
            recorder.add(index, traced, *outcome)
            blocks.append(op // block)
        op += 1
        if op % block == 0:
            speeds.append(calibrate.sample())
    elapsed = perf_counter() - start
    return recorder, elapsed, [scale(speeds[b], speeds[b + 1]) for b in blocks]


def count_failures(cases, recorder, expectations):
    """Failed ops: traceback, nonzero exit, changed stdout, or a verdict the oracle rejects."""
    import oracle  # imports sympy, so never before peak RSS is read

    wrong = {}
    for index, (_, stdout) in recorder.first.items():
        problems = oracle.mismatches(cases[index].command, stdout, expectations[index])
        if problems:
            wrong[index] = problems
    failures = []
    for index, traced, code, error, _, digest in recorder.ops:
        if error:
            failures.append((index, error.strip().splitlines()[-1]))
        elif code != 0:
            failures.append((index, f"exit code {code}"))
        elif digest != recorder.first[index][0]:
            failures.append((index, "stdout differs from the first run of this input"))
        elif index in wrong:
            failures.append((index, "; ".join(wrong[index])))
    return failures


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "etalg").glob("*.py"))


def run_workload(workload, seed, seconds, trace, cases=None, min_ops=MIN_OPS):
    """Measure one workload on its seeded pool, or on ``cases``; returns (result, context)."""
    cli = load_cli()
    setup = measure_setup() if not trace else None
    block = 1
    if cases is None:
        cases = workloads.generate(workload, seed)
        block = workloads.WORKLOADS[workload][2]
    paths = write_inputs(workload, cases)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    recorder, elapsed, scales = measure(cli, cases, paths, seconds, tracer, 0 if trace else min_ops, block)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import oracle  # imports sympy, so only after peak RSS is read

    expectations = {k: oracle.expected(cases[k]) for k in recorder.first}
    failures = count_failures(cases, recorder, expectations)
    attempted = len(recorder.ops)
    context = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "digest": recorder.digest(len(cases)),
        "inputs": len(cases),
        "attempted": attempted,
        "failed_ratio": len(failures) / attempted,
        "measured_s": elapsed,
        "src_etalg_lines": _line_count(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if trace:
        # Every input ran once untraced and once traced: the time ratio is the throughput ratio.
        untraced_s = sum(rec[4] for rec in recorder.ops if not rec[1])
        traced_s = sum(rec[4] for rec in recorder.ops if rec[1])
        traced_ops = sum(1 for rec in recorder.ops if rec[1])
        layers = tracer.summary(traced_ops)
        layers["trace_overhead_ratio"] = untraced_s / traced_s
        metrics = {name: _metric(value, tracing.unit_of(name)) for name, value in layers.items()}
        total = layers["cli.main.total_ms"]
        context["traced_ops"] = traced_ops
        context["spans"] = len(tracer.spans)
        context["absent"] = tracer.absent
        context["self_share"] = {
            name[: -len(".self_ms")]: round(value / total, 4)
            for name, value in layers.items() if name.endswith(".self_ms") and total
        }
        spans_path = WORK / f"{workload}.spans.tsv"
        tracer.write(spans_path)
        context["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        wall = [rec[4] for rec in recorder.ops]
        latencies = [w * k * 1e3 for w, k in zip(wall, scales)]
        p90 = statistics.quantiles(latencies, n=10)[-1]
        context["beyond_p90"] = sum(1 for x in latencies if x > p90)
        context["python_startup_s"] = setup["pass"][0]
        context["speed_scale"] = {"median": statistics.median(scales), "min": min(scales), "max": max(scales)}
        context["wall"] = {
            "latency_ms.p50": statistics.median(wall) * 1e3,
            "latency_ms.p90": statistics.quantiles(wall, n=10)[-1] * 1e3,
            "throughput_ops_s": attempted / elapsed,
            "setup_s": setup["etalg"][1],
            "python_startup_s": setup["pass"][1],
        }
        metrics = {
            "latency_ms.p50": _metric(statistics.median(latencies), "ms"),
            "latency_ms.p90": _metric(p90, "ms"),
            "throughput_ops_s": _metric(attempted / (sum(latencies) / 1e3), "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
            "setup_s": _metric(setup["etalg"][0], "s"),
        }
    for index, reason in failures[:10]:
        print(f"failed op on input {index} ({cases[index].family}): {reason}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, context


def pin_to_one_cpu():
    """Run this process, and the interpreters it launches, on the last allowed CPU.

    Ops, launches and the calibration kernel then share one core, the one
    furthest from CPU 0, where interrupts and housekeeping tend to land.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        result, context = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
