"""Benchmark of the charclass engine, run from the root of a source checkout.

    python3 perfbench/run.py --workload numeric-batch --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/design.json``):

* ``numeric-batch``: one warm process; each op computes the characters and
  the verification report of one numeric degree table.
* ``symbolic-families``: one warm process; the same on symbolic contexts.
* ``cli-oneshot``: one fresh ``charclass`` process per op.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Each op's output is checked against the
benchmark's own reference (``reference.py``) outside the timed region.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
sample of ops alternately plain and with spans around the engine's public
functions (``spans.py``), and reports the per-layer metrics and the
tracing overhead; it writes every number and the spans of one pass to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 15  # fresh interpreters per run, after one that writes the bytecode cache
MIN_OPS = 100  # so that at least ten latency samples lie above the 90th percentile
TRACE_SAMPLE = {"numeric-batch": 20, "symbolic-families": 10, "cli-oneshot": 20}

# What a charclass process pays before any work: the import of the CLI
# module (which imports the whole package) and the first catalogue lookup.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import charclass.cli; t1 = time.perf_counter(); "
    "from charclass import tables; tables.thom_polynomial('A0^2', 1); "
    "t2 = time.perf_counter(); print(t1 - t0, t2 - t1); print(charclass.__file__)"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_engine_path(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise SetupError(f"charclass was imported from {path}, not from {SRC}")


def locate_engine() -> None:
    if not (SRC / "charclass" / "__init__.py").is_file():
        raise SetupError(f"no engine source at {SRC / 'charclass'}")
    sys.path.insert(0, str(SRC))


def measure_setup() -> list:
    """(import s, first lookup s) of each of SETUP_SAMPLES fresh interpreters."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                              timeout=60)
        if proc.returncode != 0:
            raise SetupError(f"engine import failed: {proc.stderr.strip()[-500:]}")
        times, path = proc.stdout.splitlines()[:2]
        _check_engine_path(path)
        if i:  # the first interpreter writes the bytecode cache
            samples.append(tuple(float(x) for x in times.split()))
    return samples


def import_engine() -> None:
    """Import the engine into this process and check where it came from."""
    import charclass.cli  # noqa: F401

    _check_engine_path(sys.modules["charclass"].__file__)


def _attempt(run, op) -> tuple:
    t0 = time.perf_counter()
    try:
        output, error = run(op.payload), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        output, error = None, exc
    return output, error, time.perf_counter() - t0


def _verdict(workload: str, op, output, error) -> str | None:
    """None when the op is correct, else the reason it failed."""
    import ops

    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        ops.check(workload, op, output)
    except Exception as exc:  # a malformed output is a failed op too
        return f"{type(exc).__name__}: {exc}"
    return None


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def add(self, workload: str, op, output, error) -> bool:
        self.attempted += 1
        reason = _verdict(workload, op, output, error)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind}/{op.family}: {reason}")
        return reason is None


def warm_up(workload: str, seed: int, run, tally: Tally) -> None:
    """Run one op of each kind so imports, caches and the catalogue are loaded."""
    seen = set()
    for op in inputs.take(workload, seed, len(inputs.BLOCKS[workload]), tag="warmup"):
        if workload == "cli-oneshot" and op.kind in seen:
            continue
        seen.add(op.kind)
        output, error, _ = _attempt(run, op)
        tally.add(workload, op, output, error)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of one run, with tracing off."""
    setup_s = statistics.median(sum(s) for s in measure_setup())
    import_engine()
    import ops

    run = ops.runner(workload, str(ROOT))
    tally = Tally()
    warm_up(workload, seed, run, tally)

    stream = inputs.stream(workload, seed)
    latencies, by_kind, correct, window = [], {}, 0, 0.0
    while window < seconds or len(latencies) < MIN_OPS:
        op = next(stream)
        output, error, elapsed = _attempt(run, op)
        window += elapsed
        latencies.append(elapsed * 1e3)
        by_kind.setdefault(f"{op.kind}/{op.family}", []).append(elapsed * 1e3)
        correct += tally.add(workload, op, output, error)

    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": correct / window,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90,
        "correct_op_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    above = sum(1 for x in latencies if x > p90)
    print(f"{workload} seed={seed}: {len(latencies)} timed ops in {window:.2f} s, "
          f"{above} above p90; failed_op_ratio={tally.failed / tally.attempted:.6f}")
    medians = {k: round(statistics.median(v), 2) for k, v in sorted(by_kind.items())}
    print(f"median ms by kind/family: {json.dumps(medians)}")
    return metrics, tally


# ---------------------------------------------------------------------------
# traced run


def _warm_pass(run, sample: list, tracer=None) -> tuple:
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(sample):
            if tracer is not None:
                tracer.op = i
            outputs.append((op, *_attempt(run, op)[:2]))
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, outputs, None if tracer is None else tracer.records()


def _cli_pass(run, sample: list, traced: bool) -> tuple:
    """One process per op; traced processes install spans themselves."""
    import ops

    OUT_DIR.mkdir(exist_ok=True)
    outputs, records = [], []
    elapsed = 0.0
    for i, op in enumerate(sample):
        if not traced:
            output, error, dt = _attempt(run, op)
        else:
            path = OUT_DIR / f"child-{os.getpid()}-{i}.json"
            launcher = [sys.executable, str(HERE / "child.py"), str(path)]
            output, error, dt = _attempt(lambda p: ops.run_cli(p, str(ROOT), launcher), op)
            if path.exists():
                records.append(json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
        elapsed += dt
        outputs.append((op, output, error))
    return elapsed, outputs, records if traced else None


def layer_metrics(names: list, passes: list, sample_size: int, wall: dict,
                  process: dict) -> dict:
    """Per-layer numbers from the aggregates of the traced passes.

    ``names`` are the per-layer metric names; those ending in ``.calls`` or
    ``.self_ms`` that are not derived below are read from the function of
    that name.  Counts come from the first pass (every pass runs the same
    ops); times are medians over passes.
    """
    first = passes[0]
    funcs = first["functions"]
    evaluate_calls = funcs.get("context.evaluate", {}).get("calls", 0)
    characters = funcs.get("threefold.threefold_characters", {})
    metrics = {
        "algebra.mul.terms_out": first["mul_terms_out"],
        "algebra.mul.max_terms_out": first["mul_max_terms_out"],
        "context.evaluate.useful_ratio":
            first["evaluate_distinct"] / evaluate_calls if evaluate_calls else 0.0,
        "threefold.threefold_characters.calls_per_op":
            characters["calls"] / characters["ops"] if characters else 0.0,
        "tables.lookup.calls": sum(funcs.get(n, {}).get("calls", 0)
                                   for n in ("tables.thom_polynomial", "tables.ssm_series")),
        "trace.overhead_ratio": statistics.median(wall["traced"])
                                / statistics.median(wall["plain"]),
        "trace.sample_ops": sample_size,
        "trace.spans": sum(f["calls"] for f in funcs.values()),
        "trace.raised": sum(f["raised"] for f in funcs.values()),
        **process,
    }
    for name in names:
        function, _, field = name.rpartition(".")
        if name in metrics or field not in ("calls", "self_ms"):
            continue
        if field == "calls":
            metrics[name] = funcs.get(function, {}).get("calls", 0)
        else:
            metrics[name] = statistics.median(
                p["functions"].get(function, {}).get("self_ms", 0.0) for p in passes)
    return metrics


def trace(workload: str, seed: int, seconds: float, names: list) -> tuple:
    """Per-layer metrics: alternate plain and traced passes over one sample.

    The import and first-lookup times come from untraced fresh interpreters,
    the same on every workload, so spans never inflate them.
    """
    setup = measure_setup()
    process = {"cli.import_ms": statistics.median(s[0] for s in setup) * 1e3,
               "tables.load_ms": statistics.median(s[1] for s in setup) * 1e3}
    import_engine()
    import ops
    import spans

    run = ops.runner(workload, str(ROOT))
    tally = Tally()
    sample = inputs.take(workload, seed, TRACE_SAMPLE[workload], tag="trace")
    for op in sample:  # warm-up pass, checked like the others
        tally.add(workload, op, *_attempt(run, op)[:2])

    wall = {"plain": [], "traced": []}
    passes, kept = [], None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for traced in (False, True):
            if workload == "cli-oneshot":
                elapsed, outputs, records = _cli_pass(run, sample, traced)
            else:
                elapsed, outputs, records = _warm_pass(run, sample,
                                                       spans.Tracer() if traced else None)
            wall["traced" if traced else "plain"].append(elapsed)
            for op, output, error in outputs:
                tally.add(workload, op, output, error)
            if not traced:
                continue
            if workload == "cli-oneshot":
                passes.append(spans.combine([spans.aggregate(r) for r in records]))
            else:
                passes.append(spans.aggregate(records))
            kept = kept or records

    metrics = layer_metrics(names, passes, len(sample), wall, process)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "functions": passes[0]["functions"], "wall_s": wall, "spans": kept}, fh)
    print(f"{workload} seed={seed}: {len(passes)} traced passes of {len(sample)} ops; "
          f"tracing overhead x{metrics['trace.overhead_ratio']:.2f}")
    return metrics, tally


# ---------------------------------------------------------------------------


def _select(metrics: dict, wanted: list) -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        locate_engine()
        if args.trace:
            wanted = spec["per_layer"]
            metrics, tally = trace(args.workload, args.seed, args.seconds,
                                   [m["name"] for m in wanted])
        else:
            metrics, tally = measure(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
        selected = _select(metrics, wanted)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for reason in tally.reasons:
        print(f"failed op: {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
