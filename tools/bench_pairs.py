"""Alternating parent/change runs of the charclass benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 81 82 83 84 85 --seconds 35 \
        --claim symbolic-families:ops_per_s:1.2 --out BENCH_<n>.json

PARENT and CHANGE are source checkouts (each with ``perfbench/run.py``).  For
every seed (default 1 to 10) and every workload of ``BENCHMARK.json``, one pair
runs ``perfbench/run.py`` on both checkouts back to back; which side runs first
flips from pair to pair.  The order is seed-major: pair i runs on every
workload before pair i + 1, so a series cut short has the same depth on every
workload.  Every run starts in a fresh copy of its tree with
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their sources in every
process, as a fresh checkout does.

``--out FILE`` rewrites FILE after every finished pair of runs, so a series
that is stopped keeps what it measured: the pairs so far, the summaries over
them, ``"complete": false`` and a ``"status"`` reading "incomplete, k of n
pairs", where k counts the pairs finished on every workload.  An incomplete
series never reports a claim as met.  After the first pair has run on every
workload, the projected wall time of the series goes to standard error.

The JSON printed has every run (``pairs``) and, per workload and end-to-end
metric of ``BENCHMARK.json``: inclusive-method quartiles of each side, the
ratio of the medians, the pairs the change won (out of every pair run, so a
pair with a failed run is not a win) or tied, and the worsening of the change's
median against the metric's bound.  A metric whose parent interquartile range
is wider than its bound, relative to the parent's median, reads "unresolved"
unless every run of the change is better than every run of the parent.
``--claim`` adds a verdict: the change's median at least the given factor
better, better on at least nine in ten pairs run, and a median gap wider than
the parent's interquartile range.
The exit status is 1 when any run fails or reports a wrong op.  Standard
library only; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def skip(folder: str, names: list) -> set:
    """What a fresh checkout lacks: VCS data, caches and old benchmark output."""
    left = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
    if Path(folder).name == "perfbench":
        left.add("out")
    return left.intersection(names)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(checkout, tree, ignore=skip)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result.pop("metrics").items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        return {"correct": False, "exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return {**metrics, **result, "exit": proc.returncode}


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list, metric: dict) -> dict | None:
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    done = [p for p in pairs if name in p["parent"] and name in p["change"]]
    if not done:
        return None
    parent = quartiles([p["parent"][name] for p in done])
    change = quartiles([p["change"][name] for p in done])
    ratio = change["median"] / parent["median"] if parent["median"] else None
    wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in done)
    ties = sum(p["change"][name] == p["parent"][name] for p in done)
    worsening = None if ratio is None else round(1 - ratio if sign > 0 else ratio - 1, 4)
    spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
    all_better = (min(sign * p["change"][name] for p in done)
                  > max(sign * p["parent"][name] for p in done))
    if spread > metric["bound"] and not all_better:
        status = "unresolved"
    else:
        status = "within bound" if worsening is None or worsening <= metric["bound"] else "worse"
    return {"parent": parent, "change": change, "change_over_parent": ratio,
            "change_wins": f"{wins}/{len(pairs)}", "ties": ties,
            "worsening_vs_bound": {"worsening": worsening, "bound": metric["bound"],
                                   "parent_spread": round(spread, 4), "status": status}}


def claim_verdict(summary: dict, spec: list, text: str) -> dict:
    workload, name, factor = text.split(":")
    factor = float(factor)
    higher = next(m for m in spec if m["name"] == name)["better"] == "higher"
    row = summary[workload].get(name)
    if row is None:
        return {"workload": workload, "metric": name, "met": False, "error": "no completed pair"}
    parent, change = row["parent"], row["change"]
    gain = change["median"] / parent["median"] if higher else parent["median"] / change["median"]
    wins, pairs = (int(x) for x in row["change_wins"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    return {"workload": workload, "metric": name,
            "wanted": f">= {factor}x parent, better on >= 9/10 pairs, median gap > parent IQR",
            "parent_median": parent["median"], "change_median": change["median"],
            "ratio": gain, "change_wins": row["change_wins"], "parent_iqr": iqr,
            "met": gain >= factor and wins * 10 >= 9 * pairs
            and abs(change["median"] - parent["median"]) > iqr}


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def update(doc: dict, spec: dict, claim: str | None, planned: int) -> None:
    """Recompute the summaries, the status and the claim over the pairs so far."""
    done = min(len(pairs) for pairs in doc["pairs"].values())
    doc["complete"] = done == planned
    doc["status"] = "complete" if doc["complete"] else f"incomplete, {done} of {planned} pairs"
    for workload, pairs in doc["pairs"].items():
        rows = {m["name"]: summarise(pairs, m) for m in spec["end_to_end"]}
        doc["summary"][workload] = {"pairs": len(pairs),
                                    **{k: v for k, v in rows.items() if v is not None}}
    if claim:
        doc["claim"] = claim_verdict(doc["summary"], spec["end_to_end"], claim)
        if not doc["complete"]:
            doc["claim"].update(met=False, verdict=doc["status"])


def write_record(path: Path, doc: dict) -> None:
    """Replace ``path`` in one step, so a stopped series never leaves half a file."""
    part = path.with_name(path.name + ".part")
    part.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    os.replace(part, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)),
                        help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:FACTOR, e.g. numeric-batch:ops_per_s:1.2")
    parser.add_argument("--about", default="")
    parser.add_argument("--out", type=Path, help="rewrite this JSON record after every pair")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {
        "about": args.about,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": commit_of(args.parent), "change_commit": commit_of(args.change),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "system": platform.system()},
        "seeds": {w: args.seeds for w in workloads},
        "complete": False, "status": "", "summary": {}, "pairs": {w: [] for w in workloads},
    }
    ok = True
    started = time.monotonic()
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                ok &= pair[side]["exit"] == 0 and pair[side]["correct"] is True
            doc["pairs"][workload].append(pair)
            print(f"{workload} pair {i} seed {seed}: " + ", ".join(
                f"{side} {pair[side].get('ops_per_s', float('nan')):.2f} ops/s" for side in SIDES),
                file=sys.stderr)
            update(doc, spec, args.claim, len(args.seeds))
            if args.out:
                write_record(args.out, doc)
        if i == 0:
            took = time.monotonic() - started
            print(f"one pair on every workload took {took:.0f} s; the series of "
                  f"{len(args.seeds)} pairs should take about {took * len(args.seeds) / 60:.1f} min",
                  file=sys.stderr)
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
