"""The parent/change pair driver's summary: quartiles, wins, worsening, claim."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def pairs(parent: list, change: list) -> list:
    return [{"pair": i, "parent": {"ops_per_s": p, "op_p50_ms": 1000 / p},
             "change": {"ops_per_s": c, "op_p50_ms": 1000 / c}}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_counts_wins_in_the_direction_of_the_metric():
    runs = pairs([100, 110, 90, 100, 105], [130, 120, 100, 100, 90])
    ops, p50 = bench_pairs.summarise(runs, OPS), bench_pairs.summarise(runs, P50)
    assert ops["parent"] == {"q1": 100, "median": 100, "q3": 105}
    assert ops["change_wins"] == p50["change_wins"] == "3/5"
    assert ops["ties"] == p50["ties"] == 1
    assert ops["worsening_vs_bound"] == {"worsening": 0.0, "bound": 0.25,
                                         "parent_spread": 0.05, "status": "within bound"}
    assert p50["worsening_vs_bound"]["worsening"] == 0.0


def test_worsening_is_positive_when_the_change_is_slower():
    runs = pairs([100, 100, 100], [80, 80, 80])
    assert bench_pairs.summarise(runs, OPS)["worsening_vs_bound"]["worsening"] == 0.2
    assert bench_pairs.summarise(runs, P50)["worsening_vs_bound"]["worsening"] == 0.25


def test_one_pair_has_degenerate_quartiles():
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_claim_needs_factor_wins_and_a_gap_beyond_the_parent_iqr():
    spec = [OPS, P50]
    met = {"w": {"ops_per_s": bench_pairs.summarise(
        pairs([100, 101, 99, 100, 100], [125, 124, 126, 125, 123]), OPS)}}
    assert bench_pairs.claim_verdict(met, spec, "w:ops_per_s:1.2")["met"]
    assert not bench_pairs.claim_verdict(met, spec, "w:ops_per_s:1.3")["met"]
    lost_one = {"w": {"ops_per_s": bench_pairs.summarise(
        pairs([100, 101, 99, 100, 130], [125, 124, 126, 125, 123]), OPS)}}
    assert not bench_pairs.claim_verdict(lost_one, spec, "w:ops_per_s:1.2")["met"]


def test_a_failed_run_counts_as_a_lost_pair():
    runs = pairs([100] * 10, [125] * 10)
    runs[3]["change"] = {"correct": False, "exit": 1, "error": "boom"}
    row = bench_pairs.summarise(runs, OPS)
    assert row["change_wins"] == "9/10"
    runs[5]["parent"] = {"correct": False, "exit": 1, "error": "boom"}
    summary = {"w": {"ops_per_s": bench_pairs.summarise(runs, OPS)}}
    assert summary["w"]["ops_per_s"]["change_wins"] == "8/10"
    assert not bench_pairs.claim_verdict(summary, [OPS], "w:ops_per_s:1.2")["met"]
    assert not bench_pairs.claim_verdict({"w": {}}, [OPS], "w:ops_per_s:1.2")["met"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = pairs([60, 100, 140, 100, 100, 70, 130], [95, 96, 97, 98, 99, 95, 96])
    assert bench_pairs.summarise(wide, OPS)["worsening_vs_bound"]["status"] == "unresolved"
    all_better = pairs([60, 100, 140, 100, 100, 70, 130], [150, 151, 152, 153, 154, 155, 156])
    assert bench_pairs.summarise(all_better, OPS)["worsening_vs_bound"]["status"] == "within bound"
    narrow = pairs([100, 101, 99], [70, 70, 70])
    assert bench_pairs.summarise(narrow, OPS)["worsening_vs_bound"]["status"] == "worse"
    assert bench_pairs.summarise(narrow, P50)["worsening_vs_bound"]["status"] == "worse"


def test_a_result_line_without_metrics_is_a_failed_run(tmp_path):
    run_py = tmp_path / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text('print(\'{"correct": true}\')\n')
    assert bench_pairs.run_once(tmp_path, "w", 1, 1)["correct"] is False


def test_fresh_copies_leave_caches_and_old_output_behind():
    names = [".git", "__pycache__", "out", "src", ".hypothesis"]
    assert bench_pairs.skip("/x/perfbench", names) == {".git", "__pycache__", "out", ".hypothesis"}
    assert bench_pairs.skip("/x/src", names) == {".git", "__pycache__", ".hypothesis"}
