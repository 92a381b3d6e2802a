"""The parent/change pair driver's summary: quartiles, wins, worsening, claim."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

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


FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as fh:
    fh.write(args["--workload"] + " " + args["--seed"] + "\\n")
print(json.dumps({{"correct": True, "metrics": {{
    "ops_per_s": {{"value": 100.0 + int(args["--seed"])}}, "op_p50_ms": {{"value": 10.0}}}}}}))
"""


@pytest.fixture
def checkout(tmp_path):
    """A fake checkout with two workloads whose run.py logs every run it makes."""
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(log=str(tmp_path / "runs.log")))
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": [OPS, P50]}))
    return tree


def series(checkout, out, *seeds) -> list:
    return [str(checkout), str(checkout), "--seeds", *map(str, seeds), "--seconds", "1",
            "--claim", "w1:ops_per_s:1.0", "--out", str(out)]


def test_runs_are_seed_major_and_a_finished_series_is_complete(checkout, tmp_path, capsys):
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(series(checkout, out, 1, 2)) == 0
    runs = (tmp_path / "runs.log").read_text().split("\n")[:-1]
    assert runs == ["w1 1", "w1 1", "w2 1", "w2 1", "w1 2", "w1 2", "w2 2", "w2 2"]
    record = json.loads(out.read_text())
    assert (record["complete"], record["status"]) == (True, "complete")
    printed = capsys.readouterr()
    assert record == json.loads(printed.out)
    assert "the series of 2 pairs should take about" in printed.err


def test_a_stopped_series_leaves_a_valid_incomplete_record(checkout, tmp_path, monkeypatch):
    out, seen = tmp_path / "pairs.json", []
    real = bench_pairs.run_once

    def stopping(tree, workload, seed, seconds):
        if seed == 3:
            raise KeyboardInterrupt
        if seed == 2 and not seen:  # the record as the first pair left it
            seen.append(json.loads(out.read_text()))
        return real(tree, workload, seed, seconds)

    monkeypatch.setattr(bench_pairs, "run_once", stopping)
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(series(checkout, out, 1, 2, 3))
    for record, done in [(seen[0], 1), (json.loads(out.read_text()), 2)]:
        assert (record["complete"], record["status"]) == (False, f"incomplete, {done} of 3 pairs")
        assert [len(record["pairs"][w]) for w in ("w1", "w2")] == [done, done]
        assert record["summary"]["w2"]["ops_per_s"]["change"]["median"] == 100 + (done + 1) / 2
        assert (record["claim"]["met"], record["claim"]["verdict"]) == (False, record["status"])
    assert not list(tmp_path.glob("*.part"))
