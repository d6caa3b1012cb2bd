"""The summary step of tools/bench_record.py, on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BETTER = {"wall_s": "lower", "success_share": "higher"}


def _run(side, workload, seed, wall_s, success_share=1.0):
    return {"side": side, "workload": workload, "seed": seed, "first": True,
            "correct": True, "counters_sha256": "0" * 64,
            "metrics": {"wall_s": wall_s, "setup_s": 0.1, "success_share": success_share}}


class TestSummarize:
    def test_quartiles_and_pair_wins(self):
        parent = [5.0, 1.0, 3.0, 2.0, 4.0]
        change = [4.0, 1.5, 2.0, 2.0, 3.0]  # lower on seeds 1, 3 and 5; tie on 4
        runs = [_run("parent", "w", s, v) for s, v in enumerate(parent, start=1)]
        runs += [_run("change", "w", s, v) for s, v in enumerate(change, start=1)]
        summary = bench_record.summarize(runs, BETTER)["w"]
        assert summary["parent"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert summary["change"]["wall_s"] == {"median": 2.0, "q1": 2.0, "q3": 3.0}
        assert summary["change_wins"]["wall_s"] == {"wins": 3, "pairs": 5}
        # Equal shares everywhere: no pair is a win.
        assert summary["change_wins"]["success_share"] == {"wins": 0, "pairs": 5}
        assert "setup_s" not in summary["parent"]

    def test_higher_is_better(self):
        runs = [_run("parent", "w", 1, 1.0, 0.875), _run("change", "w", 1, 1.0, 0.9375)]
        wins = bench_record.summarize(runs, BETTER)["w"]["change_wins"]
        assert wins["success_share"] == {"wins": 1, "pairs": 1}
        assert wins["wall_s"] == {"wins": 0, "pairs": 1}

    def test_one_side_has_no_pairs(self):
        runs = [_run("change", "a", 1, 2.0), _run("change", "b", 1, 3.0)]
        summary = bench_record.summarize(runs, BETTER)
        assert list(summary) == ["a", "b"]
        assert summary["a"] == {"change": {
            "wall_s": {"median": 2.0, "q1": 2.0, "q3": 2.0},
            "success_share": {"median": 1.0, "q1": 1.0, "q3": 1.0},
        }}

    def test_only_seeds_run_on_both_sides_are_paired(self):
        runs = [_run("parent", "w", 1, 2.0), _run("change", "w", 1, 1.0),
                _run("change", "w", 2, 1.0)]
        wins = bench_record.summarize(runs, BETTER)["w"]["change_wins"]
        assert wins["wall_s"] == {"wins": 1, "pairs": 1}


@pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("7", [7]), ("4,2", [4, 2])])
def test_parse_seeds(text, seeds):
    assert bench_record.parse_seeds(text) == seeds


def test_parse_run_output():
    final = {"correct": True, "attempted": 4, "failed": 0,
             "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    stdout = "\n".join([
        "env " + json.dumps({"numpy": "2.0", "git_sha": "abc", "seed": 3}),
        "passes untraced=3 traced=0",
        "counters sha256 " + "f" * 64,
        "wall_s = 0.5 s",
        json.dumps(final),
    ]) + "\n"
    parsed = bench_record.parse_run_output(stdout)
    assert parsed == {"env": {"numpy": "2.0", "git_sha": "abc", "seed": 3},
                      "counters_sha256": "f" * 64, "correct": True,
                      "metrics": {"wall_s": 0.5}}
