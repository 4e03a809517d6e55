"""tools/ab_pairs.py: reading the benchmark's result line and summarizing
alternating parent/change pairs, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def result(failed=0, **metrics):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}
                        for name, value in metrics.items()}}


def bench_output(res):
    return "\n".join([
        "# bench sim2d seed=3 seconds=20 trace=0",
        "# fail_rate 0 (0/10 jobs)",
        "step_p50_ms                                     12.1 ms",
        json.dumps(res),
        "",
    ])


def test_parse_result_reads_the_last_line():
    res = result(step_p50_ms=12.1, wall_s=2.0)
    assert ab_pairs.parse_result(bench_output(res)) == res


@pytest.mark.parametrize("stdout", [
    "",
    "# bench sim2d\nbench: no job completed; no metrics\n",
    json.dumps({"correct": True}) + "\n",
    json.dumps(result(wall_s=1.0)) + "\ntrailing text\n",
])
def test_parse_result_without_a_result_line(stdout):
    assert ab_pairs.parse_result(stdout) is None


def test_summarize_counts_moves_and_takes_the_median_ratio():
    pairs = [
        (result(step_p50_ms=12.0, wall_s=2.0), result(step_p50_ms=11.4, wall_s=2.0)),
        (result(step_p50_ms=12.2, wall_s=2.1), result(step_p50_ms=11.0, wall_s=1.9)),
        (result(step_p50_ms=12.0, wall_s=2.0), result(step_p50_ms=12.6, wall_s=2.2)),
        (None, result(step_p50_ms=1.0, wall_s=1.0)),  # a run without a result
    ]
    summary = ab_pairs.summarize(pairs)
    assert set(summary) == {"step_p50_ms", "wall_s"}
    step = summary["step_p50_ms"]
    assert step["ratio"] == pytest.approx(0.95)
    assert (step["down"], step["up"], step["same"]) == (2, 1, 0)
    assert step["parent"] == 12.0 and step["change"] == pytest.approx(11.4)
    assert step["parent_iqr"] == pytest.approx(0.1)  # quartiles 12.0 and 12.1
    wall = summary["wall_s"]
    assert wall["ratio"] == pytest.approx(1.0)
    assert (wall["down"], wall["up"], wall["same"]) == (1, 1, 1)


def test_summarize_skips_a_metric_one_side_lacks():
    summary = ab_pairs.summarize([(result(a=1.0, b=2.0), result(a=2.0))])
    assert set(summary) == {"a"}
    assert summary["a"]["ratio"] == 2.0
    assert (summary["a"]["down"], summary["a"]["up"]) == (0, 1)
    assert summary["a"]["parent_iqr"] == 0.0  # one pair has no spread


def test_runs_alternate_and_failures_set_the_exit_code(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
    runs = []

    def fake_run(checkout, args):
        runs.append("A" if checkout == parent else "B")
        value = 10.0 if checkout == parent else 9.0
        return result(failed=int(len(runs) == 4), step_p50_ms=value), ""

    monkeypatch.setattr(ab_pairs, "run_bench", fake_run)
    status = ab_pairs.main([str(parent), str(change), "--workload", "sim2d",
                            "--pairs", "3"])
    assert runs == ["A", "B", "B", "A", "A", "B"]
    assert status == 1  # the fourth run had a failed job
    out = capsys.readouterr().out
    assert "failed=1/10" in out
    assert "0.9000" in out
