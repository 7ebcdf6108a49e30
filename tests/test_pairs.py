"""Tests of tools/pairs.py, the alternating-pairs benchmark comparison, on stand-in checkouts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _result(correct=True, **metrics) -> dict:
    return {
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()},
    }


def test_summarize_counts_wins_in_each_metric_direction():
    base = [_result(steps_per_s=v, step_ms_p50=1.0 / v) for v in (100.0, 110.0, 90.0, 105.0, 95.0)]
    change = [_result(steps_per_s=v, step_ms_p50=1.0 / v) for v in (120.0, 100.0, 130.0, 125.0, 95.0)]
    rows = {row["metric"]: row for row in pairs.summarize(base, change, END_TO_END)}
    speed, latency = rows["steps_per_s"], rows["step_ms_p50"]
    assert speed["base"] == (95.0, 100.0, 105.0) and speed["change"] == (100.0, 120.0, 125.0)
    # pair 2 is a loss and pair 5 a tie, which is no win
    assert (speed["wins"], latency["wins"], speed["pairs"]) == (3, 3, 5)
    assert speed["relative"] == pytest.approx(0.2)
    assert speed["beyond_base_iqr"] and latency["beyond_base_iqr"]
    # a shift smaller than the base's quartile distance is not beyond it
    noisy = [_result(steps_per_s=v, step_ms_p50=1.0) for v in (50.0, 100.0, 150.0)]
    row = pairs.summarize(noisy, change[:3], END_TO_END)[0]
    assert row["wins"] == 1 and not row["beyond_base_iqr"]
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _verdicts(base_values, change_values) -> tuple:
    """(steps_per_s, step_ms_p50) verdicts with step_ms_p50 = 1/steps_per_s."""
    base = [_result(steps_per_s=v, step_ms_p50=1.0 / v) for v in base_values]
    change = [_result(steps_per_s=v, step_ms_p50=1.0 / v) for v in change_values]
    return tuple(row["verdict"] for row in pairs.summarize(base, change, END_TO_END))


def test_summarize_judges_each_metric_against_its_bound():
    steady = (100.0, 101.0, 99.0, 100.5, 99.5)
    assert _verdicts(steady, (95.0, 96.0, 94.0, 97.0, 93.0)) == ("within", "within")
    # a 30 % slower median is worse in both directions than the 25 % bound
    slow = tuple(0.7 * v for v in steady)
    assert _verdicts(steady, slow) == ("worse", "worse")
    # a base whose quartile distance is 40 % of its median cannot resolve
    # a 25 % bound, even for an unchanged change...
    noisy = (60.0, 80.0, 100.0, 120.0, 140.0)
    assert _verdicts(noisy, noisy) == ("unresolved", "unresolved")
    # ...unless every change run beats every base run
    assert _verdicts(noisy, (150.0, 160.0, 155.0, 170.0, 165.0)) == ("within", "within")
    # worse takes precedence over unresolved
    assert _verdicts(noisy, tuple(0.5 * v for v in noisy)) == ("worse", "worse")
    same = [_result(steps_per_s=1.0, step_ms_p50=1.0)] * 2
    row = pairs.summarize(same, same, END_TO_END)[0]
    assert row["bound"] == 0.25 and row["verdict"] == "within"


OUTCOME = {"final_beta": 2.5, "final_x_left": 4.768, "moves": 999, "cap_hits": 0, "accepted_rescales": 0, "frames_built": 2}


WORKLOADS = [{"name": "front-move"}, {"name": "bump-2d"}]


def _checkout(root: Path, result: dict, outcome=OUTCOME, max_error=2.5e-14, traced=None) -> Path:
    """A stand-in checkout whose benchmark prints a detail line with ``outcome`` and ``max_error``, then ``result``.

    A run with ``--trace 1`` prints ``traced`` (default ``result``) as its
    result.  Each run appends its ``--workload`` to the checkout's
    ``runs.txt``, followed by " traced" for a traced run.
    """
    detail = json.dumps({"workload": "front-move", "outcome": outcome, "max_error": max_error})
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "traced = '--trace' in sys.argv and sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
        "with open('runs.txt', 'a') as log:\n"
        "    log.write(sys.argv[sys.argv.index('--workload') + 1] + (' traced' if traced else '') + '\\n')\n"
        f"print('metric lines')\nprint({json.dumps(detail)})\n"
        f"print({json.dumps(json.dumps(traced or result))} if traced else {json.dumps(json.dumps(result))})\n"
    )
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": WORKLOADS, "end_to_end": END_TO_END}))
    return root


def test_pairs_run_every_workload_in_turn(tmp_path, capsys):
    base = _checkout(tmp_path / "base", _result(steps_per_s=100.0, step_ms_p50=0.5))
    change = _checkout(tmp_path / "change", _result(steps_per_s=120.0, step_ms_p50=0.4))
    argv = ["--base", str(base), "--change", str(change), "--pairs", "2", "--seconds", "1"]
    assert pairs.main(argv + ["--workload", "all"]) == 0
    out = capsys.readouterr().out
    # one table, one decisions line and one failure count per side for each workload, in order
    tables = [line for line in out.splitlines() if "alternating pairs" in line]
    assert tables == ["front-move: 2 alternating pairs, seeds 100..101", "bump-2d: 2 alternating pairs, seeds 100..101"]
    assert out.count("steps_per_s ") == 2 and out.count("decisions: equal on 2 of 2 seeds\n") == 2
    assert out.count("change: 0 of 20 operations failed") == 2
    # each side's median accuracy sits under the decisions line
    assert out.count("decisions: equal on 2 of 2 seeds\nmax_error median: base 2.5e-14, change 2.5e-14\n") == 2
    # each workload's pairs are followed by one traced run per side
    runs = ["front-move"] * 2 + ["front-move traced"] + ["bump-2d"] * 2 + ["bump-2d traced"]
    for checkout in (base, change):
        assert (checkout / "runs.txt").read_text().splitlines() == runs
    # a single workload runs alone
    (change / "runs.txt").unlink()
    assert pairs.main(argv + ["--workload", "bump-2d"]) == 0
    assert (change / "runs.txt").read_text().splitlines() == ["bump-2d"] * 2 + ["bump-2d traced"]
    assert capsys.readouterr().out.count("alternating pairs") == 1


def test_pairs_alternate_and_fail_on_an_incorrect_run(tmp_path, capsys):
    good = _checkout(tmp_path / "good", _result(steps_per_s=100.0, step_ms_p50=0.5))
    bad = _checkout(tmp_path / "bad", _result(correct=False, steps_per_s=200.0, step_ms_p50=0.1))
    argv = ["--workload", "spread-scale", "--pairs", "2", "--seconds", "1"]
    assert pairs.main(["--base", str(good), "--change", str(good)] + argv) == 0
    captured = capsys.readouterr()
    assert "base first" in captured.err and "change first" in captured.err
    assert "steps_per_s" in captured.out and "0/2" in captured.out
    assert "within (25%)" in captured.out
    assert "decisions: equal on 2 of 2 seeds\n" in captured.out
    assert pairs.main(["--base", str(good), "--change", str(bad)] + argv) == 1
    assert "not correct" in capsys.readouterr().err
    # a run with no result line fails too
    (bad / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    assert pairs.main(["--base", str(bad), "--change", str(good)] + argv) == 1
    assert "no result" in capsys.readouterr().err


def test_pairs_report_decision_changes_without_failing(tmp_path, capsys):
    base = _checkout(tmp_path / "base", _result(steps_per_s=100.0, step_ms_p50=0.5))
    # a cheaper change that builds fewer frames but decides alike
    same = _checkout(tmp_path / "same", _result(steps_per_s=120.0, step_ms_p50=0.4), dict(OUTCOME, frames_built=1))
    moved = _checkout(
        tmp_path / "moved", _result(steps_per_s=120.0, step_ms_p50=0.4),
        dict(OUTCOME, final_beta=2.375, accepted_rescales=1), max_error=3.25e-9,
    )
    argv = ["--base", str(base), "--workload", "front-move", "--pairs", "3", "--seconds", "1"]
    assert pairs.main(argv + ["--change", str(same)]) == 0
    assert "decisions: equal on 3 of 3 seeds\n" in capsys.readouterr().out
    assert pairs.main(argv + ["--change", str(moved)]) == 0
    out = capsys.readouterr().out
    assert "decisions: equal on 0 of 3 seeds; differ in accepted_rescales, final_beta\n" in out
    assert "max_error median: base 2.5e-14, change 3.25e-09\n" in out
    # a side whose detail lines carry no error reports none
    lacking = _checkout(tmp_path / "lacking", _result(steps_per_s=100.0, step_ms_p50=0.5), max_error=None)
    assert pairs.main(argv + ["--change", str(lacking)]) == 0
    assert "max_error median: base 2.5e-14, change none\n" in capsys.readouterr().out


def test_decisions_compare_each_pair_and_flag_a_missing_outcome():
    def side(*outcomes):
        return [{"outcome": outcome} for outcome in outcomes]

    lacking = {key: value for key, value in OUTCOME.items() if key != "cap_hits"}
    base = side(OUTCOME, OUTCOME, OUTCOME, OUTCOME)
    change = side(OUTCOME, dict(OUTCOME, moves=998), lacking, None)
    assert pairs.decisions(base, change) == (1, ["cap_hits", "moves", "outcome"])
    assert pairs.decisions(side(None), side(None)) == (0, ["outcome"])


def _traced(**metrics) -> dict:
    """A traced result line: each metric a (value, unit) pair."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def test_pairs_report_traced_counts_without_failing(tmp_path, capsys):
    counts = {"adapt.moved.calls": (999, "count"), "adapt.Frame.builds": (1, "count"), "adapt.moved.self_ms": (5.0, "ms")}
    base = _checkout(tmp_path / "base", _result(steps_per_s=100.0, step_ms_p50=0.5), traced=_traced(**counts))
    # self times differ on every run; only counts are compared
    same = _checkout(tmp_path / "same", _result(steps_per_s=100.0, step_ms_p50=0.5),
                     traced=_traced(**dict(counts, **{"adapt.moved.self_ms": (4.0, "ms")})))
    more = _checkout(tmp_path / "more", _result(steps_per_s=100.0, step_ms_p50=0.5),
                     traced=_traced(**dict(counts, **{"adapt.moved.calls": (1000, "count"), "adapt.extra.calls": (1, "count")})))
    argv = ["--base", str(base), "--workload", "front-move", "--pairs", "2", "--seconds", "1", "--seed", "7"]
    assert pairs.main(argv + ["--change", str(same)]) == 0
    out = capsys.readouterr().out
    assert "max_error median: base 2.5e-14, change 2.5e-14\ntraced counts (seed 7): equal in all 2 count metrics\n" in out
    assert pairs.main(argv + ["--change", str(more)]) == 0
    assert "traced counts (seed 7): 2 of 3 count metrics differ: adapt.extra.calls, adapt.moved.calls\n" in capsys.readouterr().out
    # each side ran its traced run once, at the first seed, after its pairs
    assert (more / "runs.txt").read_text().splitlines() == ["front-move"] * 2 + ["front-move traced"]
    # result lines with no count metric say so
    plain = _checkout(tmp_path / "plain", _result(steps_per_s=100.0, step_ms_p50=0.5))
    assert pairs.main(["--base", str(plain), "--change", str(plain)] + argv[2:]) == 0
    assert "traced counts (seed 7): no count metrics\n" in capsys.readouterr().out


def test_traced_counts_compare_only_count_metrics():
    base = _traced(a=(1, "count"), b=(2, "count"), c=(3.0, "ms"))
    assert pairs.traced_counts(base, base) == (["a", "b"], [])
    change = _traced(a=(1, "count"), b=(3, "count"), c=(4.0, "ms"))
    assert pairs.traced_counts(base, change) == (["a", "b"], ["b"])
    lacking = _traced(a=(1, "count"), c=(3.0, "ms"))
    assert pairs.traced_counts(base, lacking) == (["a", "b"], ["b"])
