"""Alternating benchmark pairs: one workload (or all of them), two checkouts, N pairs.

    python3 tools/pairs.py --base ../parent --change . --workload spread-scale \
        --pairs 10 --seconds 30 --seed 100

Pair i runs ``perfbench/run.py --workload W --seed (seed + i)`` once in each
checkout, the base first on even i and the change first on odd i, so that a
drift of the host's speed does not favour one side.  Each run is a fresh
process of the checkout's own benchmark, with bytecode caches off so that
neither checkout is written to.  ``--workload all`` runs every workload of
the change's ``BENCHMARK.json`` in turn, in its order, and reports each one
as it finishes.

For every end-to-end metric of the change's ``BENCHMARK.json`` it prints
each side's median and quartiles, the change's relative median shift, how
many pairs the change won (a tie is no win), whether the median shift
exceeds the base's quartile distance, and a verdict against the metric's
``bound``:

* ``worse``: the change's median is worse than the base's by more than the
  bound, relative to the base's median;
* ``unresolved``: otherwise, the base's quartile distance over its median
  exceeds the bound, unless every change run beats every base run;
* ``within``: neither.

Per workload, it then compares the controller outcome of each pair, as
each side's detail line reports it (final beta and origin, moves, cap hits,
accepted rescales; every key but ``frames_built``, which counts cache
entries), and prints on how many seeds the two sides decided alike and
which keys differ.  A difference is reported, not failed: a change may mean
to move decisions, and one that does not will show it here before its
timings do.  Under that line it prints each side's median ``max_error``
(the detail line's largest recorded error), so that no speed is bought
with accuracy unseen.  Last, it runs the workload once traced on each side
(``--trace 1 --seconds 1``, the first seed) and prints whether every
count-unit metric of the two traced runs is equal, naming those that
differ: call counts, values, builds, moves.  These are reported, not
failed, like the decisions.

It exits non-zero when any run fails or reports ``"correct": false``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def bench(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool, trace: bool = False) -> dict:
    """One run of ``checkout``'s benchmark, traced when ``trace``; its result line, or RuntimeError.

    The result carries the detail line's ``outcome`` and ``max_error``
    under those keys (None when the line before the result is not a JSON
    object, or lacks the key).
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    if trace:
        command += ["--trace", "1"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()}") from None
    if proc.returncode != 0 or result.get("correct") is not True:
        raise RuntimeError(f"{checkout}: seed {seed} is not correct (exit {proc.returncode}): {lines[-1]}")
    try:
        detail = json.loads(lines[-2])
        result["outcome"], result["max_error"] = detail.get("outcome"), detail.get("max_error")
    except (IndexError, json.JSONDecodeError, AttributeError):
        result["outcome"] = result["max_error"] = None
    return result


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list, change: list, end_to_end: list) -> list:
    """One row per metric from paired result lines (``base[i]`` pairs ``change[i]``)."""
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        shift = cq[1] - bq[1]
        gain = shift if higher else -shift
        sweep = min(c) > max(b) if higher else max(c) < min(b)
        if -gain > spec["bound"] * bq[1]:
            verdict = "worse"
        elif bq[2] - bq[0] > spec["bound"] * bq[1] and not sweep:
            verdict = "unresolved"
        else:
            verdict = "within"
        rows.append({
            "metric": name,
            "base": bq,
            "change": cq,
            "relative": shift / bq[1] if bq[1] else float("nan"),
            "wins": wins,
            "pairs": len(b),
            "beyond_base_iqr": gain > bq[2] - bq[0],
            "bound": spec["bound"],
            "verdict": verdict,
        })
    return rows


def decisions(base: list, change: list) -> tuple:
    """(pairs whose outcomes are equal, sorted keys that differ in any pair).

    ``frames_built`` is left out.  A key that one side lacks differs, and a
    side with no outcome differs as the key ``outcome``.
    """
    equal, keys = 0, set()
    for b, c in zip(base, change):
        b, c = b.get("outcome"), c.get("outcome")
        if b is None or c is None:
            differ = {"outcome"}
        else:
            differ = {key for key in b.keys() | c.keys() if key != "frames_built" and b.get(key) != c.get(key)}
        equal += not differ
        keys |= differ
    return equal, sorted(keys)


def median_error(results: list) -> str:
    """The median ``max_error`` of one side's runs, or "none" when no run reports one."""
    errors = [r["max_error"] for r in results if r.get("max_error") is not None]
    return f"{statistics.median(errors):.6g}" if errors else "none"


def traced_counts(base: dict, change: dict) -> tuple:
    """(count-unit metric names of two traced result lines, those whose values differ).

    A metric that one side lacks differs.
    """
    metrics = base["metrics"], change["metrics"]
    names = sorted({name for side in metrics for name, metric in side.items() if metric.get("unit") == "count"})
    differ = [name for name in names if metrics[0].get(name) != metrics[1].get(name)]
    return names, differ


def run_pairs(args, workload: str) -> dict:
    """``args.pairs`` alternating pairs of ``workload``, then one traced run per side.

    Returns the result lines per side, and the traced ones under ``traced``.
    """
    results = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout = args.base if side == "base" else args.change
            results[side].append(bench(checkout, workload, args.seed + i, args.seconds, args.smoke))
        print(f"{workload}: pair {i + 1}/{args.pairs} (seed {args.seed + i}, {order[0]} first) done",
              file=sys.stderr)
    results["traced"] = [bench(checkout, workload, args.seed, 1.0, args.smoke, trace=True)
                         for checkout in (args.base, args.change)]
    return results


def report(workload: str, results: dict, args, end_to_end: list) -> None:
    """Print one workload's table, its decisions, accuracy and traced-count lines and each side's failed operations."""
    print(f"{workload}: {args.pairs} alternating pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':<12} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'shift':>8} {'wins':>6}"
          f"  {'verdict (bound)':<20}")
    for row in summarize(results["base"], results["change"], end_to_end):
        b, c = (f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (row["base"], row["change"]))
        verdict = f"{row['verdict']} ({row['bound']:.0%})"
        print(f"{row['metric']:<12} {b:>34} {c:>34} {row['relative']:>+8.2%} {row['wins']:>3}/{row['pairs']}"
              f"  {verdict:<20}{'  beyond base IQR' if row['beyond_base_iqr'] else ''}")
    equal, keys = decisions(results["base"], results["change"])
    print(f"decisions: equal on {equal} of {args.pairs} seeds" + (f"; differ in {', '.join(keys)}" if keys else ""))
    print(f"max_error median: base {median_error(results['base'])}, change {median_error(results['change'])}")
    names, differ = traced_counts(*results["traced"])
    if not names:
        counts = "no count metrics"
    elif differ:
        counts = f"{len(differ)} of {len(names)} count metrics differ: {', '.join(differ)}"
    else:
        counts = f"equal in all {len(names)} count metrics"
    print(f"traced counts (seed {args.seed}): {counts}")
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in results[side])
        failed = sum(r["failed"] for r in results[side])
        print(f"{side}: {failed} of {attempted} operations failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to the benchmark")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            results = run_pairs(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(workload, results, args, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
