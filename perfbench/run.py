"""specadapt benchmark: fresh-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload front-move --seed 0 --seconds 20 --trace 0

Each episode is a fresh single-threaded Python process (``episode.py``),
because the unit quadrature rules and the ``Frame`` cache live for the whole
process: repeating a workload in one process would time warm caches that a
user's first run never has.  Episodes repeat until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics from untraced episodes.
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics of the traced ones, plus the ratio of traced to untraced
throughput.  ``--workload all`` runs every workload both ways.

Every metric is printed by name with its unit, then one JSON line with the
environment, the controller outcome and the checks, and last the result
line ``{"correct", "attempted", "failed", "metrics"}``.  The process exits
non-zero without a result when the library source is missing or an
episode crashes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("front-move", "spread-scale", "bump-2d", "cold-orders")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
MIN_EPISODES = 4
FAST_SHARE = 0.01  # least share of a run's timed operations that must fall in a fast phase
GRACE_S = 140.0  # a 30 s run is cut off at 170 s, inside the 180 s it is allowed

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

SPANS = (
    "basis.quadrature",
    "basis.eval_weighted_all",
    "basis.eval_basis_all",
    "approx.interpolate",
    "indicators.frequency_indicator",
    "indicators.exterior_error_indicator",
    "adapt.Frame",
    "adapt.rescaled",
    "adapt.exterior",
    "adapt.moved",
    "adapt.frequency",
    "adapt.error",
)

PER_LAYER = {f"{span}.{kind}": unit for span in SPANS for kind, unit in (("calls", "count"), ("self_ms", "ms"))}
PER_LAYER.update({
    "basis.eval_weighted_all.values": "count",
    "adapt.Frame.builds": "count",
    "adapt.Frame.build_ms": "ms",
    "adapt.Frame.hit_ratio": "ratio",
    "adapt.ladder.accepted": "count",
    "adapt.ladder.accept_ratio": "ratio",
    "adapt.mover.moves": "count",
    "adapt.mover.cap_hits": "count",
    "adapt.loop.self_ms": "ms",
    "workload.evolve.self_ms": "ms",
    "workload.setup.self_ms": "ms",
    "trace.speed_ratio": "ratio",
})


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def episode(name: str, seed: int, traced: bool, smoke: bool, deadline: float) -> dict:
    """Run one fresh-process episode and return its report."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spec = json.dumps({"workload": name, "seed": seed, "trace": traced, "smoke": smoke})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "episode.py"), spec],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} episode exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Inclusive quantile of ``values`` at fraction ``q``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def step_profile(episodes) -> list:
    """Per operation index, its time (ms) at the host's full speed.

    Every episode of a run does the same operations in the same order, so
    what differs between them is the host.  It runs each CPU at full speed
    or at about half speed, in phases of tens to hundreds of milliseconds,
    and some runs spend most of their time at half speed.  An operation's
    time relative to the median operation of its own episode does not
    depend on the phase the episode ran in: its median over the episodes
    is the shape of the profile.  Each timed operation divided by its shape
    value is the median-step time it implies; the fastest ``FAST_SHARE`` of
    those, pooled over the run, sets the scale.  Unlike a per-operation
    minimum, this needs a fast phase somewhere in the run, not at every
    operation.
    """
    relative = []
    for e in episodes:
        median = statistics.median(e["op_ms"])
        relative.append([t / median for t in e["op_ms"]])
    shape = [statistics.median(ratios) for ratios in zip(*relative)]
    implied = sorted(t / r for e in episodes for t, r in zip(e["op_ms"], shape))
    scale = implied[int(FAST_SHARE * len(implied))]
    return [scale * r for r in shape]


def throughput(episodes) -> float:
    """Operations per second of the run call, from the step profile."""
    steps = step_profile(episodes)
    return len(steps) / ((min(e["lead_ms"] for e in episodes) + sum(steps)) / 1e3)


def end_to_end(untraced) -> dict:
    steps = step_profile(untraced)
    return {
        "setup_s": statistics.median(e["setup_s"] for e in untraced),
        "steps_per_s": throughput(untraced),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p99": quantile(steps, 0.99),
        "peak_rss_mb": statistics.median(e["rss_mb"] for e in untraced),
    }


def pooled(untraced) -> dict:
    """Step figures over every episode as it ran, interference included."""
    op_ms = [t for e in untraced for t in e["op_ms"]]
    return {
        "steps_per_s": sum(e["ops"] for e in untraced) / sum(e["busy_s"] for e in untraced),
        "step_ms_p50": statistics.median(op_ms),
        "step_ms_p99": quantile(op_ms, 0.99),
    }


def per_layer(untraced, traced) -> dict:
    first = traced[0]["trace"]
    outcome = traced[0]["outcome"]
    calls, counts = first["calls"], first["counts"]

    def fastest(field, key):
        return min(e["trace"][field].get(key, 0.0) for e in traced)

    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.self_ms"] = fastest("self_ms", span)
    frame_calls = calls.get("adapt.Frame", 0)
    builds = int(counts.get("adapt.Frame.builds", 0))
    accepted = outcome.get("accepted_rescales", 0)
    candidates = calls.get("adapt.rescaled", 0)
    metrics.update({
        "basis.eval_weighted_all.values": int(counts.get("basis.eval_weighted_all.values", 0)),
        "adapt.Frame.builds": builds,
        "adapt.Frame.build_ms": fastest("counts", "adapt.Frame.build_ms"),
        "adapt.Frame.hit_ratio": (frame_calls - builds) / frame_calls if frame_calls else 0.0,
        "adapt.ladder.accepted": accepted,
        "adapt.ladder.accept_ratio": accepted / candidates if candidates else 0.0,
        "adapt.mover.moves": outcome.get("moves", 0),
        "adapt.mover.cap_hits": outcome.get("cap_hits", 0),
        "adapt.loop.self_ms": fastest("self_ms", "adapt.loop"),
        "workload.evolve.self_ms": fastest("self_ms", "workload.evolve"),
        "workload.setup.self_ms": fastest("self_ms", "workload.setup"),
        "trace.speed_ratio": throughput(traced) / throughput(untraced),
    })
    return metrics


def checks(episodes, traced) -> dict:
    """Correctness gate beyond the per-operation failures."""
    def behaviour(e):
        return (e["ops"], e["failed"], e["outcome"])

    def trace_counts(e):
        counts = {k: v for k, v in e["trace"]["counts"].items() if not k.endswith("_ms")}
        return e["trace"]["calls"], counts

    result = {
        "initial_states_ok": all(e["initial_ok"] for e in episodes),
        "outcome_repeats": all(behaviour(e) == behaviour(episodes[0]) for e in episodes),
    }
    if traced:
        accounted = [sum(e["trace"]["self_ms"].values()) / e["trace"]["wall_ms"] for e in traced]
        result.update({
            "trace_counts_repeat": all(trace_counts(e) == trace_counts(traced[0]) for e in traced),
            "wrappers_removed": not any(e["trace"]["leftovers"] for e in traced),
            "self_times_nonnegative": all(v >= -1e-3 for e in traced for v in e["trace"]["self_ms"].values()),
            "self_times_cover_wall": all(abs(a - 1.0) <= 0.01 for a in accounted),
        })
        result["accounted_share"] = max(accounted, key=lambda a: abs(a - 1.0))
    return result


def clean(value):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: clean(v) for k, v in value.items()}
    if isinstance(value, list):
        return [clean(v) for v in value]
    return value


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    episodes, durations = [], []
    while True:
        traced = trace and len(episodes) % 2 == 1
        began = time.perf_counter()
        episodes.append(episode(name, seed, traced, smoke, deadline))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        batch = 2 if trace else 1  # a traced run ends on an untraced/traced pair
        if len(episodes) >= MIN_EPISODES and len(episodes) % batch == 0:
            if elapsed + batch * statistics.median(durations) > seconds:
                break
    untraced = [e for e in episodes if "trace" not in e]
    traced = [e for e in episodes if "trace" in e]
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    units = PER_LAYER if trace else END_TO_END
    gate = checks(episodes, traced)
    correct = all(v for k, v in gate.items() if isinstance(v, bool))
    for metric, value in metrics.items():
        print(f"{name:<13} {metric:<40} {value:>16.6g} {units[metric]}")
    op_count = len(untraced[0]["op_ms"])
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "commit": commit(),
        "env": episodes[0]["env"],
        "params": episodes[0]["params"],
        "outcome": episodes[0]["outcome"],
        "max_error": max((e["max_error"] for e in episodes), key=lambda v: (math.isnan(v), v)),
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_episode": episodes[0]["ops"],
        "failed_per_episode": episodes[0]["failed"],
        "timed_ops": op_count,
        "ops_beyond_p99": op_count - math.ceil(0.99 * op_count),
        "checks": gate,
        "pooled": pooled(untraced),
        "seconds": time.perf_counter() - start,
    }
    print(json.dumps(clean(detail)))
    return {
        "correct": correct,
        "attempted": sum(e["ops"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny orders and horizons, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specadapt" / "adapt.py").is_file():
        print(f"error: library source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    results = []
    try:
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            print(json.dumps(result))
            results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
