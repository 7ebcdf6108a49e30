"""History digests: do two checkouts step the same histories, bit for bit?

    python3 tools/digest.py --base ../parent --change . --seeds 4242 9001

Four stepping histories run on each checkout's own library
(``<checkout>/src``).  Three are the benchmark's stepping workloads, run
through that checkout's own ``perfbench/workloads.py`` (``run``), so
they step exactly the benchmark's traffic, evolvers included:

* ``front-move``: a 1-D translating logistic front in ``move-scale`` mode;
* ``spread-scale``: a 1-D spreading logistic front in ``scale`` mode;
* ``bump-2d``: a 2-D drifting, widening product of two logistic fronts in
  ``move-scale`` mode.

Their sizes and jitter are the workloads' own, full or smoke.  The fourth
is the tool's own:

* ``mixed``: a two-axis run on a Laguerre × Hermite state, a logistic
  front drifting and widening in x times a Gaussian widening about y = 0,
  48×48, β=2, dt=0.005, 1000 steps (smoke: 8×8, dt=0.05, 10 steps),
  with each seed jittering its speeds and widths by up to 5 %.  It
  samples its initial state with ``adapt.frame_state_2d_from`` and steps
  the library's own resampling evolver,
  ``adapt.frame_resample_evolver(profile)``, which no benchmark workload
  runs.  The Hermite axis has no sentinel point, so its exterior reading
  is None and only its ladder acts.

Every case and seed runs in a fresh process of each checkout, with one
BLAS thread and bytecode caches off, with the profile as reference.  A
run gives one row per record: every field by name, the record's own
extras included, each float by its exact bits.  Its digest is the sha256
of those rows.  For each case and seed the tool prints
the two digests and whether they are equal.  On a difference it goes on
to say what moved, in indented lines:

* the first record that differs, and its ``t``;
* which fields differ anywhere in the history, sorted into decisions
  (``beta``, ``x_left``, ``beta_y``, ``yL``), readings (``freq``, ``ext``,
  ``freq_y``, ``ext_y``), ``error`` and ``t``;
* per side and per axis: accepted ladder rungs, moves and cap hits
  (counted from the records with the run's ``q`` and ``d_max``, as the
  benchmark counts them), the final beta and origin; and the largest
  recorded error.

A difference is reported, not failed, as ``tools/pairs.py`` reports
decisions: a change may mean to move a history.  ``--smoke`` runs each
case at its smoke size.

It exits non-zero when a run fails.  Standard library only, but for the
``--history`` child, which imports numpy, the checkout's library and its
benchmark workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

CASES = ("front-move", "spread-scale", "bump-2d", "mixed")

# the mixed case's (order, beta, dt, steps) of a full and of a smoke run
MIXED = {"full": (48, 2.0, 0.005, 1000), "smoke": (8, 2.0, 0.05, 10)}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the record fields of each class, with each axis's (beta, origin) pair
DECISIONS = ("beta", "x_left", "beta_y", "yL")
READINGS = ("freq", "ext", "freq_y", "ext_y")
AXES = (("x", "beta", "x_left"), ("y", "beta_y", "yL"))


def record_rows(records) -> list[dict]:
    """One row per record: every field by name, the record's own extras sorted after the six; floats as hex bits."""
    def row(r) -> dict:
        fields = [("t", r.t), ("beta", r.beta), ("x_left", r.x_left), ("error", r.error), ("freq", r.freq),
                  ("ext", r.ext)] + sorted(r.extras.items())
        return {name: None if value is None else float(value).hex() for name, value in fields}

    return [row(r) for r in records]


def record_digest(rows: list[dict]) -> str:
    """sha256 over a history's rows (:func:`record_rows`) as JSON: every name and every bit of every field."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _mixed(seed: int, smoke: bool):
    """The history of the mixed case, and its configuration."""
    import numpy as np

    from specadapt import adapt, basis

    def logistic(z):
        return 0.5 * (1.0 - np.tanh(0.5 * z))

    rng = random.Random(f"mixed:{seed}")
    a, b = (1.0 + 0.05 * (2.0 * rng.random() - 1.0) for _ in range(2))
    order, beta, dt, steps = MIXED["smoke" if smoke else "full"]

    def profile(x, y, t):
        return logistic((x - 2.0 - a * t) / (2.0 + a * t)) * np.exp(-0.5 * (y / (1.0 + 0.5 * b * t)) ** 2)

    initial = adapt.frame_state_2d_from(profile, order, beta, order, beta, family_y=basis.HERMITE)
    cfg = adapt.AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    records, _ = adapt.run_frames(adapt.frame_resample_evolver(profile), initial, cfg, dt, steps * dt,
                                  adapt.MODE_MOVE_SCALE, reference=profile)
    return records, cfg


def history(case: str, seed: int, smoke: bool):
    """One case's history on the library on ``sys.path``, and the configuration it ran with.

    A workload is loaded from ``perfbench/workloads.py`` in the working
    directory, the checkout's own.
    """
    if case == "mixed":
        return _mixed(seed, smoke)
    spec = importlib.util.spec_from_file_location("workloads", Path("perfbench", "workloads.py").resolve())
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kept = []

    class Keeper(workloads.Untraced):
        """The benchmark's stand-in tracer, keeping the history of the workload's run."""

        def call(self, name, fn, *args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "adapt.loop":  # run(evolve, initial, cfg, ...)
                kept.append((result[0], args[2]))
            return result

    workloads.run(case, seed, smoke, Keeper(), time.perf_counter())
    return kept[0]


def run(checkout: Path, case: str, seed: int, smoke: bool) -> tuple[str, dict]:
    """The digest and record rows of one case and seed in a fresh process of ``checkout``'s library.

    The rows carry the run's ``q`` and ``d_max``.  RuntimeError if the run
    fails or its library is not the checkout's.
    """
    src = (checkout / "src").resolve()
    command = [sys.executable, str(Path(__file__).resolve()), "--history", case, str(seed)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **{name: "1" for name in THREAD_VARS})
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or not lines[0].startswith(str(src)):
        raise RuntimeError(f"{checkout}: {case} at seed {seed} failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip() or proc.stdout.strip()}")
    history = json.loads(lines[1])
    return record_digest(history["rows"]), history


def summary(history: dict) -> str:
    """Per axis: accepted rungs, moves, cap hits, final beta and origin; then the largest recorded error."""
    def column(name: str) -> list[float]:
        """The field's values, of the records that carry one."""
        return [float.fromhex(row[name]) for row in history["rows"] if row.get(name) is not None]

    q, d_max = history["q"], history["d_max"]
    parts = []
    for axis, beta, origin in AXES:
        betas, lefts = column(beta), column(origin)
        if not betas:
            continue
        rungs = sum(round(math.log(b0 / b1) / -math.log(q)) for b0, b1 in zip(betas, betas[1:]))
        steps = [b - a for a, b in zip(lefts, lefts[1:])]
        moves, caps = sum(step > 0.0 for step in steps), sum(abs(step - d_max) < 1e-12 for step in steps)
        parts.append(f"{axis}: rungs {rungs}, moves {moves}, cap hits {caps}, "
                     f"final beta {betas[-1]:.10g}, origin {lefts[-1]:.10g}")
    parts.append(f"max_error {max(column('error')):.3g}")
    return "; ".join(parts)


def what_moved(base: dict, change: dict) -> list[str]:
    """The indented lines that say where two differing histories part and how each side ends."""
    rows = list(zip(base["rows"], change["rows"]))
    first = next((i for i, (a, b) in enumerate(rows) if a != b), len(rows))
    lines = []
    if first < len(rows):
        lines.append(f"  first differing record: {first}, t = {float.fromhex(base['rows'][first]['t']):.10g}")
    if len(base["rows"]) != len(change["rows"]):
        lines.append(f"  records: base {len(base['rows'])}, change {len(change['rows'])}")
    names = dict.fromkeys(name for row in base["rows"] + change["rows"] for name in row)
    differ = [name for name in names if any(a.get(name) != b.get(name) for a, b in rows)]
    classes = []
    for label, names in (("decisions", DECISIONS), ("readings", READINGS)):
        moved = [name for name in names if name in differ]
        classes.append(f"{label}: differ ({', '.join(moved)})" if moved else f"{label}: equal")
    for name in ("error", "t"):
        classes.append(f"{name}: {'differ' if name in differ else 'equal'}")
    lines.append("  " + "; ".join(classes))
    lines.append(f"  base:   {summary(base)}")
    lines.append(f"  change: {summary(change)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, help="checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[4242, 9001])
    parser.add_argument("--smoke", action="store_true", help="run each case at a tiny order and horizon")
    parser.add_argument("--history", nargs=2, metavar=("CASE", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.history:
        import specadapt

        records, cfg = history(args.history[0], int(args.history[1]), args.smoke)
        print(Path(specadapt.__file__).resolve())
        print(json.dumps({"rows": record_rows(records), "q": cfg.q, "d_max": cfg.d_max}))
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    equal = total = 0
    for case in CASES:
        for seed in args.seeds:
            try:
                (base, base_rows), (change, change_rows) = (
                    run(checkout, case, seed, args.smoke) for checkout in (args.base, args.change))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            total += 1
            equal += base == change
            print(f"{case} seed {seed}: {'equal' if base == change else 'DIFFER'} "
                  f"(base {base[:16]}, change {change[:16]})")
            if base != change:
                print("\n".join(what_moved(base_rows, change_rows)))
    print(f"histories: equal in {equal} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
