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
  with each seed jittering its speeds and widths by up to 5 %.  Its
  evolver samples the profile on open grids and builds each state with
  the public constructor ``FrameState(frames, values, lefts)``.  The
  Hermite axis has no sentinel point, so its exterior reading is None and
  only its ladder acts.

Every case and seed runs in a fresh process of each checkout, with one
BLAS thread and bytecode caches off, with the profile as reference.  A
run hashes every field of every record (each float by its exact bits;
the extras by name) with sha256.  For each case and seed the tool prints
the two digests and whether they are equal.  A difference is reported,
not failed, as ``tools/pairs.py`` reports decisions: a change may mean to
move a history.  ``--smoke`` runs each case at its smoke size.

It exits non-zero when a run fails.  Standard library only, but for the
``--history`` child, which imports numpy, the checkout's library and its
benchmark workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
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


def record_digest(records) -> str:
    """sha256 over every field of every record: floats by their hex bits, None as "none", extras sorted by name."""
    def field(value) -> str:
        return "none" if value is None else float(value).hex()

    digest = hashlib.sha256()
    for r in records:
        fields = [r.t, r.beta, r.x_left, r.error, r.freq, r.ext]
        extras = [f"{name}={field(r.extras[name])}" for name in sorted(r.extras)]
        digest.update((",".join([field(value) for value in fields] + extras) + "\n").encode())
    return digest.hexdigest()


def _mixed(seed: int, smoke: bool):
    """The history of the mixed case."""
    import numpy as np

    from specadapt import adapt, basis

    def logistic(z):
        return 0.5 * (1.0 - np.tanh(0.5 * z))

    rng = random.Random(f"mixed:{seed}")
    a, b = (1.0 + 0.05 * (2.0 * rng.random() - 1.0) for _ in range(2))
    order, beta, dt, steps = MIXED["smoke" if smoke else "full"]

    def profile(x, y, t):
        return logistic((x - 2.0 - a * t) / (2.0 + a * t)) * np.exp(-0.5 * (y / (1.0 + 0.5 * b * t)) ** 2)

    def evolve(state, t, dt_):
        values = profile(state.nodes(0)[:, None], state.nodes(1)[None, :], t + dt_)
        return adapt.FrameState(state.frames, values, state.lefts)

    frames = (adapt.Frame(order, beta), adapt.Frame(order, beta, basis.HERMITE))
    values = profile(frames[0].nodes[:, None], frames[1].nodes[None, :], 0.0)
    initial = adapt.FrameState(frames, values, (0.0, 0.0))
    cfg = adapt.AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
    records, _ = adapt.run_frames(evolve, initial, cfg, dt, steps * dt, adapt.MODE_MOVE_SCALE, reference=profile)
    return records


def history(case: str, seed: int, smoke: bool) -> str:
    """The record digest of one case's history on the library on ``sys.path``.

    A workload is loaded from ``perfbench/workloads.py`` in the working
    directory, the checkout's own.
    """
    if case == "mixed":
        return record_digest(_mixed(seed, smoke))
    spec = importlib.util.spec_from_file_location("workloads", Path("perfbench", "workloads.py").resolve())
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kept = []

    class Keeper(workloads.Untraced):
        """The benchmark's stand-in tracer, keeping the history of the workload's run."""

        def call(self, name, fn, *args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "adapt.loop":
                kept.append(result[0])
            return result

    workloads.run(case, seed, smoke, Keeper(), time.perf_counter())
    return record_digest(kept[0])


def run(checkout: Path, case: str, seed: int, smoke: bool) -> str:
    """The digest of one case and seed in a fresh process of ``checkout``'s library, or RuntimeError."""
    src = (checkout / "src").resolve()
    command = [sys.executable, str(Path(__file__).resolve()), "--history", case, str(seed)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **{name: "1" for name in THREAD_VARS})
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or not lines[1].startswith(str(src)):
        raise RuntimeError(f"{checkout}: {case} at seed {seed} failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip() or proc.stdout.strip()}")
    return lines[0]


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

        print(history(args.history[0], int(args.history[1]), args.smoke))
        print(Path(specadapt.__file__).resolve())
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    equal = total = 0
    for case in CASES:
        for seed in args.seeds:
            try:
                base, change = (run(checkout, case, seed, args.smoke) for checkout in (args.base, args.change))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            total += 1
            equal += base == change
            print(f"{case} seed {seed}: {'equal' if base == change else 'DIFFER'} "
                  f"(base {base[:16]}, change {change[:16]})")
    print(f"histories: equal in {equal} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
