"""History digests: do two checkouts step the same histories, bit for bit?

    python3 tools/digest.py --base ../parent --change . --seeds 4242 9001

Four short stepping histories, three modelled on the benchmark's
stepping workloads, run on each checkout's own library
(``<checkout>/src``):

* ``front``: a 1-D translating logistic front in ``move-scale`` mode, N=128,
  β=2.5, dt=0.001, 1000 steps;
* ``spread``: a 1-D spreading logistic front in ``scale`` mode, N=128,
  β=2.5, dt=0.04, 1000 steps;
* ``product``: a 2-D drifting, widening product of two logistic fronts
  through ``run_2d`` in ``move-scale`` mode, 48×48, β=2, dt=0.005, 1000 steps;
* ``mixed``: the same ``run_2d`` on a Laguerre × Hermite state, a logistic
  front drifting and widening in x times a Gaussian widening about y = 0,
  48×48, β=2, dt=0.005, 1000 steps.  The Hermite axis has no sentinel
  point, so its exterior reading is None and only its ladder acts.

Each seed jitters the profiles' speeds and widths by up to 5 %.  Every
case and seed runs in a fresh process of each checkout, with one BLAS
thread and bytecode caches off, through the library's own resampling
evolvers and with the profile as reference.  A run hashes every field of
every record (each float by its exact bits; the extras by name) with
sha256.  For each case and seed the tool prints the two digests and
whether they are equal.  A difference is reported, not failed, as
``tools/pairs.py`` reports decisions: a change may mean to move a
history.  ``--smoke`` runs each case at a tiny order and horizon.

It exits non-zero when a run fails.  Standard library only, but for the
``--history`` child, which imports numpy and the checkout's library.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

CASES = ("front", "spread", "product", "mixed")

# case -> (order, beta, dt, steps) of a full and of a smoke run
SIZES = {
    "full": {"front": (128, 2.5, 0.001, 1000), "spread": (128, 2.5, 0.04, 1000), "product": (48, 2.0, 0.005, 1000),
             "mixed": (48, 2.0, 0.005, 1000)},
    "smoke": {"front": (16, 2.5, 0.01, 20), "spread": (16, 2.5, 0.05, 20), "product": (8, 2.0, 0.05, 10),
              "mixed": (8, 2.0, 0.05, 10)},
}

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


def history(case: str, seed: int, smoke: bool) -> str:
    """The record digest of one case's history on the library on ``sys.path``."""
    import numpy as np

    from specadapt import adapt, basis

    def logistic(z):
        return 0.5 * (1.0 - np.tanh(0.5 * z))

    rng = random.Random(f"{case}:{seed}")
    a, b = (1.0 + 0.05 * (2.0 * rng.random() - 1.0) for _ in range(2))
    order, beta, dt, steps = SIZES["smoke" if smoke else "full"][case]
    if case in ("product", "mixed"):
        if case == "product":
            def profile(x, y, t):
                return (logistic((x - 2.0 - a * t) / (2.0 + a * t))
                        * logistic((y - 2.0 - 0.8 * b * t) / (2.0 + 0.8 * b * t)))

            initial = adapt.frame_state_2d_from(profile, order, beta, order, beta)
        else:
            def profile(x, y, t):
                return logistic((x - 2.0 - a * t) / (2.0 + a * t)) * np.exp(-0.5 * (y / (1.0 + 0.5 * b * t)) ** 2)

            frames = (adapt.Frame(order, beta), adapt.Frame(order, beta, basis.HERMITE))
            values = profile(frames[0].nodes[:, None], frames[1].nodes[None, :], 0.0)
            initial = adapt.FrameState(frames, values, (0.0, 0.0))
        cfg = adapt.AdaptConfig(mu=1.003, delta=0.005, d_max=0.1)
        records, _ = adapt.run_2d(adapt.frame_resample_evolver_2d(profile), initial, cfg, dt, steps * dt,
                                  adapt.MODE_MOVE_SCALE, reference=profile)
    else:
        if case == "front":
            def profile(x, t):
                return logistic((x - 5.0 - 5.0 * a * t) / (2.0 * b))
        else:
            def profile(x, t):
                return logistic((x - 5.0) / (2.0 * b + a * t))

        mode = adapt.MODE_MOVE_SCALE if case == "front" else adapt.MODE_SCALE
        records, _ = adapt.run_frames(adapt.frame_resample_evolver(profile), adapt.frame_state_from(profile, order, beta),
                                      adapt.AdaptConfig(), dt, steps * dt, mode, reference=profile)
    return record_digest(records)


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
