"""One benchmark episode in a fresh process: import, set up, run, report.

Started by ``run.py`` with the BLAS thread variables already set to 1 and
``src`` on ``PYTHONPATH``.  The clock starts before numpy and the library
are imported, so the reported set-up time covers the cold import, the unit
quadrature rules and the first ``Frame`` builds, which a user's first run
pays.  Prints one JSON object on stdout.

    python3 perfbench/episode.py '{"workload": "front-move", "seed": 0, "trace": false, "smoke": false}'
"""

import json
import os
import platform
import resource
import sys
import time
import warnings

t0 = time.perf_counter()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# Named again here rather than imported from run.py, whose imports would
# add to the peak memory this process reports.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(spec: dict) -> dict:
    # The order-256 frames overflow on purpose (they are counted failures);
    # their warnings would only bury the report.
    warnings.simplefilter("ignore", RuntimeWarning)
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result = workloads.run(spec["workload"], spec["seed"], spec["smoke"], tracer, t0)
        finally:
            tracer.uninstall()
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_ms": {name: s * 1e3 for name, s in tracer.self_s.items()},
            "counts": dict(tracer.counts),
            "wall_ms": result["traced_wall_s"] * 1e3,
            "leftovers": tracer.leftovers(),
        }
    else:
        result = workloads.run(spec["workload"], spec["seed"], spec["smoke"], workloads.Untraced(), t0)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
