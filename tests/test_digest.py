"""Tests of tools/digest.py, the history digests of two checkouts, on this checkout and a changed copy of it."""

from __future__ import annotations

import importlib.util
import math
import shutil
from dataclasses import replace
from pathlib import Path

from specadapt.adapt import ExperimentRecord

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_record_digest_sees_every_bit_of_every_field():
    records = [
        ExperimentRecord(0.0, 2.5, 0.0, 1e-9, 1e-3, 0.5),
        ExperimentRecord(0.1, 2.5, 0.004, 2e-9, 2e-3, 0.6, {"beta_y": 2.0, "yL": 0.1}),
    ]
    reference = digest.record_digest(records)
    assert digest.record_digest([replace(r) for r in records]) == reference
    last = records[1]
    changed = [replace(last, **{name: math.nextafter(getattr(last, name), math.inf)})
               for name in ("t", "beta", "x_left", "error", "freq", "ext")]
    changed += [replace(last, ext=None), replace(last, extras={"beta_y": 2.0}),
                replace(last, extras={"beta_y": math.nextafter(2.0, 0.0), "yL": 0.1})]
    digests = {digest.record_digest([records[0], record]) for record in changed}
    assert len(digests) == len(changed) and reference not in digests


def test_digest_reports_equal_and_differing_histories(tmp_path, capsys):
    # a copy whose mover moves one delta further than it should: the three
    # moving cases step other histories, the scaling one the same; the copy
    # takes the benchmark's workloads along, as the tool runs a checkout's own
    mutant = tmp_path / "mutant"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, mutant / part, ignore=shutil.ignore_patterns("__pycache__"))
    source = mutant / "src" / "specadapt" / "adapt.py"
    text = source.read_text()
    assert text.count("return n * delta") == 1
    source.write_text(text.replace("return n * delta", "return (n + 1) * delta"))
    assert digest.main(["--base", str(ROOT), "--change", str(mutant), "--seeds", "3", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "front-move seed 3: DIFFER", "spread-scale seed 3: equal", "bump-2d seed 3: DIFFER", "mixed seed 3: DIFFER",
        "histories: equal in 1 of 4",
    ]


def test_the_mixed_case_steps_the_library_evolver(tmp_path, capsys):
    # a copy whose resampling evolver scales every sample by 1 + 2^-52: the
    # benchmark cases step their own evolvers and keep their histories, the
    # mixed case steps the library's and differs
    mutant = tmp_path / "mutant"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, mutant / part, ignore=shutil.ignore_patterns("__pycache__"))
    source = mutant / "src" / "specadapt" / "adapt.py"
    text = source.read_text()
    sampled = "np.array(values, dtype=float), state.lefts"
    assert text.count(sampled) == 1
    source.write_text(text.replace(sampled, "np.array(values, dtype=float) * (1.0 + 2.0**-52), state.lefts"))
    assert digest.main(["--base", str(ROOT), "--change", str(mutant), "--seeds", "3", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "front-move seed 3: equal", "spread-scale seed 3: equal", "bump-2d seed 3: equal", "mixed seed 3: DIFFER",
        "histories: equal in 3 of 4",
    ]


def test_digest_fails_on_a_checkout_without_its_library(tmp_path, capsys):
    # the history must come from the checkout's own src, never from an
    # installed copy: the checkout has its workloads but no src, so its run
    # fails at the import, or, where the package is installed, at the check
    # of the library's path
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    assert digest.main(["--base", str(tmp_path), "--change", str(ROOT), "--seeds", "3", "--smoke"]) == 1
    assert f"{tmp_path}: front-move at seed 3 failed" in capsys.readouterr().err
