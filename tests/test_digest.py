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
    def digest_of(records):
        return digest.record_digest(digest.record_rows(records))

    records = [
        ExperimentRecord(0.0, 2.5, 0.0, 1e-9, 1e-3, 0.5),
        ExperimentRecord(0.1, 2.5, 0.004, 2e-9, 2e-3, 0.6, {"beta_y": 2.0, "yL": 0.1}),
    ]
    reference = digest_of(records)
    assert digest_of([replace(r) for r in records]) == reference
    last = records[1]
    changed = [replace(last, **{name: math.nextafter(getattr(last, name), math.inf)})
               for name in ("t", "beta", "x_left", "error", "freq", "ext")]
    changed += [replace(last, ext=None), replace(last, extras={"beta_y": 2.0}),
                replace(last, extras={"beta_y": math.nextafter(2.0, 0.0), "yL": 0.1})]
    digests = {digest_of([records[0], record]) for record in changed}
    assert len(digests) == len(changed) and reference not in digests
    # each row has its own record's extras, whichever record comes first:
    # names taken from the first record alone raised KeyError here
    rows = digest.record_rows(records[::-1])
    assert [list(row)[6:] for row in rows] == [["beta_y", "yL"], []]
    assert digest.record_digest(rows) != reference
    # and what moved is read from every row's fields
    moved = [records[0], replace(last, extras={"beta_y": 2.0, "yL": 0.2})]
    base, change = ({"rows": digest.record_rows(history), "q": 0.95, "d_max": 0.1} for history in (records, moved))
    assert digest.what_moved(base, change)[1] == "  decisions: differ (yL); readings: equal; error: equal; t: equal"


def _mutant_report(tmp_path, capsys, line: str, mutated: str) -> tuple[list, list, list]:
    """The digest report of this checkout against a copy whose adapt.py has ``line`` as ``mutated``.

    Returns the case lines (cut at their digests), the lines that sort the
    differing fields and the per-side summaries.  The copy takes the
    benchmark's workloads along, as the tool runs a checkout's own.
    """
    mutant = tmp_path / "mutant"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, mutant / part, ignore=shutil.ignore_patterns("__pycache__"))
    source = mutant / "src" / "specadapt" / "adapt.py"
    text = source.read_text()
    assert text.count(line) == 1
    source.write_text(text.replace(line, mutated))
    assert digest.main(["--base", str(ROOT), "--change", str(mutant), "--seeds", "3", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = [line.split(" (")[0] for line in lines if not line.startswith(" ")]
    classes = [line.strip() for line in lines if line.startswith("  decisions")]
    sides = [line.split(":", 1)[1].strip() for line in lines if line.startswith(("  base:", "  change:"))]
    return cases, classes, sides


def test_digest_reports_equal_and_differing_histories(tmp_path, capsys):
    # a copy whose mover moves one delta further than it should: the three
    # moving cases step other histories, the scaling one the same
    cases, classes, sides = _mutant_report(tmp_path, capsys, "return n * delta", "return (n + 1) * delta")
    assert cases == [
        "front-move seed 3: DIFFER", "spread-scale seed 3: equal", "bump-2d seed 3: DIFFER", "mixed seed 3: DIFFER",
        "histories: equal in 1 of 4",
    ]
    assert len(classes) == 3 and all(line.startswith("decisions: differ (") for line in classes)
    assert all("x_left" in line.split(";")[0] for line in classes)
    # the sides part at the mover: its cap hits and final origin differ
    base, change = sides[:2]
    assert base != change and "cap hits" in base and "max_error" in base


def test_digest_reports_a_ladder_mutant_as_moved_decisions(tmp_path, capsys):
    # a copy whose every rung contracts by q^2: the scaling decisions move
    # on every case whose ladder accepts a rung within the smoke horizon
    line = "beta_next = cfg.q * state.frames[axis].beta"
    cases, classes, sides = _mutant_report(tmp_path, capsys, line, line.replace("cfg.q", "cfg.q * cfg.q"))
    assert cases[1:] == [
        "spread-scale seed 3: DIFFER", "bump-2d seed 3: DIFFER", "mixed seed 3: DIFFER", "histories: equal in 0 of 4",
    ]
    assert len(classes) == 4 and len(sides) == 8
    assert all(line.startswith("decisions: differ (beta") for line in classes[1:])
    assert all(base.split("final beta")[1] != change.split("final beta")[1]
               for base, change in zip(sides[2::2], sides[3::2]))


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
    assert [line.split(" (")[0] for line in lines if not line.startswith(" ")] == [
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


def test_digest_reports_an_error_weight_mutant_as_moved_error_only(tmp_path, capsys):
    # a copy that weights the recorded error with the refined Gauss weights
    # instead of those for plain dx: every history differs, in its error
    # column alone
    line = "self.refined_nodes, _, self.refined_weights = _unit_rule("
    gauss = "self.refined_nodes, self.refined_weights, _ = _unit_rule("
    cases, classes, sides = _mutant_report(tmp_path, capsys, line, gauss)
    assert cases == [
        "front-move seed 3: DIFFER", "spread-scale seed 3: DIFFER", "bump-2d seed 3: DIFFER", "mixed seed 3: DIFFER",
        "histories: equal in 0 of 4",
    ]
    assert classes == ["decisions: equal; readings: equal; error: differ; t: equal"] * 4
    for base, change in zip(sides[::2], sides[1::2]):
        assert base.split("max_error")[0] == change.split("max_error")[0]
