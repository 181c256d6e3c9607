"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a seed always generates the same inputs, that a tampered
output is counted as a failure, and that the benchmark refuses to run
without the package.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(
        w,
        baskets=30,
        symbols=100,
        price_step_days=7,
        plain_events=3000 if w.plain_events else 0,
        stretch_iterations=min(w.stretch_iterations, 1),
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    measured = run.measure_run(tiny(name), 7, 0.2, bool(trace), tmp_path / "work")
    detail, result = run.results(measured)
    assert result["correct"], detail["problems"] or detail["errors"]
    assert result["attempted"] >= len(measured.report["ops"]) and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert all(0.5 < share <= 1.0 for share in detail["trace_accounted_share"].values())


def test_same_seed_same_inputs(tmp_path):
    for name in WORKLOADS:
        first = generate(tiny(name), 11, tmp_path / name / "a").digests
        again = generate(tiny(name), 11, tmp_path / name / "b").digests
        other = generate(tiny(name), 12, tmp_path / name / "c").digests
        assert first == again
        assert first["baskets.csv"] != other["baskets.csv"]


def _edit_json(path: Path, change):
    document = json.loads(path.read_text(encoding="utf-8"))
    change(document)
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _edit_pickle(path: Path, change):
    data = pickle.loads(path.read_bytes())
    change(data)
    path.write_bytes(pickle.dumps(data))


def _drop_first_node(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.lstrip().startswith("g"))
    path.write_text("".join(lines[:first] + lines[first + 1:]), encoding="utf-8")


# (operation, how to break its kept output, a fragment of the problem it must cause)
TAMPER = [
    ("segment", lambda p: _edit_pickle(p, lambda d: d["pill_weight"].__setitem__(
        0, (d["pill_weight"][0][0], d["pill_weight"][0][1] + 1))), "pill weights"),
    ("tangle_json", lambda p: _edit_json(p, lambda d: d["matches"][0].__setitem__(
        "later", d["matches"][0]["later"] + 1)), "matches differ from the oracle"),
    ("tangle_json", lambda p: _edit_json(p, lambda d: d["events"][0].__setitem__("token", "")),
     "schema:"),
    ("tangle_dot", _drop_first_node, "shared-position groups"),
    ("layout", lambda p: _edit_json(p, lambda d: d["layout"]["positions"][-1].__setitem__("x", 0.5)),
     "direct library run"),
    ("sweep", lambda p: (p / "sweep_summary.csv").write_text("window\n", encoding="utf-8"),
     "sweep summary"),
    ("eval", lambda p: _edit_json(p, lambda d: d["cells"][0].__setitem__(
        "flat", 1 + d["cells"][0]["flat"])), "outcomes != evaluated"),
    ("delay", lambda p: _edit_pickle(p, lambda d: d.__setitem__(
        0, d[0][:3] + (d[0][3] + 1, d[0][4]))), "delay records"),
    ("delay", lambda p: _edit_pickle(p, lambda d: d.__setitem__(
        0, d[0][:4] + (not d[0][4],))), "stability flags"),
]


def test_tampered_output_counts_as_failed(tmp_path):
    work = tmp_path / "work"
    measured = run.measure_run(tiny("paper-weekly"), 3, 0.2, False, work)
    assert run.results(measured)[1]["failed"] == 0
    pristine = tmp_path / "pristine"
    shutil.copytree(work / "keep", pristine)
    for op, tamper, problem in TAMPER:
        shutil.rmtree(work / "keep")
        shutil.copytree(pristine, work / "keep")
        tamper(work / "keep" / op)
        measured.problems, _ = run.verify(measured.workload, measured.inputs, work / "keep")
        detail, result = run.results(measured)
        assert any(problem in p for p in measured.problems[op]), (op, measured.problems[op])
        assert not result["correct"] and detail["fail_frac"] > 0, op
        samples = len(measured.report["ops"][op]["digests"])
        assert result["failed"] == samples, op


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-weekly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
