"""Benchmark of the tangled-string package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-weekly --seed 1 --seconds 45 --trace 0

Generates the workload's inputs from the seed, runs the operations and
cold starts of the CLI in a child process for ``--seconds`` seconds
(``worker.py``), checks every output, and prints a
detail line and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    DELTAS,
    KEY_EVENTS,
    PLAIN_WINDOW,
    WINDOWS,
    WORKLOADS,
    Inputs,
    Workload,
    generate,
    read_baskets,
    read_plain,
)

ORACLE_PREFIX = 20_000  # plain segment: matches checked against the oracle up to here
# The worker stops its rounds by 2 x --seconds at the latest; this leaves
# room for one sample in flight that overruns that cap.
WORKER_TIMEOUT_FACTOR = 3
WORKER_TIMEOUT_MARGIN_S = 30

END_TO_END = {
    "setup_s": "s",
    "segment_s": "s",
    "segment_events_per_s": "events/s",
    "tangle_json_s": "s",
    "tangle_dot_s": "s",
    "layout_s": "s",
    "sweep_s": "s",
    "eval_s": "s",
    "delay_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_worker(job: dict, work: Path) -> dict:
    job_file = work / "job.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_file)],
        env=_env(), cwd=ROOT, check=True,
        timeout=WORKER_TIMEOUT_FACTOR * job["seconds"] + WORKER_TIMEOUT_MARGIN_S,
    )
    return json.loads(Path(job["report"]).read_text(encoding="utf-8"))


def _windows() -> list[int]:
    low, high = WINDOWS.split("..")
    return list(range(int(low), int(high) + 1))


def verify(workload: Workload, inputs: Inputs, keep: Path) -> tuple[dict[str, list[str]], dict]:
    """Check the kept output of every operation; return problems and shape."""
    from jsonschema import Draft7Validator
    from tangled_string import (
        BASKET, LayoutParams, TangleParams, assign_positions, emit_json, from_baskets,
        schema_text, stretch, tangle,
    )

    baskets, dates = read_baskets(inputs.baskets_csv)
    tokens = [t for b in baskets for t in b]
    basket_of = [k for k, b in enumerate(baskets) for _ in b]
    seq = from_baskets(baskets, dates)
    validator = Draft7Validator(checks.inline_refs(json.loads(schema_text())))
    oracles: dict[int, checks.Oracle] = {}

    def reference(window: int) -> checks.Oracle:
        if window not in oracles:
            oracles[window] = checks.oracle(tokens, basket_of, window, plain=False)
        return oracles[window]

    def document(window: int, layout_iterations: int | None = None) -> str:
        result = tangle(seq, TangleParams(window, BASKET))
        layout = None
        if layout_iterations is not None:
            params = LayoutParams(stretch_iterations=layout_iterations)
            layout = stretch(assign_positions(seq, result, params), params)
        return emit_json(result, layout, key_events=KEY_EVENTS)

    def read(name: str) -> str:
        return (keep / name).read_bytes().decode("utf-8")

    def check_segment():
        record = pickle.loads((keep / "segment").read_bytes())
        shape["segment_pills"] = len(record["pills"])
        shape["segment_change_points"] = len(record["change_points"])
        if not workload.plain_events:
            return checks.check_segment(record, tokens, basket_of, dates, False,
                                        reference(workload.window), len(tokens), KEY_EVENTS)
        plain = read_plain(inputs.plain_txt)
        positions = list(range(len(plain)))
        prefix = min(ORACLE_PREFIX, len(plain))
        ref = checks.oracle(plain[:prefix], positions[:prefix], PLAIN_WINDOW, plain=True)
        return checks.check_segment(record, plain, positions, None, True, ref, prefix, KEY_EVENTS)

    def check_tangle_json():
        ref = reference(workload.window)
        return checks.check_document(read("tangle_json"), document(workload.window), validator, ref)

    def check_tangle_dot():
        return checks.check_dot(read("tangle_dot"), reference(workload.window))

    def check_layout():
        ref = reference(workload.window)
        text = read("layout")
        expected = document(workload.window, workload.stretch_iterations)
        problems = checks.check_document(text, expected, validator, ref)
        return problems or checks.check_layout_groups(text, ref)

    def check_sweep():
        problems = []
        refs = {w: reference(w) for w in _windows()}
        for window, ref in refs.items():
            text = read(f"sweep/tangle_w{window}.json")
            problems += [f"W={window}: {p}" for p in
                         checks.check_document(text, document(window), validator, ref)]
        if read("sweep/sweep_summary.csv") != checks.sweep_summary(refs, len(baskets)):
            problems.append("sweep summary differs from the oracle's pills")
        return problems

    def check_eval():
        refs = {w: reference(w) for w in _windows()}
        pairs = checks.pooled_pair_counts(refs, tokens, basket_of, dates)
        return checks.check_eval(read("eval"), pairs, [float(d) for d in DELTAS.split(",")])

    def check_delay():
        records = pickle.loads((keep / "delay").read_bytes())
        return checks.check_delay(records, reference(workload.window), basket_of,
                                  workload.delay_dt, len(baskets))

    shape = dict(inputs.shape)
    problems = {}
    for op, check in (
        ("segment", check_segment), ("tangle_json", check_tangle_json),
        ("tangle_dot", check_tangle_dot), ("layout", check_layout), ("sweep", check_sweep),
        ("eval", check_eval), ("delay", check_delay),
    ):
        try:
            problems[op] = check()
        except Exception as exc:  # a malformed output must count as a failure, not crash
            problems[op] = [f"check raised {type(exc).__name__}: {exc}"]
    shape["pills_per_window"] = {w: len(reference(w).pills) for w in _windows()}
    shape["groups"] = len(reference(workload.window).groups)
    return problems, shape


def count_failures(report: dict, problems: dict[str, list[str]]) -> tuple[int, int]:
    """Operations attempted and failed.  A sample fails when it raised, when
    its output differs from the kept output, or when the kept output failed
    its checks."""
    attempted = failed = 0
    for op, data in report["ops"].items():
        digests = data["digests"]
        attempted += len(digests)
        kept = next((d for d in digests if d is not None), None)
        for digest in digests:
            if digest is None or digest != kept or problems.get(op):
                failed += 1
    return attempted, failed


def _summary(values: list[float]) -> dict:
    ordered = sorted(values)
    q1, _, q3 = quantiles(ordered, n=4) if len(ordered) > 1 else (ordered[0],) * 3
    return {"n": len(ordered), "median": median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1]}


@dataclass
class Run:
    """Everything one run measured, before it is reported."""

    workload: Workload
    seed: int
    trace: bool
    inputs: Inputs
    report: dict
    peak_rss_mb: float
    problems: dict = field(default_factory=dict)
    shape: dict = field(default_factory=dict)


def measure_run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """Generate the inputs, time the operations and set-up, check the outputs.

    Leaves its files in ``work``: the inputs, and under ``work/keep`` the
    first output of every operation.
    """
    inputs = generate(workload, seed, work / "in")
    job = {
        "workload": asdict(workload),
        "baskets_csv": str(inputs.baskets_csv),
        "prices_csv": str(inputs.prices_csv),
        "plain_txt": str(inputs.plain_txt) if inputs.plain_txt else None,
        "out_dir": str(work / "out"),
        "keep_dir": str(work / "keep"),
        "report": str(work / "report.json"),
        "spans_file": str(work.parent / f"spans-{workload.name}-{seed}.json"),
        "seconds": seconds,
        "trace": trace,
    }
    report = run_worker(job, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run = Run(workload, seed, trace, inputs, report, peak_rss_mb)
    run.problems, run.shape = verify(workload, inputs, work / "keep")
    return run


def results(run: Run) -> tuple[dict, dict]:
    """The detail record and the result line of a run."""
    attempted, failed = count_failures(run.report, run.problems)
    samples = {f"{op}_s": data["walls"] for op, data in run.report["ops"].items()}
    summaries = {name: _summary(values) for name, values in samples.items()}
    end_to_end = {name: s["median"] for name, s in summaries.items()}
    end_to_end["segment_events_per_s"] = run.shape["segment_events"] / end_to_end["segment_s"]
    end_to_end["peak_rss_mb"] = run.peak_rss_mb

    detail = {
        "workload": run.workload.name,
        "seed": run.seed,
        "rounds": run.report["rounds"],
        "measured_s": run.report["measured_s"],
        "shape": run.shape,
        "input_digests": run.inputs.digests,
        "samples": summaries,
        "fail_frac": failed / attempted,
        "problems": {op: p[:5] for op, p in run.problems.items() if p},
        "errors": {op: d["errors"] for op, d in run.report["ops"].items() if d["errors"]},
    }
    if run.trace:
        metrics = run.report["per_layer"]
        detail["trace_accounted_share"] = run.report["accounted"]
        detail["end_to_end_untraced"] = end_to_end
    else:
        metrics = end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return detail, result


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "events/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name == "cli.bytes_written":
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tangled_string" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        run = measure_run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail, result = results(run)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
