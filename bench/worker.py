"""Timed half of one benchmark run; ``run.py`` starts it as a child process.

Usage: ``python bench/worker.py JOB.json`` with the package on PYTHONPATH.
The job names the workload, the input files, the output directory, the
seconds to measure and whether to trace.  The worker runs the workload's
operations, and the cold start of the CLI, in rounds until the time is
used, so that all of them see the same drift of the host's speed; it
records every sample's wall
time and output digest, keeps the first output of each operation for the
checks in ``run.py``, and writes its results next to the job file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tangled_string import cli, evaluator, sequence, tangler
from tangled_string.tangler import BASKET, PLAIN, TangleParams

from tracing import Tracer, layer_metrics
from workloads import (
    DELTAS, KEY_EVENTS, PLAIN_WINDOW, WINDOWS, Workload, read_baskets, read_plain,
)

# Inside a round an operation repeats until it has run for this share of
# the measured seconds, so that fast operations collect many samples.
SLOT_SHARE = 0.02
MIN_ROUNDS = 2
# Past this many times the measured seconds no new slot starts, even if
# fewer than MIN_ROUNDS rounds are done, so a slowed-down operation still
# ends in a report.
HARD_CAP_FACTOR = 2
SETUP_CODE = "import tangled_string.cli as cli; cli.build_parser()"


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if file.is_file():
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    return path.stat().st_size


def segment_record(result, cps, key_pill, key_wire) -> dict:
    """Plain-data form of a segment output, as the checks read it."""
    return {
        "matches": [(m.earlier, m.later) for m in result.matches],
        "pills": [(p.first_event, p.last_event, p.entrance_event, p.exit_event) for p in result.pills],
        "wire_events": list(result.wire_events),
        "pill_weight": sorted(result.pill_weight.items()),
        "wire_weight": sorted(result.wire_weight.items()),
        "change_points": [(c.event_index, c.token, c.role, c.basket_index, c.time_label) for c in cps],
        "key_pill": [(k.event_index, k.token, k.weight, k.rank) for k in key_pill],
        "key_wire": [(k.event_index, k.token, k.weight, k.rank, k.role) for k in key_wire],
    }


def delay_record(records) -> list[tuple]:
    return [
        (r.change_point.event_index, r.change_point.role, r.change_point.basket_index,
         r.prefix_baskets, r.stable)
        for r in records
    ]


class SetupOp:
    """Cold start: a fresh interpreter imports the package and builds the CLI parser."""

    name = "setup"
    traced = False  # its work happens in another process

    def run(self):
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)

    def digest(self, _result) -> str:
        return "exit 0"

    def keep(self, _result, _dest: Path):
        pass

    def bytes_written(self) -> int:
        return 0


class CliOp:
    """One CLI command run in-process through ``cli_main``, files to files."""

    traced = True

    def __init__(self, name: str, argv: list[str], output: Path):
        self.name, self.argv, self.output = name, argv, output

    def run(self):
        code = cli.cli_main(self.argv)
        if code != 0:
            raise RuntimeError(f"{self.name}: exit code {code}")
        return None

    def digest(self, _result) -> str:
        return _file_digest(self.output)

    def keep(self, _result, dest: Path):
        if self.output.is_dir():
            shutil.copytree(self.output, dest)
        else:
            shutil.copyfile(self.output, dest)

    def bytes_written(self) -> int:
        return _size(self.output)


class LibraryOp:
    """A library call on in-memory input; its output is kept as plain data."""

    traced = True

    def __init__(self, name: str, call, record):
        self.name, self.call, self.record = name, call, record

    def run(self):
        return self.call()

    def digest(self, result) -> str:
        return hashlib.sha256(pickle.dumps(self.record(result), protocol=5)).hexdigest()

    def keep(self, result, dest: Path):
        dest.write_bytes(pickle.dumps(self.record(result), protocol=5))

    def bytes_written(self) -> int:
        return 0


def build_ops(job: dict) -> list:
    workload = Workload(**job["workload"])
    baskets_csv, prices_csv = job["baskets_csv"], job["prices_csv"]
    out = Path(job["out_dir"])
    window = str(workload.window)
    file_args = ["--input", baskets_csv]

    baskets, dates = read_baskets(Path(baskets_csv))
    params = TangleParams(workload.window, BASKET)
    if workload.plain_events:
        tokens = read_plain(Path(job["plain_txt"]))
        segment_params = TangleParams(PLAIN_WINDOW, PLAIN)

        def build():
            return sequence.from_plain(tokens)
    else:
        segment_params = params

        def build():
            return sequence.from_baskets(baskets, dates)

    def segment():
        result = tangler.tangle(build(), segment_params)
        cps = tangler.change_points(result)
        return (result, cps, tangler.key_pill_events(result, KEY_EVENTS),
                tangler.key_wire_events(result, KEY_EVENTS))

    delay_seq = sequence.from_baskets(baskets, dates)

    def delay():
        return evaluator.tolerant_delay_check(delay_seq, params, workload.delay_dt)

    return [
        SetupOp(),
        LibraryOp("segment", segment, lambda r: segment_record(*r)),
        CliOp("tangle_json", ["tangle", *file_args, "--window", window,
                              "--out", str(out / "tangle.json")], out / "tangle.json"),
        CliOp("tangle_dot", ["tangle", *file_args, "--window", window, "--format", "dot",
                             "--out", str(out / "tangle.dot")], out / "tangle.dot"),
        CliOp("layout", ["layout", *file_args, "--window", window, "--stretch-iterations",
                         str(workload.stretch_iterations), "--out", str(out / "layout.json")],
              out / "layout.json"),
        CliOp("sweep", ["sweep", *file_args, "--windows", WINDOWS, "--out-dir", str(out / "sweep")],
              out / "sweep"),
        CliOp("eval", ["eval", "--input", baskets_csv, "--prices", prices_csv, "--windows", WINDOWS,
                       "--deltas", DELTAS, "--format", "json", "--out", str(out / "eval.json")],
              out / "eval.json"),
        LibraryOp("delay", delay, delay_record),
    ]


class Measurement:
    """Samples of one operation: wall times, digests, failures, trace data."""

    def __init__(self, op, keep_dir: Path):
        self.op, self.keep_dir = op, keep_dir
        self.walls: list[float] = []
        self.digests: list[str | None] = []
        self.errors: list[str] = []
        self.traced: list[float] = []
        self.layer_times: list[dict] = []
        self.counts: dict | None = None
        self.accounted: list[float] = []
        self.bytes_written = 0
        self.kept: str | None = None

    def sample(self, tracer: Tracer | None):
        gc.collect()
        result, error = None, None
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.op.run()
            else:
                result = tracer.span(f"bench.{self.op.name}", self.op.run)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is None:
            self.walls.append(wall)
        else:
            tracer.uninstall()
            times, counts, root = tracer.summarize(first)
            self.traced.append(wall)
            self.layer_times.append(times)
            self.counts = counts
            self.accounted.append(root / wall)
        if error is not None:
            self.errors.append(error)
            self.digests.append(None)
            return
        digest = self.op.digest(result)
        if self.kept is None:
            self.op.keep(result, self.keep_dir / self.op.name)
            self.kept = digest
            self.bytes_written = self.op.bytes_written()
        self.digests.append(digest)


def measure(ops: list, seconds: float, keep_dir: Path, tracer: Tracer | None) -> dict:
    measurements = [Measurement(op, keep_dir) for op in ops]
    slot = seconds * SLOT_SHARE
    started = time.perf_counter()
    deadline = started + seconds
    hard_cap = started + HARD_CAP_FACTOR * seconds

    def done(rounds: int) -> bool:
        # after one full round, stop at the first slot past the deadline
        # once MIN_ROUNDS rounds are done, or past the hard cap
        now = time.perf_counter()
        return rounds >= 1 and now >= deadline and (rounds >= MIN_ROUNDS or now >= hard_cap)

    rounds = 0
    while not done(rounds):
        # each round starts one operation later, so the round cut at the
        # deadline does not always cut the same operations short
        start = rounds % len(measurements)
        for m in measurements[start:] + measurements[:start]:
            if done(rounds):
                break
            op_start = time.perf_counter()
            while True:
                m.sample(None)
                if tracer is not None and m.op.traced:
                    m.sample(tracer)
                if time.perf_counter() - op_start >= slot:
                    break
        rounds += 1
    report = {
        "rounds": rounds,
        "measured_s": time.perf_counter() - started,
        "ops": {
            m.op.name: {
                "walls": m.walls,
                "traced": m.traced,
                "digests": m.digests,
                "errors": m.errors[:5],
            }
            for m in measurements
        },
    }
    if tracer is not None:
        traced = [m for m in measurements if m.op.traced]
        report["per_layer"] = layer_metrics({
            m.op.name: {
                "times": m.layer_times,
                "counts": m.counts or {},
                "traced": m.traced,
                "untraced": m.walls,
                "bytes_written": m.bytes_written,
            }
            for m in traced
        })
        report["accounted"] = {m.op.name: min(m.accounted) for m in traced}
    return report


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    keep_dir = Path(job["keep_dir"])
    keep_dir.mkdir(parents=True, exist_ok=True)
    Path(job["out_dir"]).mkdir(parents=True, exist_ok=True)
    ops = build_ops(job)
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, which would otherwise land at random in the samples
    gc.collect()
    gc.freeze()
    tracer = Tracer() if job["trace"] else None
    report = measure(ops, job["seconds"], keep_dir, tracer)
    if tracer is not None:
        Path(job["spans_file"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
