"""Span recorder for the traced benchmark run.

Wraps the public functions one module of the package imports from
another (``cli.tangle``, ``evaluator.tangle``, ``emit.document_dict``,
...).  The wrappers are installed only inside the traced worker and only
for the duration of one traced sample, so untraced samples run the
unmodified code.  Spans stay in memory; counts are taken from the
recorded arguments and results after the sample, outside its timing.
"""

from __future__ import annotations

import importlib
import time
from statistics import median

# Attribute paths inside the package.  A module-level name is patched in
# the module that imported it, so each call site gets its own span name.
PATCHED = (
    "cli.cli_main",
    "cli.parse_baskets",
    "cli.parse_prices",
    "cli.tangle",
    "cli.sweep",
    "cli.assign_positions",
    "cli.stretch",
    "cli.emit_json",
    "cli.emit_dot",
    "cli.coincidence_table",
    "ingest.BasketSequence",
    "sequence.from_plain",
    "sequence.from_baskets",
    "sequence.BasketSequence.prefix",
    "tangler.tangle",
    "tangler.change_points",
    "tangler.key_pill_events",
    "tangler.key_wire_events",
    "emit.document_dict",
    "emit.key_pill_events",
    "emit.key_wire_events",
    "evaluator.tangle",
    "evaluator.change_points",
    "evaluator.tolerant_delay_check",
)

# Layer of a span, by the name of the function it wraps.  ``cli`` and
# ``bench`` hold the self time of the CLI entry point and of the
# benchmark's own glue around each operation.
LAYER_OF = {
    "cli_main": "cli",
    "parse_baskets": "ingest.parse_baskets",
    "parse_prices": "ingest.parse_prices",
    "BasketSequence": "sequence.build",
    "prefix": "sequence.build",
    "from_plain": "sequence.build",
    "from_baskets": "sequence.build",
    "tangle": "tangler.scan",
    "sweep": "tangler.scan",
    "change_points": "tangler.extract",
    "key_pill_events": "tangler.extract",
    "key_wire_events": "tangler.extract",
    "assign_positions": "layout.assign",
    "stretch": "layout.relax",
    "document_dict": "emit.document",
    "emit_json": "emit.serialize",
    "emit_dot": "emit.dot",
    "coincidence_table": "evaluator.coincidence",
    "tolerant_delay_check": "evaluator.delay",
}

TIME_METRICS = (
    "ingest.parse_prices_s",
    "ingest.parse_baskets_s",
    "sequence.build_s",
    "tangler.scan_s",
    "tangler.extract_s",
    "layout.assign_s",
    "layout.relax_s",
    "emit.document_s",
    "emit.serialize_s",
    "emit.dot_s",
    "evaluator.coincidence_s",
    "evaluator.delay_s",
    "cli.self_s",
)

COUNT_METRICS = (
    "ingest.price_rows",
    "ingest.basket_rows",
    "sequence.events",
    "tangler.scan_calls",
    "tangler.scanned_events",
    "tangler.matches",
    "tangler.pills",
    "tangler.change_points",
    "layout.groups",
    "layout.relax_pairs",
    "emit.json_bytes",
    "emit.dot_bytes",
    "evaluator.pairs",
    "evaluator.delay_scanned_events",
    "cli.bytes_written",
)


def _counts(func: str, args: tuple, result, in_delay: bool) -> dict[str, int]:
    if func == "parse_baskets":
        return {"ingest.basket_rows": result.basket_count}
    if func == "parse_prices":
        return {"ingest.price_rows": sum(len(result.observations(s)) for s in result.symbols)}
    if LAYER_OF.get(func) == "sequence.build":
        return {"sequence.events": len(result)}
    if func == "tangle":
        scanned = len(result.sequence)
        counts = {
            "tangler.scan_calls": 1,
            "tangler.scanned_events": scanned,
            "tangler.matches": len(result.matches),
            "tangler.pills": len(result.pills),
        }
        if in_delay:
            counts["evaluator.delay_scanned_events"] = scanned
        return counts
    if func == "change_points":
        return {"tangler.change_points": len(result)}
    if func == "assign_positions":
        return {"layout.groups": len(result.shared_position_groups)}
    if func == "stretch":
        groups = len(args[0].shared_position_groups)
        return {"layout.relax_pairs": groups * (groups - 1) // 2 * args[1].stretch_iterations}
    if func == "emit_json":
        return {"emit.json_bytes": len(result.encode("utf-8"))}
    if func == "emit_dot":
        return {"emit.dot_bytes": len(result.encode("utf-8"))}
    if func == "coincidence_table":
        return {"evaluator.pairs": sum(result.pair_counts.values())}
    if func == "tolerant_delay_check":
        return {"evaluator.delay_input_events": len(args[0])}
    return {}


class Tracer:
    """Records spans ``[name, start, end, parent, args, result]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, args, None]
        self.spans.append(record)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            record[1] = start
            self._stack.pop()
        record[5] = result
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for path in PATCHED:
            module_name, *attrs = path.split(".")
            owner = importlib.import_module(f"tangled_string.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            self._saved.append((owner, attrs[-1], original))
            setattr(owner, attrs[-1], self._wrap(path, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summarize(self, first: int) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time per layer and counts of the spans from ``first`` on.

        Drops the recorded arguments and results once counted.  Returns
        (layer -> self seconds, counter -> count, root span seconds).
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for record in spans:
            if record[3] >= first:
                child_time[record[3] - first] += record[2] - record[1]
        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        root = 0.0
        for offset, record in enumerate(spans):
            name, start, end, parent, args, result = record
            duration = end - start
            func = name.rsplit(".", 1)[1]
            layer = LAYER_OF.get(func, "bench")
            times[layer] = times.get(layer, 0.0) + duration - child_time[offset]
            if parent < first:
                root += duration
            in_delay = False
            while parent >= first and not in_delay:
                in_delay = self.spans[parent][0].endswith("tolerant_delay_check")
                parent = self.spans[parent][3]
            for key, value in _counts(func, args, result, in_delay).items():
                counts[key] = counts.get(key, 0) + value
            record[4] = record[5] = None
        return times, counts, root

    def dump(self) -> list[tuple]:
        return [(name, start, end, parent) for name, start, end, parent, *_ in self.spans]


def layer_metrics(per_op: dict[str, dict]) -> dict[str, float]:
    """Fold per-operation traced samples into one cycle's per-layer metrics.

    ``per_op[op]`` holds ``times`` (list of layer->seconds per traced
    sample), ``counts`` (one sample's counters, which are deterministic),
    ``traced`` and ``untraced`` wall times and ``bytes_written``.
    """
    times = {m: 0.0 for m in TIME_METRICS}
    counts = {m: 0 for m in COUNT_METRICS}
    delay_input = 0
    traced = untraced = 0.0
    for data in per_op.values():
        layers = {layer for sample in data["times"] for layer in sample}
        for layer in layers:
            key = f"{layer}_s" if layer != "cli" else "cli.self_s"
            if key in times:
                times[key] += median(sample.get(layer, 0.0) for sample in data["times"])
        for key, value in data["counts"].items():
            if key == "evaluator.delay_input_events":
                delay_input += value
            else:
                counts[key] += value
        counts["cli.bytes_written"] += data["bytes_written"]
        traced += median(data["traced"])
        untraced += median(data["untraced"])
    metrics: dict[str, float] = {**times, **counts}
    metrics["tangler.scan_events_per_s"] = (
        counts["tangler.scanned_events"] / times["tangler.scan_s"] if times["tangler.scan_s"] else 0.0
    )
    metrics["evaluator.delay_rescan_ratio"] = (
        counts["evaluator.delay_scanned_events"] / delay_input if delay_input else 0.0
    )
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics
