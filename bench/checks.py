"""Output checks for the benchmark, run after the timed region.

The oracle follows the semantics of ``tests/naive_reference.py`` but is
the benchmark's own copy, so a change under ``tests/`` cannot change what
the benchmark accepts: matches come from a literal scan of every window,
pills from a sort-and-sweep union of the match intervals, weights and
shared-position groups from the match list.  Each ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import re
from dataclasses import dataclass

ENTRANCE, EXIT = "entrance", "exit"


# ------------------------------------------------------------------ oracle


@dataclass
class Oracle:
    matches: list[tuple[int, int]]
    pills: list[tuple[int, int, int, int]]  # (first, last, entrance, exit)
    groups: list[tuple[int, ...]]


def _basket_bounds(basket_of: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    first, last = {}, {}
    for i, b in enumerate(basket_of):
        first.setdefault(b, i)
        last[b] = i
    return first, last


def oracle_matches(tokens: list[str], basket_of: list[int], window: int, plain: bool):
    """Every (earlier, later) hit, found by scanning the whole window."""
    matches = []
    for i, token in enumerate(tokens):
        found = None
        if plain:
            for j in range(max(0, i - window), i):
                if tokens[j] == token:
                    found = j
                    break
        else:
            lowest = basket_of[i] - window + 1
            j = i - 1
            while j >= 0 and basket_of[j] >= lowest:
                if tokens[j] == token:
                    found = j
                j -= 1
        if found is not None:
            matches.append((found, i))
    return matches


def pills_from_matches(matches, basket_of: list[int], plain: bool):
    """Union of the match intervals (basket-aligned unless plain)."""
    first, last = _basket_bounds(basket_of)
    intervals = []
    for order, (j, i) in enumerate(matches):
        if plain:
            intervals.append((j, i, order))
        else:
            intervals.append((first[basket_of[j]], last[basket_of[i]], order))
    intervals.sort()
    pills = []
    low = high = None
    orders: list[int] = []
    for lo, hi, order in intervals + [(None, None, None)]:
        if lo is not None and high is not None and lo <= high:
            high = max(high, hi)
            orders.append(order)
            continue
        if high is not None:
            pills.append((low, high, matches[min(orders)][0], matches[max(orders)][1]))
        low, high, orders = lo, hi, [order]
    return pills


def groups_from_matches(matches, length: int) -> list[tuple[int, ...]]:
    """Connected components of the match graph, ordered by smallest member."""
    parent = list(range(length))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, i in matches:
        a, b = find(j), find(i)
        if a != b:
            parent[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for i in range(length):
        members.setdefault(find(i), []).append(i)
    return [tuple(members[root]) for root in sorted(members)]


def oracle(tokens, basket_of, window: int, plain: bool) -> Oracle:
    matches = oracle_matches(tokens, basket_of, window, plain)
    return Oracle(
        matches=matches,
        pills=pills_from_matches(matches, basket_of, plain),
        groups=groups_from_matches(matches, len(tokens)),
    )


def change_point_order(pills, basket_of) -> list[tuple[int, str, int]]:
    """(event, role, basket) for every entrance and exit, in basket order."""
    points = []
    for _, _, entrance, exit_ in pills:
        points.append((entrance, ENTRANCE, basket_of[entrance]))
        points.append((exit_, EXIT, basket_of[exit_]))
    points.sort(key=lambda p: (p[2], p[0]))
    return points


# -------------------------------------------------------------- invariants


def check_invariants(rec: dict, length: int, basket_of: list[int], plain: bool) -> list[str]:
    """Partition, span law and weight reconciliation of one tangle result."""
    problems = []
    pills, matches = rec["pills"], rec["matches"]
    first, last = _basket_bounds(basket_of)
    covered = 0
    previous_last = -1
    for f, l, entrance, exit_ in pills:
        if not previous_last < f < l or not f <= entrance < exit_ <= l:
            problems.append(f"pill {(f, l, entrance, exit_)} breaks order or span law")
            break
        if not plain and (first[basket_of[f]] != f or last[basket_of[l]] != l):
            problems.append(f"pill {(f, l)} is not basket aligned")
            break
        covered += l - f + 1
        previous_last = l
    wire = rec["wire_events"]
    in_pill = {i for f, l, *_ in pills for i in range(f, l + 1)}
    if covered + len(wire) != length or in_pill.intersection(wire) or wire != sorted(wire):
        problems.append("pills and wire do not partition the events")
    expected_wire = {}
    for f, l, entrance, exit_ in pills:
        expected_wire[entrance] = expected_wire[exit_] = l - f
    if dict(rec["wire_weight"]) != expected_wire:
        problems.append("wire weight is not the span on each entrance and exit")
    expected_pill: dict[int, int] = {}
    for j, i in matches:
        expected_pill[j] = expected_pill.get(j, 0) + (i - j)
    if dict(rec["pill_weight"]) != expected_pill:
        problems.append("pill weights do not reconcile with the matches")
    if pills != pills_from_matches(matches, basket_of, plain):
        problems.append("pills are not the union of the match intervals")
    return problems


def _top(weights, k):
    return sorted(weights, key=lambda item: (-item[1], item[0]))[:k]


def check_segment(rec: dict, tokens, basket_of, labels, plain, reference, prefix, k) -> list[str]:
    """A segment output against the oracle and the invariants.

    ``reference`` is the oracle of the first ``prefix`` events (all of
    them when ``prefix`` is the full length); matches whose later event
    falls in that prefix must equal the oracle's.
    """
    problems = check_invariants(rec, len(tokens), basket_of, plain)
    got = [m for m in rec["matches"] if m[1] < prefix] if prefix < len(tokens) else rec["matches"]
    if got != reference.matches:
        problems.append("matches differ from the oracle")
    if prefix >= len(tokens) and rec["pills"] != reference.pills:
        problems.append("pills differ from the oracle")
    expected_cps = [
        (event, tokens[event], role, basket, labels[basket] if labels else None)
        for event, role, basket in change_point_order(rec["pills"], basket_of)
    ]
    if rec["change_points"] != expected_cps:
        problems.append("change points are not one entrance and one exit per pill")
    key_pill = [(i, tokens[i], w, r + 1) for r, (i, w) in enumerate(_top(rec["pill_weight"], k))]
    roles = {}
    for _, _, entrance, exit_ in rec["pills"]:
        roles[entrance], roles[exit_] = ENTRANCE, EXIT
    key_wire = [
        (i, tokens[i], w, r + 1, roles[i]) for r, (i, w) in enumerate(_top(rec["wire_weight"], k))
    ]
    if rec["key_pill"] != key_pill or rec["key_wire"] != key_wire:
        problems.append("key events are not the heaviest events")
    return problems


# ------------------------------------------------------------------ schema


def inline_refs(schema: dict) -> dict:
    """The schema with every local ``$ref`` replaced by its definition.

    jsonschema resolves a ``$ref`` again for every item it validates;
    inlined, a 17,760-event document validates in 1.5 s instead of 2.8 s,
    and a ``scale`` run validates six of them.  Draft-07 ignores the
    siblings of a ``$ref``, and so does this.  The shipped schema has no
    recursive definitions; one would raise RecursionError here.
    """
    definitions = schema.get("definitions", {})

    def inline(node):
        if isinstance(node, dict):
            if "$ref" in node:
                return inline(definitions[node["$ref"].removeprefix("#/definitions/")])
            return {key: inline(value) for key, value in node.items() if key != "definitions"}
        if isinstance(node, list):
            return [inline(value) for value in node]
        return node

    return inline(schema)


# ------------------------------------------------------------ CLI outputs


def check_document(text: str, expected: str, validator, reference: Oracle) -> list[str]:
    """A JSON document: valid under ``validator`` (a jsonschema validator
    of the shipped schema), equal to a direct library run, and carrying
    the oracle's matches and pills."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    for error in validator.iter_errors(document):
        return [f"schema: {error.message}"]
    problems = []
    if text != expected:
        problems.append("document differs from a direct library run")
    if [(m["earlier"] - 1, m["later"] - 1) for m in document["matches"]] != reference.matches:
        problems.append("document matches differ from the oracle")
    pills = [
        (p["first"] - 1, p["last"] - 1, p["entrance"]["position"] - 1, p["exit"]["position"] - 1)
        for p in document["pills"]
    ]
    if pills != reference.pills:
        problems.append("document pills differ from the oracle")
    return problems


_NODE = re.compile(r'^\s*g(\d+) \[label="(.*) @ ([\d,]+)"')


def check_dot(text: str, reference: Oracle) -> list[str]:
    """One node per shared-position group and one cluster per pill."""
    problems = []
    groups = []
    for line in text.splitlines():
        found = _NODE.match(line)
        if found:
            groups.append(tuple(int(p) - 1 for p in found.group(3).split(",")))
    if sorted(groups) != sorted(reference.groups):
        problems.append(f"{len(groups)} nodes for {len(reference.groups)} shared-position groups")
    clusters = text.count("subgraph cluster_pill_")
    if clusters != len(reference.pills):
        problems.append(f"{clusters} clusters for {len(reference.pills)} pills")
    if not text.startswith("digraph tangle {") or not text.rstrip().endswith("}"):
        problems.append("not a DOT digraph")
    return problems


def check_layout_groups(text: str, reference: Oracle) -> list[str]:
    groups = json.loads(text)["layout"]["groups"]
    expected = [[i + 1 for i in group] for group in reference.groups]
    return [] if groups == expected else ["layout groups are not the match components"]


def sweep_summary(references: dict[int, Oracle], basket_count: int) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["window", "pill_count", "mean_span", "time_resolution"])
    for window in sorted(references):
        pills = references[window].pills
        if pills:
            mean_span = sum(p[1] - p[0] for p in pills) / len(pills)
            writer.writerow([window, len(pills), f"{mean_span:.3f}",
                             f"{basket_count / len(pills):.3f}"])
        else:
            writer.writerow([window, 0, "", ""])
    return buffer.getvalue()


def pooled_pair_counts(references: dict[int, Oracle], tokens, basket_of, labels) -> dict[str, int]:
    """Distinct (token, date) pairs per role over the pooled windows."""
    pooled = {ENTRANCE: set(), EXIT: set()}
    for reference in references.values():
        for event, role, basket in change_point_order(reference.pills, basket_of):
            pooled[role].add((tokens[event], labels[basket]))
    return {role: len(pairs) for role, pairs in pooled.items()}


def check_eval(text: str, pairs: dict[str, int], deltas: list[float]) -> list[str]:
    """Every cell reconciles with the pooled pair counts."""
    try:
        table = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    problems = []
    if table["pairs"] != pairs:
        problems.append(f"pairs {table['pairs']} differ from the oracle's {pairs}")
    cells = table["cells"]
    if sorted((c["role"], c["delta_months"]) for c in cells) != sorted(
        (role, d) for role in pairs for d in deltas
    ):
        problems.append("cells do not cover every role and horizon")
    for c in cells:
        if c["evaluated"] + c["dropped"] != table["pairs"][c["role"]]:
            problems.append(f"{c['role']} {c['delta_months']}: evaluated + dropped != pairs")
        if c["decrease"] + c["increase"] + c["flat"] != c["evaluated"]:
            problems.append(f"{c['role']} {c['delta_months']}: outcomes != evaluated")
        if not 0 <= c["increase_gt_sigma"] <= c["increase"]:
            problems.append(f"{c['role']} {c['delta_months']}: sigma count out of range")
    return problems


def check_delay(records, reference: Oracle, basket_of, dt: int, basket_count: int) -> list[str]:
    """One record per full-run change point, each cut after t + dt baskets,
    flagged stable exactly when the cut run reports it.

    The oracle scan is causal, so a cut run's matches are the full run's
    matches whose later event lies before the cut.
    """
    points = change_point_order(reference.pills, basket_of)
    expected = [
        (event, role, basket, min(basket + dt + 1, basket_count)) for event, role, basket in points
    ]
    got = [tuple(r[:4]) for r in records]
    if got != expected:
        return [f"{len(got)} delay records do not match {len(expected)} change points"]
    later_baskets = [basket_of[i] for _, i in reference.matches]
    reported: dict[int, set[tuple[int, str]]] = {}
    for *_, cut in expected:
        if cut not in reported:
            kept = reference.matches[: bisect.bisect_left(later_baskets, cut)]
            pills = pills_from_matches(kept, basket_of, plain=False)
            reported[cut] = {(event, role) for event, role, _ in change_point_order(pills, basket_of)}
    flags = [(event, role) in reported[cut] for event, role, _, cut in expected]
    if [r[4] for r in records] != flags or not all(isinstance(r[4], bool) for r in records):
        return ["stability flags differ from the oracle's cut runs"]
    return []
