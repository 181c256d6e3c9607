"""Renderers: a self-contained JSON document and a DOT graph.

Positions in everything written out are 1-based; indices inside the
library stay 0-based.  Output is deterministic byte for byte: keys are
sorted, ordering is fixed, and no locale-dependent formatting is used.
"""

from __future__ import annotations

import json
from importlib import resources

from .layout import LayoutResult, shared_groups
from .tangler import TangleResult, _top_k, key_pill_events, key_wire_events

SCHEMA_VERSION = 1
DEFAULT_KEY_EVENTS = 10
TOP_MEMBERS = 5

_NODE_MIN_WIDTH = 0.4
_NODE_EXTRA_WIDTH = 0.8


def schema_text() -> str:
    """The JSON schema the emitted documents validate against."""
    return (
        resources.files("tangled_string")
        .joinpath("schema/tangle_document.schema.json")
        .read_text(encoding="utf-8")
    )


def document_dict(
    result: TangleResult,
    layout: LayoutResult | None = None,
    key_events: int = DEFAULT_KEY_EVENTS,
) -> dict:
    """The document as a plain dict (see :func:`emit_json`)."""
    seq = result.sequence
    tokens, basket_of, labels = seq.tokens, seq.basket_membership, seq.time_labels

    def event_ref(index: int) -> dict:
        return {
            "position": index + 1,
            "token": tokens[index],
            "date": labels[basket_of[index]],
        }

    events = [
        {"position": i + 1, "token": token, "basket": basket + 1, "date": labels[basket]}
        for i, (token, basket) in enumerate(zip(tokens, basket_of))
    ]

    pills = []
    for number, pill in enumerate(result.pills, start=1):
        weighted = {
            index: result.pill_weight[index]
            for index in pill.members
            if index in result.pill_weight
        }
        pills.append(
            {
                "index": number,
                "first": pill.first_event + 1,
                "last": pill.last_event + 1,
                "span": pill.span,
                "entrance": event_ref(pill.entrance_event),
                "exit": event_ref(pill.exit_event),
                "top_members": [
                    {"position": index + 1, "token": tokens[index], "weight": weight}
                    for index, weight in _top_k(weighted, TOP_MEMBERS)
                ],
            }
        )

    def key_event_dict(entry) -> dict:
        payload = {
            "position": entry.event_index + 1,
            "token": entry.token,
            "weight": entry.weight,
            "rank": entry.rank,
        }
        if entry.role is not None:
            payload["role"] = entry.role
        return payload

    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {"window": result.params.window_w, "variant": result.params.variant},
        "length": len(seq),
        "baskets": seq.basket_count,
        "events": events,
        "matches": [
            {"earlier": j + 1, "later": i + 1} for i, j in enumerate(result.earlier) if j >= 0
        ],
        "pills": pills,
        "wire_events": [i + 1 for i in result.wire_events],
        "key_events": {
            "in_pill": [key_event_dict(e) for e in key_pill_events(result, key_events)],
            "on_wire": [key_event_dict(e) for e in key_wire_events(result, key_events)],
        },
    }
    if layout is not None:
        doc["layout"] = {
            "positions": [
                {
                    "position": i + 1,
                    "x": layout.positions[i][0],
                    "y": layout.positions[i][1],
                }
                for i in range(len(seq))
            ],
            "groups": [
                [member + 1 for member in group]
                for group in layout.shared_position_groups
            ],
        }
    return doc


def emit_json(
    result: TangleResult,
    layout: LayoutResult | None = None,
    key_events: int = DEFAULT_KEY_EVENTS,
) -> str:
    """Render ``result`` (optionally with coordinates) as a JSON document.

    Self-contained: the document carries every event, so re-rendering
    needs no access to the original input file.
    """
    return json_text(document_dict(result, layout, key_events))


def json_text(data) -> str:
    """The one JSON format of every written file: sorted keys, two-space
    indent, a trailing newline, and no ``NaN`` or ``Infinity``."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(result: TangleResult) -> str:
    """Render the tangle as a DOT digraph.

    One node per shared-position group, labelled with the token and the
    1-based positions it absorbs.  Entrances are red, exits green, both
    gradient-filled; entrance/exit nodes are sized by wire weight.  Edges
    walk the sequence in order; each pill becomes a cluster.
    """
    tokens = result.sequence.tokens
    groups, group_ids = shared_groups(result)
    entrances = {pill.entrance_event for pill in result.pills}
    exits = {pill.exit_event for pill in result.pills}
    max_weight = max(result.wire_weight.values(), default=0)

    def node_attrs(gid: int) -> str:
        group = groups[gid]
        label = f"{tokens[group[0]]} @ {','.join(str(i + 1) for i in group)}"
        attrs = [f"label={_quote(label)}"]
        has_entrance = any(member in entrances for member in group)
        has_exit = any(member in exits for member in group)
        if has_entrance and has_exit:
            attrs.append('fillcolor="red:green"')
        elif has_entrance:
            attrs.append('fillcolor="red"')
        elif has_exit:
            attrs.append('fillcolor="green"')
        weight = max(result.wire_weight.get(member, 0) for member in group)
        if weight and max_weight:
            width = _NODE_MIN_WIDTH + _NODE_EXTRA_WIDTH * weight / max_weight
            attrs.append(f'width="{width:.3f}"')
            attrs.append(f'height="{width:.3f}"')
            attrs.append("fixedsize=true")
        return ", ".join(attrs)

    # a match never leaves its pill, so a group lies in the pill of its first member
    number_of = {pill: number for number, pill in enumerate(result.pills)}
    in_pill: list[list[int]] = [[] for _ in result.pills]
    on_wire: list[int] = []
    for gid, group in enumerate(groups):
        pill = result.pill_of(group[0])
        (on_wire if pill is None else in_pill[number_of[pill]]).append(gid)

    lines = [
        "digraph tangle {",
        "  rankdir=LR;",
        "  node [shape=circle, style=filled, fillcolor=lightgray, fontsize=10];",
    ]
    for number, (pill, gids) in enumerate(zip(result.pills, in_pill), start=1):
        lines.append(f"  subgraph cluster_pill_{number} {{")
        lines.append(f"    label={_quote(f'pill {number} (span {pill.span})')};")
        lines.extend(f"      g{gid} [{node_attrs(gid)}];" for gid in gids)
        lines.append("  }")
    lines.extend(f"  g{gid} [{node_attrs(gid)}];" for gid in on_wire)
    lines.extend(f"  g{a} -> g{b};" for a, b in zip(group_ids, group_ids[1:]) if a != b)
    lines.append("}")
    return "\n".join(lines) + "\n"
