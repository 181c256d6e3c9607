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
                {"position": i + 1, "x": x, "y": y}
                for i, (x, y) in enumerate(layout.points[gid] for gid in layout.group_ids)
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
    1-based positions it absorbs.  Each pill becomes a cluster, and the
    wire events follow as plain nodes.  The group holding a pill's
    entrance is red, the one holding its exit green (``red:green`` when
    one group holds both); both are sized by the pill's span relative to
    the longest pill's.  Edges walk the sequence in order.
    """
    tokens = result.sequence.tokens
    groups, group_ids = shared_groups(result)
    longest = max((pill.span for pill in result.pills), default=0)
    # a match never leaves its pill, so only a pill's own entrance and exit mark its groups
    colour: dict[int, str] = {}
    width: dict[int, float] = {}
    for pill in result.pills:
        entrance, exit_ = group_ids[pill.entrance_event], group_ids[pill.exit_event]
        colour[entrance] = "red"
        colour[exit_] = "red:green" if exit_ == entrance else "green"
        width[entrance] = width[exit_] = _NODE_MIN_WIDTH + _NODE_EXTRA_WIDTH * pill.span / longest

    def node(gid: int) -> str:
        group = groups[gid]
        label = f"{tokens[group[0]]} @ {','.join(str(i + 1) for i in group)}"
        attrs = f"label={_quote(label)}"
        if gid in colour:
            size = f"{width[gid]:.3f}"
            attrs += f', fillcolor="{colour[gid]}", width="{size}", height="{size}", fixedsize=true'
        return f"g{gid} [{attrs}];"

    lines = [
        "digraph tangle {",
        "  rankdir=LR;",
        "  node [shape=circle, style=filled, fillcolor=lightgray, fontsize=10];",
    ]
    for number, pill in enumerate(result.pills, start=1):
        lines.append(f"  subgraph cluster_pill_{number} {{")
        lines.append(f"    label={_quote(f'pill {number} (span {pill.span})')};")
        # group ids follow each group's smallest member, so first sight is ascending id
        gids = dict.fromkeys(group_ids[pill.first_event : pill.last_event + 1])
        lines.extend(f"      {node(gid)}" for gid in gids)
        lines.append("  }")
    # a wire event is never revisited, so it is a group of its own
    lines.extend(f"  {node(group_ids[i])}" for i in result.wire_events)
    lines.extend(f"  g{a} -> g{b};" for a, b in zip(group_ids, group_ids[1:]) if a != b)
    lines.append("}")
    return "\n".join(lines) + "\n"
