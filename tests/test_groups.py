"""Shared-position groups against an independent union-find oracle.

The library derives groups in one forward pass over the match forest.
The oracle here joins the two ends of every match with a union-find, so
it assumes nothing about the order or shape of the match list.
"""

import pytest

from tangled_string import (
    BASKET,
    ENTRANCE,
    EXIT,
    PLAIN,
    TangleParams,
    assign_positions,
    emit_dot,
    key_wire_events,
    tangle,
)
from tangled_string.emit import _NODE_EXTRA_WIDTH, _NODE_MIN_WIDTH

from dot_checker import parse_dot
from seqgen import random_case


def union_find_groups(length: int, matches) -> tuple[tuple[int, ...], ...]:
    """Connected components of the match graph, ordered by smallest member."""
    parent = list(range(length))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in matches:
        ra, rb = find(m.earlier), find(m.later)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    members: dict[int, list[int]] = {}
    for i in range(length):
        members.setdefault(find(i), []).append(i)
    return tuple(tuple(members[root]) for root in sorted(members))


def dot_groups(text: str) -> dict[str, tuple[int, ...]]:
    """0-based members of every DOT node, read back from its label."""
    graph = parse_dot(text)
    return {
        name: tuple(int(p) - 1 for p in node.attrs["label"].rsplit(" @ ", 1)[1].split(","))
        for name, node in graph.nodes.items()
    }


@pytest.mark.parametrize("variant", [PLAIN, BASKET])
def test_groups_equal_union_find_components(variant):
    for seed in range(150):
        seq, params = random_case(seed)
        result = tangle(seq, TangleParams(params.window_w, variant))
        context = (seed, params.window_w, variant, len(seq))
        laters = [m.later for m in result.matches]
        assert all(a < b for a, b in zip(laters, laters[1:])), context

        expected = union_find_groups(len(seq), result.matches)
        layout = assign_positions(seq, result)
        assert layout.shared_position_groups == expected, context
        for group in expected:
            for member in group:
                assert layout.shared_position_groups[layout.group_ids[member]] == group, context
        assert sorted(dot_groups(emit_dot(result)).values()) == sorted(expected), context


def test_dot_clusters_hold_exactly_their_pills_groups():
    for seed in range(40):
        seq, params = random_case(seed)
        result = tangle(seq, params)
        text = emit_dot(result)
        graph, members = parse_dot(text), dot_groups(text)
        clustered = set()
        for pill, subgraph in zip(result.pills, graph.subgraphs, strict=True):
            for name in subgraph.nodes:
                assert all(i in pill for i in members[name]), seed
            assert subgraph.nodes == sorted(subgraph.nodes, key=group_id), seed
            clustered.update(subgraph.nodes)
        on_wire = [name for name in graph.nodes if name not in clustered]
        for name in on_wire:
            assert result.pill_of(members[name][0]) is None, seed
        assert on_wire == sorted(on_wire, key=group_id), seed

        # colour and size by a per-member rule: any entrance or exit among the
        # members, and their largest wire weight against the largest of all
        role_of = {pill.entrance_event: ENTRANCE for pill in result.pills}
        role_of.update((pill.exit_event, EXIT) for pill in result.pills)
        longest = max(result.wire_weight.values(), default=0)
        for name, group in members.items():
            roles = {role_of.get(i) for i in group}
            fill = ":".join(c for role, c in ((ENTRANCE, "red"), (EXIT, "green")) if role in roles)
            assert graph.nodes[name].attrs.get("fillcolor", "") == fill, (seed, name)
            weight = max(result.wire_weight.get(i, 0) for i in group)
            width = _NODE_MIN_WIDTH + _NODE_EXTRA_WIDTH * weight / longest if weight else None
            for attr in ("width", "height"):
                got = graph.nodes[name].attrs.get(attr)
                assert got == (None if width is None else f"{width:.3f}"), (seed, name)

        ranked = key_wire_events(result, max(len(result.wire_weight), 1))
        assert len(ranked) == len(result.wire_weight), seed
        for event in ranked:
            assert event.role == role_of[event.event_index], seed
            assert event.weight == result.pill_of(event.event_index).span, seed


def group_id(name: str) -> int:
    return int(name.removeprefix("g"))
