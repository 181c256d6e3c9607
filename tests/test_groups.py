"""Shared-position groups against an independent union-find oracle.

The library derives groups in one forward pass over the match forest.
The oracle here joins the two ends of every match with a union-find, so
it assumes nothing about the order or shape of the match list.
"""

import pytest

from tangled_string import BASKET, PLAIN, TangleParams, assign_positions, emit_dot, tangle

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
            clustered.update(subgraph.nodes)
        for name in set(members) - clustered:
            assert result.pill_of(members[name][0]) is None, seed
