"""JSON and DOT rendering: schema validity, determinism, 1-based output."""

import json

import jsonschema
import pytest

from tangled_string import (
    PLAIN,
    LayoutParams,
    TangleParams,
    assign_positions,
    document_dict,
    emit_dot,
    emit_json,
    from_plain,
    schema_text,
    tangle,
)

from dot_checker import parse_dot

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]


def demo_result(window=6):
    seq = from_plain(DEMO)
    return tangle(seq, TangleParams(window_w=window, variant=PLAIN))


def validator():
    return jsonschema.Draft7Validator(json.loads(schema_text()))


# --------------------------------------------------------------------- JSON


def test_document_validates_against_shipped_schema():
    result = demo_result()
    doc = json.loads(emit_json(result))
    validator().validate(doc)


def test_document_with_layout_validates():
    result = demo_result()
    layout = assign_positions(result.sequence, result)
    doc = json.loads(emit_json(result, layout))
    validator().validate(doc)
    assert len(doc["layout"]["positions"]) == 14
    assert doc["layout"]["groups"][1] == [2, 4]


def test_matchless_document_validates():
    result = tangle(from_plain(["a", "b", "c"]), TangleParams(2, PLAIN))
    doc = json.loads(emit_json(result))
    validator().validate(doc)
    assert doc["pills"] == []
    assert doc["key_events"] == {"in_pill": [], "on_wire": []}
    assert doc["wire_events"] == [1, 2, 3]


def test_positions_are_one_based():
    doc = document_dict(demo_result())
    assert doc["events"][0]["position"] == 1
    assert doc["events"][0]["basket"] == 1
    assert doc["matches"][0] == {"earlier": 2, "later": 4}
    first_pill = doc["pills"][0]
    assert (first_pill["first"], first_pill["last"]) == (2, 8)
    assert first_pill["entrance"]["position"] == 2
    assert first_pill["exit"]["position"] == 8
    assert doc["wire_events"] == [1, 14]


def test_pill_summary_fields():
    doc = document_dict(demo_result())
    pill = doc["pills"][0]
    assert pill["index"] == 1
    assert pill["span"] == 6
    # Heaviest member first: event 3 ("3") accumulated weight 6.
    top = pill["top_members"][0]
    assert (top["position"], top["token"], top["weight"]) == (3, "3", 6)


def test_key_events_carry_roles_on_wires():
    doc = document_dict(demo_result())
    wires = doc["key_events"]["on_wire"]
    assert wires[0]["rank"] == 1
    assert {w["role"] for w in wires} == {"entrance", "exit"}
    in_pill = doc["key_events"]["in_pill"]
    assert "role" not in in_pill[0]
    assert in_pill[0] == {"position": 3, "token": "3", "weight": 6, "rank": 1}


def test_emit_json_is_byte_deterministic():
    result = demo_result()
    layout = assign_positions(result.sequence, result, LayoutParams(stretch_iterations=10))
    first = emit_json(result, layout)
    second = emit_json(result, layout)
    assert first == second
    assert first.endswith("\n")
    # Rebuilding everything from scratch gives the same bytes too.
    other = demo_result()
    rebuilt = emit_json(
        other, assign_positions(other.sequence, other, LayoutParams(stretch_iterations=10))
    )
    assert rebuilt == first


def test_key_event_cap_respected():
    doc = document_dict(demo_result(), key_events=1)
    assert len(doc["key_events"]["in_pill"]) == 1
    assert len(doc["key_events"]["on_wire"]) == 1


# ---------------------------------------------------------------------- DOT


def dot_graph(tokens, window, **layout_kwargs):
    seq = from_plain(tokens)
    result = tangle(seq, TangleParams(window, PLAIN))
    layout = assign_positions(seq, result, LayoutParams(**layout_kwargs))
    return result, layout, parse_dot(emit_dot(result))


def test_dot_is_well_formed_and_complete():
    result, layout, graph = dot_graph(DEMO, 6)
    assert graph.name == "tangle"
    # One node per shared-position group, all edges between declared nodes.
    assert len(graph.nodes) == len(layout.shared_position_groups)
    for a, b in graph.edges:
        assert a in graph.nodes and b in graph.nodes
    assert all(a != b for a, b in graph.edges)


def test_dot_clusters_one_per_pill():
    result, _, graph = dot_graph(DEMO, 6)
    assert len(graph.subgraphs) == len(result.pills) == 2
    names = [sub.name for sub in graph.subgraphs]
    assert names == ["cluster_pill_1", "cluster_pill_2"]
    assert graph.subgraphs[0].attrs["label"] == "pill 1 (span 6)"
    # Every clustered node actually belongs to that pill's span.
    assert graph.subgraphs[0].nodes  # non-empty


def test_dot_colors_entrances_and_exits():
    _, layout, graph = dot_graph(DEMO, 6)
    groups = layout.shared_position_groups
    by_event = {}
    for gid, group in enumerate(groups):
        for member in group:
            by_event[member] = f"g{gid}"
    # Pill one: entrance event 1, exit event 7 (0-based).
    assert graph.nodes[by_event[1]].attrs["fillcolor"] == "red"
    assert graph.nodes[by_event[7]].attrs["fillcolor"] == "green"
    # Plain wire nodes keep the default fill.
    assert "fillcolor" not in graph.nodes[by_event[0]].attrs


def test_dot_gradient_when_group_holds_both_roles():
    # 1 2 1 2 1 merges into one pill; the shared group {1,3,5} holds both
    # the entrance (position 1) and the exit (position 5).
    _, layout, graph = dot_graph(["1", "2", "1", "2", "1"], 2)
    assert layout.shared_position_groups[0] == (0, 2, 4)
    assert graph.nodes["g0"].attrs["fillcolor"] == "red:green"


def test_dot_sizes_track_wire_weight():
    _, layout, graph = dot_graph(DEMO, 6)
    groups = layout.shared_position_groups
    gid_of_event = {m: gid for gid, g in enumerate(groups) for m in g}
    # Heaviest wire weight (6) maxes out the scale.
    heavy = graph.nodes[f"g{gid_of_event[1]}"]
    assert heavy.attrs["width"] == "1.200"
    assert heavy.attrs["fixedsize"] == "true"
    light = graph.nodes[f"g{gid_of_event[8]}"]
    assert float(light.attrs["width"]) < 1.2
    # Unweighted events are not resized.
    assert "width" not in graph.nodes[f"g{gid_of_event[0]}"].attrs


def test_dot_labels_show_token_and_positions():
    _, layout, graph = dot_graph(DEMO, 6)
    gid_of_event = {
        m: gid for gid, g in enumerate(layout.shared_position_groups) for m in g
    }
    label = graph.nodes[f"g{gid_of_event[2]}"].attrs["label"]
    assert label == "3 @ 3,5,7"


def test_dot_no_edges_for_single_group():
    _, _, graph = dot_graph(["a", "a"], 1)
    assert len(graph.nodes) == 1
    assert graph.edges == []


def test_dot_quoting_survives_strange_tokens():
    tokens = ['he said "hi"', "back\\slash", 'he said "hi"']
    result = tangle(from_plain(tokens), TangleParams(2, PLAIN))
    graph = parse_dot(emit_dot(result))
    labels = {node.attrs["label"] for node in graph.nodes.values()}
    assert 'he said "hi" @ 1,3' in labels
    assert "back\\slash @ 2" in labels


def test_checker_rejects_malformed_dot():
    with pytest.raises(ValueError):
        parse_dot("digraph broken { g0 -> ; }")
    with pytest.raises(ValueError):
        parse_dot("digraph broken { g0 [label=]; }")
    with pytest.raises(ValueError):
        parse_dot('digraph broken { g0 [label="x"] }')
