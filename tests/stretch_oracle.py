"""The all-pairs relaxation, kept as the oracle for ``layout.stretch``.

This is ``stretch`` as it was before repulsion got a cutoff: every
iteration pushes every unlinked pair of groups apart, however far they
are.  The package's ``stretch`` sums the same forces in the same order
but leaves out the pairs 10 units apart or more, so the two agree byte
for byte while no unlinked pair is that far apart, and otherwise differ
per step by at most the pushes left out (``tests/test_stretch_oracle.py``).
"""

import math

from tangled_string import LayoutResult

REPULSION = 0.25
FORCE_CAP = 4.0


def stretch(layout, params):
    if params.stretch_iterations == 0:
        return layout

    groups, group_ids = layout.shared_position_groups, layout.group_ids
    count = len(groups)
    coords = [list(point) for point in layout.points]
    pinned = {group_ids[0], group_ids[-1]}

    springs = []
    linked = set()
    for a, b in zip(group_ids, group_ids[1:]):
        if a != b:
            springs.append((a, b))
            linked.add((min(a, b), max(a, b)))

    for _ in range(params.stretch_iterations):
        forces = [[0.0, 0.0] for _ in range(count)]
        for a, b in springs:
            dx = coords[b][0] - coords[a][0]
            dy = coords[b][1] - coords[a][1]
            dist = math.hypot(dx, dy)
            if dist > 1e-12:
                ux, uy = dx / dist, dy / dist
            else:
                ux, uy = 1.0, 0.0
            pull = dist - 1.0
            forces[a][0] += pull * ux
            forces[a][1] += pull * uy
            forces[b][0] -= pull * ux
            forces[b][1] -= pull * uy
        for a in range(count):
            for b in range(a + 1, count):
                if (a, b) in linked:
                    continue
                dx = coords[b][0] - coords[a][0]
                dy = coords[b][1] - coords[a][1]
                dist = math.hypot(dx, dy)
                if dist > 1e-12:
                    ux, uy = dx / dist, dy / dist
                else:
                    ux, uy = 1.0, 0.0
                push = min(REPULSION / max(dist * dist, 1e-6), FORCE_CAP)
                forces[a][0] -= push * ux
                forces[a][1] -= push * uy
                forces[b][0] += push * ux
                forces[b][1] += push * uy
        for gid in range(count):
            if gid in pinned:
                continue
            coords[gid][0] += params.stretch_step * forces[gid][0]
            coords[gid][1] += params.stretch_step * forces[gid][1]
            if not (math.isfinite(coords[gid][0]) and math.isfinite(coords[gid][1])):
                raise ValueError(f"stretch_step={params.stretch_step} makes a position non-finite")

    return LayoutResult(tuple((x, y) for x, y in coords), groups, group_ids)
