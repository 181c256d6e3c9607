"""2D placement of a tangled sequence.

Events are laid out one by one: matched events land exactly on the event
they revisited (that is what makes pills visible as knots), and unmatched
events extrapolate the previous step.  A second, optional pass relaxes the
picture like a pulled string: consecutive events are connected by
unit-rest-length springs, nearby distinct knots repel gently, and the
endpoints of the whole sequence are pinned.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import check_count, check_number
from .sequence import BasketSequence
from .tangler import TangleResult

_TURN = math.pi / 12  # 15 degrees, used when extrapolation degenerates
_REPULSION = 0.25
_FORCE_CAP = 4.0
_CUTOFF = 10.0  # groups this far apart or more do not repel; the push there is 0.0025

Position = tuple[float, float]


@dataclass(frozen=True)
class LayoutParams:
    """Extension gain ``a`` plus relaxation schedule for :func:`stretch`."""

    a: float = 1.0
    stretch_iterations: int = 0
    stretch_step: float = 0.05

    def __post_init__(self):
        check_number("a", self.a)
        check_count("stretch_iterations", self.stretch_iterations, 0)
        check_number("stretch_step", self.stretch_step)
        if self.stretch_step <= 0:
            raise ValueError("stretch_step must be positive and finite")


@dataclass(frozen=True)
class LayoutResult:
    """One point per group of events that share a position.

    Groups are the connected components of the match graph, ordered by
    their smallest member; unmatched events form singleton groups.
    ``group_ids[i]`` is the index of event i's group, so event i sits at
    ``points[group_ids[i]]``.
    """

    points: tuple[Position, ...]
    shared_position_groups: tuple[tuple[int, ...], ...]
    group_ids: tuple[int, ...]


def _rotate(direction: Position, angle: float) -> Position:
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    x, y = direction
    return (x * cos_a - y * sin_a, x * sin_a + y * cos_a)


def shared_groups(result: TangleResult) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The groups of events that share one point, and each event's group id.

    The groups are the trees of the match forest (see :class:`TangleResult`):
    event i joins the group of the event it matched, or opens a new one.
    Groups are therefore ordered by their smallest member.
    """
    groups: list[list[int]] = []
    group_ids: list[int] = []
    for i, j in enumerate(result.earlier):
        if j < 0:
            gid = len(groups)
            groups.append([i])
        else:
            gid = group_ids[j]
            groups[gid].append(i)
        group_ids.append(gid)
    return tuple(map(tuple, groups)), tuple(group_ids)


def assign_positions(
    seq: BasketSequence, result: TangleResult, params: LayoutParams | None = None
) -> LayoutResult:
    """Place every event of ``seq`` according to ``result``'s matches.

    The first two events bootstrap at (0,0) and (1,0) unless matched;
    event i otherwise continues the previous displacement scaled by
    ``params.a``.  When the two previous events coincide, the string is
    extended by a unit step rotated 15 degrees from the last direction
    it actually moved in, so repeated knots fan out instead of piling up.
    With ``|a| > 1`` the steps grow geometrically; a ValueError naming
    ``a`` is raised at the first coordinate that is no longer finite.
    """
    if params is None:
        params = LayoutParams()
    if result.sequence is not seq and result.sequence != seq:
        raise ValueError("result was computed from a different sequence")

    groups, group_ids = shared_groups(result)
    points: list[Position] = []
    mx, my = 1.0, 0.0  # the last non-zero move from one event to the next

    for i, j in enumerate(result.earlier):
        if j < 0:  # only an unmatched event opens a group, and so a point
            if i < 2:
                points.append((float(i), 0.0))  # (0,0), then (1,0)
            else:
                px, py = points[group_ids[i - 1]]
                qx, qy = points[group_ids[i - 2]]
                dx, dy = px - qx, py - qy
                if dx == 0.0 and dy == 0.0:
                    norm = math.hypot(mx, my)
                    dirx, diry = _rotate((mx / norm, my / norm), _TURN)
                    points.append((px + dirx, py + diry))
                else:
                    x, y = px + params.a * dx, py + params.a * dy
                    if not (math.isfinite(x) and math.isfinite(y)):
                        raise ValueError(f"a={params.a} puts event {i} at a non-finite position")
                    points.append((x, y))
        if i >= 1:
            (x, y), (sx, sy) = points[group_ids[i]], points[group_ids[i - 1]]
            if x != sx or y != sy:
                mx, my = x - sx, y - sy

    return LayoutResult(tuple(points), groups, group_ids)


def stretch(layout: LayoutResult, params: LayoutParams) -> LayoutResult:
    """Relax ``layout`` while preserving every shared-position identity.

    Groups move as rigid points: consecutive-event links act as springs
    with rest length 1, non-adjacent groups closer than 10 units repel
    with a capped inverse-square push (0.0025 at that cutoff, none beyond
    it), and the groups holding the global first and last events stay
    pinned.  Runs ``params.stretch_iterations`` deterministic steps of size
    ``params.stretch_step``; zero iterations is the identity.  A layout
    with a non-finite coordinate raises a ValueError; so does a step so
    large that a coordinate stops being finite, naming ``stretch_step``.

    Each step buckets the groups into a grid of 10-unit cells and compares
    a group only with those in its own and the eight adjacent cells, so a
    step costs time proportional to the groups plus the pairs of groups
    closer than 10 units, not to all pairs.  Groups piled on one point
    are still compared pair by pair.
    """
    if params.stretch_iterations == 0:
        return layout

    groups, group_ids = layout.shared_position_groups, layout.group_ids
    count = len(groups)
    coords = [list(point) for point in layout.points]
    if not all(math.isfinite(c) for point in coords for c in point):
        raise ValueError("the layout to stretch has a non-finite position")
    pinned = {group_ids[0], group_ids[-1]}

    springs: list[tuple[int, int]] = []
    linked: set[tuple[int, int]] = set()
    for a, b in zip(group_ids, group_ids[1:]):
        if a != b:
            springs.append((a, b))
            linked.add((min(a, b), max(a, b)))

    reach = _CUTOFF * _CUTOFF
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
        cell_of = [(math.floor(x / _CUTOFF), math.floor(y / _CUTOFF)) for x, y in coords]
        cells: dict[tuple[int, int], list[int]] = {}
        for gid, cell in enumerate(cell_of):
            cells.setdefault(cell, []).append(gid)
        # a group's pushes are summed in ascending id of the other group, as
        # over all pairs, so the result only differs by the pairs cut off
        neighbours: dict[tuple[int, int], list[int]] = {}
        for a in range(count):
            cell = cell_of[a]
            near = neighbours.get(cell)
            if near is None:
                cx, cy = cell
                near = neighbours[cell] = sorted(
                    b
                    for i in (-1, 0, 1)
                    for j in (-1, 0, 1)
                    for b in cells.get((cx + i, cy + j), ())
                )
            ax, ay = coords[a]
            force_a = forces[a]
            for b in near[bisect_right(near, a):]:
                bx, by = coords[b]
                dx, dy = bx - ax, by - ay
                if dx * dx + dy * dy >= reach or (a, b) in linked:
                    continue
                dist = math.hypot(dx, dy)
                if dist > 1e-12:
                    ux, uy = dx / dist, dy / dist
                else:
                    ux, uy = 1.0, 0.0
                push = min(_REPULSION / max(dist * dist, 1e-6), _FORCE_CAP)
                force_a[0] -= push * ux
                force_a[1] -= push * uy
                force_b = forces[b]
                force_b[0] += push * ux
                force_b[1] += push * uy
        for gid in range(count):
            if gid in pinned:
                continue
            coords[gid][0] += params.stretch_step * forces[gid][0]
            coords[gid][1] += params.stretch_step * forces[gid][1]
            if not (math.isfinite(coords[gid][0]) and math.isfinite(coords[gid][1])):
                raise ValueError(f"stretch_step={params.stretch_step} makes a position non-finite")

    return LayoutResult(tuple((x, y) for x, y in coords), groups, group_ids)
