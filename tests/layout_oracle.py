"""Placement event by event, kept as the oracle for ``layout.assign_positions``.

This is the rule as README states it, written one event at a time: a
matched event lands on the event it revisited, the first two unmatched
events bootstrap at (0,0) and (1,0), and any other event continues the
previous step scaled by ``a``, or, when the two previous events coincide,
takes a unit step turned 15 degrees from the last direction the string
moved in.  That direction is recomputed as a unit vector after every
event.  The package stores one point per group instead and normalises
only at a turn; the two must agree float for float.
"""

import math

TURN = math.pi / 12


def assign_positions(result, a):
    """Every event's point, in event order."""
    positions = []
    last_direction = (1.0, 0.0)
    for i, j in enumerate(result.earlier):
        if j >= 0:
            pos = positions[j]
        elif i == 0:
            pos = (0.0, 0.0)
        elif i == 1:
            pos = (1.0, 0.0)
        else:
            px, py = positions[i - 1]
            qx, qy = positions[i - 2]
            dx, dy = px - qx, py - qy
            if dx == 0.0 and dy == 0.0:
                ux, uy = last_direction
                cos_t, sin_t = math.cos(TURN), math.sin(TURN)
                pos = (px + (ux * cos_t - uy * sin_t), py + (ux * sin_t + uy * cos_t))
            else:
                pos = (px + a * dx, py + a * dy)
                if not (math.isfinite(pos[0]) and math.isfinite(pos[1])):
                    raise ValueError(f"a={a} puts event {i} at a non-finite position")
        positions.append(pos)
        if i >= 1:
            sx, sy = positions[i - 1]
            mx, my = pos[0] - sx, pos[1] - sy
            norm = math.hypot(mx, my)
            if norm > 0.0:
                last_direction = (mx / norm, my / norm)
    return positions
