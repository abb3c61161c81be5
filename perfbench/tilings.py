"""Float geometry for the `covers` workload's tiling requests.

Tilings are grown from a seed by reflecting copies of a convex base
polygon across their sides.  Every layout is judged here in floating
point, independently of the program, so that a request meant to be a
valid tiling is one, and a request meant to be refused (overlapping
copies, or a copy cut off from the rest) is certainly invalid.  The
program then decides every request exactly; the benchmark compares the
two.

Coordinates stay below about 10 and every feature of the bases used is
far above the 1e-7 tolerance, so the float judgement is unambiguous.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 1e-7
_ROUND = 10**6


def pkey(p):
    return (round(p[0] * _ROUND) + 0, round(p[1] * _ROUND) + 0)


def reflect(a, b, p):
    """Mirror image of p across the line through a and b."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    wx, wy = p[0] - a[0], p[1] - a[1]
    t = wx * ux + wy * uy
    return (a[0] + 2 * t * ux - wx, a[1] + 2 * t * uy - wy)


def interior_angles(verts):
    """Interior angles of a counterclockwise polygon in units of pi, as
    exact fractions recovered from the float geometry."""
    k = len(verts)
    out = []
    for i in range(k):
        p, c, n = verts[i - 1], verts[i], verts[(i + 1) % k]
        ax, ay = n[0] - c[0], n[1] - c[1]
        bx, by = p[0] - c[0], p[1] - c[1]
        ang = math.atan2(ax * by - ay * bx, ax * bx + ay * by) % (2 * math.pi)
        frac = Fraction(ang / math.pi).limit_denominator(240)
        if abs(float(frac) - ang / math.pi) > 1e-9:
            raise ValueError(f"angle {ang / math.pi} is not a small rational")
        out.append(frac)
    return out


def shoelace(points):
    """Signed area of a polygon (positive when counterclockwise)."""
    total = 0.0
    k = len(points)
    for i in range(k):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % k]
        total += x1 * y2 - x2 * y1
    return total / 2


class Base:
    """Float copy of a convex base polygon, vertices counterclockwise."""

    def __init__(self, verts):
        self.verts = tuple((float(x), float(y)) for x, y in verts)
        self.k = len(self.verts)
        self.angles = interior_angles(self.verts)
        if any(a >= 1 for a in self.angles):
            raise ValueError("tiling generator needs a convex base")
        self.area = shoelace(self.verts)

    def copy(self, word):
        """Vertices (in base order) of the copy a reflection word places."""
        cur = list(self.verts)
        for s in word:
            a, b = cur[s], cur[(s + 1) % self.k]
            cur = [reflect(a, b, p) for p in cur]
        return tuple(cur)


def _interiors_overlap(A, B):
    """Do two convex polygons share interior points?"""
    for poly in (A, B):
        m = len(poly)
        for i in range(m):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % m]
            nx, ny = y1 - y2, x2 - x1
            pa = [p[0] * nx + p[1] * ny for p in A]
            pb = [p[0] * nx + p[1] * ny for p in B]
            if max(pa) <= min(pb) + EPS or max(pb) <= min(pa) + EPS:
                return False
    return True


def _strictly_inside_segment(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    wx, wy = p[0] - a[0], p[1] - a[1]
    if abs(dx * wy - dy * wx) > EPS * math.sqrt(L2):
        return False
    t = (wx * dx + wy * dy) / L2
    return EPS < t < 1 - EPS


def _distance_to_copy(p, verts):
    best = math.inf
    k = len(verts)
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        cx, cy = a[0] + t * dx, a[1] + t * dy
        best = min(best, math.hypot(p[0] - cx, p[1] - cy))
    return best


class Layout:
    """The outcome of judging a list of reflection words."""

    def __init__(self, reason, outline=None):
        self.reason = reason  # None when the words form a valid tiling
        # boundary points of the union, counterclockwise, as
        # (point, corner-angle sum in units of pi)
        self.outline = outline

    @property
    def valid(self):
        return self.reason is None

    def outline_vertices(self):
        """(point, angle) of each corner of the outline polygon."""
        return [(p, s) for p, s in self.outline if s != 1]


def judge(base: Base, words) -> Layout:
    """Decide in floating point whether the words tile a simple polygon."""
    k = base.k
    copies = [base.copy(w) for w in words]
    dets = [(-1) ** len(w) for w in words]
    n = len(copies)
    vsets = [frozenset(pkey(v) for v in c) for c in copies]
    if len(set(vsets)) != n:
        return Layout("two copies coincide")
    for i in range(n):
        for j in range(i + 1, n):
            if _interiors_overlap(copies[i], copies[j]):
                return Layout("copies overlap")

    sides = {}
    for c, verts in enumerate(copies):
        for s in range(k):
            key = frozenset((pkey(verts[s]), pkey(verts[(s + 1) % k])))
            sides.setdefault(key, []).append((c, s))
    internal, external = [], []
    for owners in sides.values():
        if len(owners) > 2:
            return Layout("side shared by more than two copies")
        (internal if len(owners) == 2 else external).append(owners)
    for (ci, si), (cj, _) in internal:
        a, b = copies[ci][si], copies[ci][(si + 1) % k]
        mirrored = [pkey(reflect(a, b, v)) for v in copies[ci]]
        if mirrored != [pkey(v) for v in copies[cj]]:
            return Layout("adjacent copies are not mirror images")

    for c, verts in enumerate(copies):
        for c2, verts2 in enumerate(copies):
            if c2 == c:
                continue
            for s in range(k):
                a, b = verts[s], verts[(s + 1) % k]
                if any(_strictly_inside_segment(v, a, b) for v in verts2):
                    return Layout("T-junction or partial side")

    adjacency = {c: set() for c in range(n)}
    for (ci, _), (cj, _) in internal:
        adjacency[ci].add(cj)
        adjacency[cj].add(ci)
    stack, reached = [0], {0}
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if len(reached) != n:
        return Layout("disconnected")

    corner_sum = {}
    labels = {}
    for c, verts in enumerate(copies):
        for v in range(k):
            key = pkey(verts[v])
            corner_sum[key] = corner_sum.get(key, 0) + base.angles[v]
            labels.setdefault(key, set()).add(v)
    if any(len(ls) != 1 for ls in labels.values()):
        return Layout("different base vertices meet")

    directed = {}
    points = {}
    for ((c, s),) in external:
        a, b = copies[c][s], copies[c][(s + 1) % k]
        if dets[c] == -1:
            a, b = b, a
        if pkey(a) in directed:
            return Layout("outline pinched")
        directed[pkey(a)] = pkey(b)
        points[pkey(a)] = a
    start = next(iter(directed))
    cycle = [start]
    while True:
        nxt = directed.get(cycle[-1])
        if nxt is None:
            return Layout("outline does not close")
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(directed):
        return Layout("union has a hole")
    on_boundary = set(cycle)
    for key, total in corner_sum.items():
        if key in on_boundary and not total < 2:
            return Layout("boundary corner sum reaches 2")
        if key not in on_boundary and total != 2:
            return Layout("interior corner sum is not 2")
    outline = [(points[key], corner_sum[key]) for key in cycle]
    if abs(shoelace([p for p, _ in outline]) - n * base.area) > 1e-6 * n:
        return Layout("outline area mismatch")  # pragma: no cover
    return Layout(None, outline)


def grow_valid(base: Base, rng, n_copies, attempts=400):
    """Seeded random growth of a valid tiling with n_copies copies."""
    for _ in range(attempts):
        words = [()]
        while len(words) < n_copies:
            options = [
                (i, s) for i in range(len(words)) for s in range(base.k)
            ]
            rng.shuffle(options)
            for i, s in options:
                cand = words + [words[i] + (s,)]
                if judge(base, cand).valid:
                    words = cand
                    break
            else:
                break
        if len(words) == n_copies:
            return words
    raise RuntimeError("could not grow a valid tiling")  # pragma: no cover


def make_overlapping(base: Base, rng, words, attempts=400):
    """Add one copy whose interior overlaps an existing copy."""
    copies = [base.copy(w) for w in words]
    vsets = {frozenset(pkey(v) for v in c) for c in copies}
    for _ in range(attempts):
        w = rng.choice(words) + (rng.randrange(base.k), rng.randrange(base.k))
        new = base.copy(w)
        if frozenset(pkey(v) for v in new) in vsets:
            continue
        if any(_interiors_overlap(new, c) for c in copies):
            return words + [w]
    # fall back to a copy that coincides with an existing one
    w = rng.choice(words)
    s = rng.randrange(base.k)
    return words + [w + (s, s)]


def make_disconnected(base: Base, rng, words, attempts=400):
    """Add one copy that stays clear of every existing copy."""
    copies = [base.copy(w) for w in words]
    for length in (2, 3, 4):
        for _ in range(attempts):
            w = rng.choice(words) + tuple(
                rng.randrange(base.k) for _ in range(length)
            )
            new = base.copy(w)
            clear = all(
                _distance_to_copy(v, c) > 1e-3
                for c in copies
                for v in new
            ) and all(
                _distance_to_copy(v, new) > 1e-3 for c in copies for v in c
            )
            if clear and not any(_interiors_overlap(new, c) for c in copies):
                return words + [w]
    raise RuntimeError("could not place a detached copy")  # pragma: no cover
