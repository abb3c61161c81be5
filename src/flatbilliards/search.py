"""Bounded search for branched covers over a base polygon.

The search grows tilings copy by copy: every move reflects an existing
copy across one of its free sides.  Each copy is the motion
x -> g.x + t of the base.  Its linear part g is a group element and its
translation part t is kept exactly, as an integer vector over one
cyclotomic field, so tilings that are congruent under a group element
and a translation get the same key and each class is expanded once.
The same exact translation gives every placed vertex a packed exact
key, and these keys alone decide which vertices, sides and copies
coincide and which translations map copies onto copies.  Floats serve
only as a guide: the overlap test of two copies and the order in which
the forced-move simulation tries boundary points (the polygons involved
keep features far above the rounding scale).  Overlap depends only on
the copies' exact relative placement, so the floats decide each
distinct placement once per search and a table answers the rest.
Angles and vertex classes stay exact, and any surviving candidate is
re-verified with exact arithmetic before it is reported.

A child is its parent plus one copy, and each node is analysed once:
its side and point tables are its parent's, copied, plus one
`_Search.add_copy`, kept on its `_Node` until its expansion reads them.
The forced-move replay grows a copy of the same tables, with one
legality table that tests each move only against the copies appended
since it was last read.  Float vertices are made only where read: the
overlap table's misses and the forced order.

Pruning rules are tagged and counted:

- pre-checks that need no enumeration (square-tiled base, all vertex
  points periodic, no odd reflection subgroup admitting every angle);
- sound subtree prunes (a corner angle that can no longer be completed,
  a geometrically locked even angle or locked branching over a
  periodic point, two locked branch points, a pinched gap);
- the infinite-forcing heuristic: from a node whose completion is
  forced, replay the forced moves and prune when the configuration
  starts repeating itself under a translation;
- per-node rejections of completed tilings (even angle, unbranched,
  two branch points, periodic or unknown branch point).

Children congruent to a tiling already reached are counted as
"congruent repeats".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field

from .catalog import CatalogEntry
from .covers import analyze_cover, appropriate_verdict, tile_by_words
from .periodicity import classify_point, default_directions
from .polygons import group_of, side_reflections
from .unfolding import unfold

_EPS = 1e-7
_ROUND = 10 ** 6
_HORIZON = 24  # forced moves replayed by _Search.forced_sim


@dataclass
class SearchReport:
    family: str
    n: int | None
    cls: int
    max_copies: int
    outcome: str  # 'none_found' | 'candidate' | 'inconclusive'
    candidates: list = dc_field(default_factory=list)
    statistics: dict = dc_field(default_factory=dict)
    rejected: dict = dc_field(default_factory=dict)
    prechecks: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# exact anchors and float geometry helpers


def _pack(coeffs, width):
    """One int for an integer vector: the coefficients as balanced
    base-2**width digits.  Packing is additive, and injective on vectors
    whose coefficients all lie below 2**(width - 1) in absolute value."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def _pkey(p):
    """A float point rounded to a 1e-6 grid: the forced-move order."""
    return (round(p[0] * _ROUND) + 0, round(p[1] * _ROUND) + 0)


def _sat_disjoint(A, B):
    """Do two convex polygons have disjoint interiors (touching allowed)?"""
    for poly1, poly2 in ((A, B), (B, A)):
        m = len(poly1)
        for i in range(m):
            x1, y1 = poly1[i]
            x2, y2 = poly1[(i + 1) % m]
            nx, ny = y1 - y2, x2 - x1
            lo1 = hi1 = poly1[0][0] * nx + poly1[0][1] * ny
            for p in poly1:
                v = p[0] * nx + p[1] * ny
                if v < lo1:
                    lo1 = v
                elif v > hi1:
                    hi1 = v
            lo2 = hi2 = poly2[0][0] * nx + poly2[0][1] * ny
            for p in poly2:
                v = p[0] * nx + p[1] * ny
                if v < lo2:
                    lo2 = v
                elif v > hi2:
                    hi2 = v
            scale = max(abs(lo1), abs(hi1), abs(lo2), abs(hi2), 1.0)
            if hi1 <= lo2 + _EPS * scale or hi2 <= lo1 + _EPS * scale:
                return True
    return False


# ---------------------------------------------------------------------------
# node model


class _Copy:
    """The base placed by the motion x -> g.x + t, where g is group
    element `lin`.  anchors[i] is the packed exact vector g_i.t; group
    element 0 is the identity, so anchors[0] is t itself.  vkeys[j] is
    the packed exact position g.v_j + t of base vertex j, and `vset`
    the set of them: these decide which vertices and copies coincide.
    Both are made on first read, so a child dropped as a congruent
    repeat, which reads only its anchors, never makes them.

    The float guide is `shift`, t as floats, and `row`, the float
    positions g.v_j (the row FV[lin]).  A float vertex is made only
    where it is read: `vert` for the forced-move order and the next
    reflection, `verts` for the overlap tests of placements the
    search's table has not met yet."""

    __slots__ = ("lin", "row", "shift", "word", "anchors", "origin",
                 "_vkeys", "_vset")

    def __init__(self, lin, row, shift, word, anchors, origin):
        """`origin` is the row E[lin] of packed vertex positions g.v_j."""
        self.lin = lin
        self.row = row
        self.shift = shift
        self.word = word
        self.anchors = anchors
        self.origin = origin
        self._vkeys = self._vset = None

    @property
    def vkeys(self):
        if self._vkeys is None:
            t = self.anchors[0]
            self._vkeys = tuple(e + t for e in self.origin)
        return self._vkeys

    @property
    def vset(self):
        if self._vset is None:
            self._vset = frozenset(self.vkeys)
        return self._vset

    def vert(self, j):
        """Float vertex g.v_j + t."""
        (x, y), (tx, ty) = self.row[j], self.shift
        return (x + tx, y + ty)

    @property
    def verts(self):
        """All k float vertices, built on each read."""
        tx, ty = self.shift
        return tuple((x + tx, y + ty) for x, y in self.row)


class _Node:
    """A tiling in the search: its copies, congruence key and legality
    memo.  `an` holds the node's analysis from when it is made as a
    child until its expansion reads it (None before and after)."""

    __slots__ = ("copies", "key", "legal", "an")

    def __init__(self, copies):
        self.copies = copies
        self.key = None
        self.legal = {}
        self.an = None


class _Analysis:
    """Side and point tables of a tiling, grown by `_Search.add_copy`:
    `sides` maps the ends of each external side to its (copy, side) in
    first-seen order, and `points` each vertex key to its corners, its
    external sides `ext` (in `sides` order), its base vertex `label`
    (None where different ones meet) and its angle `sigma`."""

    __slots__ = ("copies", "sides", "points", "external", "boundary",
                 "complete")

    def __init__(self):
        self.copies = []
        self.sides = {}
        self.points = {}

    def copy(self):
        """The same copies, sides and points, in order, with new lists:
        growing the copy leaves these tables as they are."""
        out = _Analysis()
        out.copies = list(self.copies)
        out.sides = dict(self.sides)
        out.points = {
            key: dict(rec, corners=list(rec["corners"]), ext=list(rec["ext"]))
            for key, rec in self.points.items()
        }
        return out


class _StatusOracle(dict):
    """Lazy periodicity status per base cone class.

    Classes at the angles named in the catalog facts try the recorded
    split direction first, then the default direction list; anything
    else tries the default list only.  Each miss classifies its one
    class; the surface keeps its decompositions, so each direction is
    decomposed at most once per search.
    """

    def __init__(self, M, facts):
        super().__init__()
        self.M = M
        self.cps = {cp.class_id: cp for cp in M.cone_points()}
        split = facts.get("split_direction")
        self.known = () if split is None else facts.get(
            "non_periodic_vertex_angles", ())
        self.split_first = [split] + [
            d for d in default_directions(M) if d != split
        ]

    def __missing__(self, cid):
        cp = self.cps[cid]
        dirs = self.split_first if cp.angle.multiple in self.known else None
        self[cid] = classify_point(self.M, cp, dirs).status
        return self[cid]


class _Search:
    def __init__(self, base_polygon, statuses, max_copies, max_nodes):
        self.P = base_polygon
        self.max_copies = max_copies
        self.max_nodes = max_nodes
        self.statuses = statuses
        self.G = group_of(base_polygon)
        self.N = self.G.N
        self.k = len(base_polygon.edges)
        self.angles = [a.multiple for a in base_polygon.angles()]
        # sigma[t][kk]: the angle of kk corners of base vertex t.  A node
        # holds at most max_copies copies, and at most max_nodes + 1 (each
        # proper prefix was expanded and counted); forced moves add at
        # most _HORIZON.
        longest = min(max_copies, max_nodes + 1) + _HORIZON
        self.sigma = [[kk * a for kk in range(longest + 1)]
                      for a in self.angles]
        self.M = statuses.M
        # class of the corner at base vertex v inside the copy whose
        # orthogonal part is group element gi (face order matches the
        # group-element order)
        cls = self.M.class_of_corner
        self.cls_of = [
            [cls((f.index, f.vertex_position(v))).class_id
             for v in range(self.k)]
            for f in self.M.faces
        ]
        self.mult = self.G.multiplication_table()
        self.inv = [row.index(0) for row in self.mult]
        # reflecting a copy with linear part g across its side s gives
        # g.r_s, r_s the reflection across base side s
        r = side_reflections(base_polygon, self.G)
        self.refl_lin = [[row[rs] for rs in r] for row in self.mult]
        self.E, self.fverts, self.deltas = self._anchor_deltas(longest)
        # (h, d) -> whether a copy blocks one placed at h.x + d in its
        # frame; see `blocks`
        self.overlap = {}
        self._admissible_q()
        self.convex_base = all(a < 1 for a in self.angles)

    def _anchor_deltas(self, longest_word):
        """Vertex tables E and FV, and the anchor deltas.

        E[h][j] is the exact position h.v_j of base vertex j under group
        element h, read from the surface's face h, packed: both
        coordinates in the power basis of one cyclotomic field over one
        common denominator.  FV[h][j] is the same point as floats.
        deltas[g][s][i] is what reflecting a copy with linear part g
        across its side s adds to the anchor g_i.t: the motion g.x + t
        becomes g'.x + t' with g' = refl_lin[g][s] and
        t' = t + g.v_s - g'.v_s, so g_i.t gains
        E[g_i.g][s] - E[g_i.g'][s].

        Digit bound.  Let B = max|E| over all coefficients.  A node,
        forced moves included, holds at most `longest_word` copies, and
        each move appends one letter to the word of an existing copy,
        so a word has at most longest_word - 1 letters.  Each letter
        moves every coefficient of t, and of each g_i.t, by at most 2B,
        so |t| <= 2(longest_word - 1)B.  Two vertex keys E[g][j] + t
        then differ by at most (4 longest_word - 2)B per coefficient,
        and two anchors by at most 4(longest_word - 1)B.  Both stay
        below 4 longest_word B < 2**(width - 1), so two packed keys or
        anchors are equal exactly when their vectors are."""
        points = [[None] * self.k for _ in range(2 * self.N)]
        for face, placed in zip(self.M.faces, self.M.vertices):
            for p, j in enumerate(face.source_vertex):
                points[face.index][j] = placed[p]
        FV = [[(float(x), float(y)) for x, y in row] for row in points]
        n = math.lcm(*(c.n for row in points for p in row for c in p))
        points = [[[c.lift(n) for c in p] for p in row] for row in points]
        den = math.lcm(*(c.den for row in points for p in row for c in p))
        vecs = [
            [[x * (den // c.den) for c in p for x in c.num] for p in row]
            for row in points
        ]
        bound = max(abs(x) for row in vecs for v in row for x in v)
        width = (4 * longest_word * bound).bit_length() + 1
        E = [[_pack(v, width) for v in row] for row in vecs]
        mult = self.mult
        deltas = [
            [
                tuple(
                    E[mult[i][g]][s] - E[mult[i][self.refl_lin[g][s]]][s]
                    for i in range(2 * self.N)
                )
                for s in range(self.k)
            ]
            for g in range(2 * self.N)
        ]
        return E, FV, deltas

    # -- admissible reflection subgroups ----------------------------------

    def _counts_for_q(self, t, q):
        """Corner counts at a vertex of type t realizable when the
        final outline's reflection group is D_q."""
        out = []
        kk = 1
        while kk * self.angles[t] <= 2:
            sigma = kk * self.angles[t]
            if sigma in (1, 2) or q % sigma.denominator == 0:
                out.append(kk)
            kk += 1
        return out

    def _admissible_q(self):
        """Odd N_Q values compatible with every base angle, plus the
        union of corner-count budgets they allow per vertex type."""
        qs = []
        for q in range(3, self.N + 1, 2):
            if self.N % q:
                continue
            if not all(self._counts_for_q(t, q) for t in range(self.k)):
                continue
            # a simple polygon needs at least one convex vertex
            convex_possible = any(
                0 < kk * self.angles[t] < 1
                for t in range(self.k)
                for kk in self._counts_for_q(t, q)
            )
            if convex_possible:
                qs.append(q)
        self.qs = qs
        self.ok_counts = []
        self.max_count = []
        for t in range(self.k):
            allowed = set()
            for q in self.qs:
                allowed.update(self._counts_for_q(t, q))
            kk = 1
            while kk * self.angles[t] <= 2:
                if kk * self.angles[t] in (1, 2):
                    allowed.add(kk)
                kk += 1
            self.ok_counts.append(allowed)
            self.max_count.append(max(allowed) if allowed else 0)

    # -- node bookkeeping --------------------------------------------------

    def canonical_key(self, copies):
        """Exact congruence key: the least, over group elements g_i, of
        the copies moved by g_i and translated so the least anchor is 0.
        Two tilings get the same key exactly when a motion maps the
        copies of one onto the copies of the other (for words within
        the length _anchor_deltas sized the digits for).

        Only g_i = inv[c.lin] for a copy c can give the least key: a
        sorted key starts with its least label mult[g_i][c.lin], and
        that label is 0, the least of all, exactly when g_i inverts some
        copy's group element.  So at most len(copies) g_i are tried."""
        best = None
        for gi in {self.inv[c.lin] for c in copies}:
            row = self.mult[gi]
            low = min(c.anchors[gi] for c in copies)
            key = sorted((row[c.lin], c.anchors[gi] - low) for c in copies)
            if best is None or key < best:
                best = key
        return tuple(best)

    def add_copy(self, an, c):
        """Grow the analysis by copy c: its corners join their points,
        and each of its sides opens an external side or closes the one
        it matches (a side is shared by at most two copies, whose
        interiors are disjoint).  Sides keep their first-seen order and
        each point's `ext` that order too, as a rebuild would give."""
        ci = len(an.copies)
        an.copies.append(c)
        points, keys = an.points, c.vkeys
        for v, key in enumerate(keys):
            rec = points.get(key)
            if rec is None:
                points[key] = {"corners": [(ci, v)], "ext": [], "label": v,
                               "sigma": self.sigma[v][1]}
                continue
            rec["corners"].append((ci, v))
            if rec["label"] == v:
                rec["sigma"] = self.sigma[v][len(rec["corners"])]
            else:
                rec["label"] = rec["sigma"] = None
        for s in range(self.k):
            a, b = keys[s], keys[(s + 1) % self.k]
            ends = (a, b) if a < b else (b, a)
            other = an.sides.pop(ends, None)
            if other is None:
                an.sides[ends] = (ci, s)
                points[a]["ext"].append((ci, s))
                points[b]["ext"].append((ci, s))
            else:
                points[a]["ext"].remove(other)
                points[b]["ext"].remove(other)

    def analyze_node(self, node):
        """A node's analysis folded from scratch, copy by copy.  The
        search makes it only for the root; every child grows its
        parent's (`child_analysis`)."""
        an = _Analysis()
        for c in node.copies:
            self.add_copy(an, c)
        return self._summarize(an)

    def child_analysis(self, an, c):
        """The analysis of a node's child that adds copy c: the node's
        tables, copied, plus one `add_copy`.  `an` is left as it is."""
        child = an.copy()
        self.add_copy(child, c)
        return self._summarize(child)

    def _summarize(self, an):
        an.external = list(an.sides.values())
        an.boundary = {k: r for k, r in an.points.items() if r["ext"]}
        an.complete = all(
            len(rec["ext"]) == 2 for rec in an.boundary.values()
        ) and all(rec["sigma"] is not None for rec in an.points.values())
        return an

    def branch_class(self, node, rec):
        ci, v = rec["corners"][0]
        return self.cls_of[node.copies[ci].lin][v]

    def is_branching(self, rec):
        if rec["sigma"] is None or rec["sigma"] in (1, 2):
            return False
        kk = len(rec["corners"])
        n0 = self.angles[rec["label"]].denominator
        return kk // math.gcd(kk, n0) > 1

    # -- moves ---------------------------------------------------------------

    def reflect_copy(self, c, s):
        """Copy c reflected across its side s: the motion g.x + t
        becomes g'.x + t' with t' = t + g.v_s - g'.v_s, exactly in the
        anchors and as floats in the shift (g.v_s + t is the float
        vertex s, which the reflection fixes)."""
        lin = self.refl_lin[c.lin][s]
        row = self.fverts[lin]
        (x, y), (fx, fy) = c.vert(s), row[s]
        anchors = tuple(map(operator.add, c.anchors, self.deltas[c.lin][s]))
        return _Copy(lin, row, (x - fx, y - fy), c.word + (s,), anchors,
                     self.E[lin])

    def legal_child(self, node, ci, s):
        """The reflected copy if placing it keeps interiors disjoint
        and creates no duplicate, else None.  Memoized per node."""
        return self.grown_child(node.legal, node.copies, ci, s)

    def grown_child(self, legal, copies, ci, s):
        """`legal_child` over copies that only grow.  `legal` maps (ci, s)
        to [reflected copy or None, copies checked]; a read tests only the
        copies appended since the last one, as appending never lifts a
        block.  Copy ci, which the new copy reflects, is read like any
        other: the table holds their shared side as touching."""
        entry = legal.get((ci, s))
        if entry is None:
            entry = legal[(ci, s)] = [self.reflect_copy(copies[ci], s), 0]
        new, start = entry
        if new is not None and any(self.blocks(c, new)
                                   for c in copies[start:]):
            entry[0] = None
        entry[1] = len(copies)
        return entry[0]

    def blocks(self, c, new):
        """Does copy c block the new copy: the same vertices, or
        interiors that overlap?  In c's frame, where c is the base
        itself, the new copy sits at x -> h.x + d with h = g_c^-1.g' and
        d = g_c^-1.(t' - t), a difference of two anchors and so one
        packed int.  The answer depends on (h, d) alone, so the float
        test runs once per relative placement and the overlap table
        keeps it."""
        i = self.inv[c.lin]
        key = (self.mult[i][new.lin], new.anchors[i] - c.anchors[i])
        hit = self.overlap.get(key)
        if hit is None:
            hit = self.overlap[key] = (
                c.vset == new.vset or not _sat_disjoint(new.verts, c.verts)
            )
        return hit

    # -- subtree rules -------------------------------------------------------

    def subtree_prune(self, node, an):
        """A tag if no valid completed descendant can be appropriate,
        else None."""
        locked_branches = set()
        for key, rec in an.points.items():
            if rec["label"] is None:
                continue
            t = rec["label"]
            kk = len(rec["corners"])
            if kk > self.max_count[t]:
                return "angle overflow"
            if not rec["ext"]:
                # fully surrounded: a remaining gap could never be filled
                if rec["sigma"] != 2:
                    return "pinched"
                continue
            if kk in self.ok_counts[t] and not self.is_branching(rec):
                continue
            locked = all(
                self.legal_child(node, ci, s) is None
                for ci, s in rec["ext"]
            )
            if not locked:
                continue
            sigma = rec["sigma"]
            if sigma in (1, 2):
                continue
            if kk not in self.ok_counts[t]:
                if sigma.denominator % 2 == 0:
                    return "locked even angle"
                return "angle overflow"
            if self.is_branching(rec):
                cls = self.branch_class(node, rec)
                if self.statuses[cls] == "periodic":
                    return "locked periodic branch"
                locked_branches.add(cls)
        if len(locked_branches) >= 2:
            return "locked two branch points"
        return None

    # -- forced-completion simulation (infinite-forcing heuristic) -----------

    def worth_simulating(self, an):
        """Run the forced simulation only from nodes with a reflex
        outline vertex plus at least one corner that must still grow."""
        reflex = any(
            rec["sigma"] is not None
            and rec["sigma"] > 1
            and rec["sigma"] != 2
            for rec in an.boundary.values()
        )
        if not reflex:
            return False
        return any(
            rec["label"] is not None
            and len(rec["corners"]) not in self.ok_counts[rec["label"]]
            for rec in an.boundary.values()
        )

    def forced_sim(self, an):
        """Replay forced moves from a node's analysis `an`; True when
        the configuration repeats itself under a translation (an
        infinite forced strip).

        The replay grows a copy of `an` (which it leaves as it is) by
        `add_copy` and keeps one legality table (`grown_child`), checked
        only against newer copies.

        Boundary points are tried in the order of the float position of
        their first corner, rounded to a 1e-6 grid, and moves in the
        order of copy indices.  A point's first corner never changes,
        so its position is read once per replay and the order of the
        points already met stays the same from move to move.  This
        order is a heuristic choice, not an identity test: which points
        coincide is decided by the exact vertex keys.  Congruent nodes
        can replay different moves, and whether the prune fires can
        depend on which representative of a class the search keeps."""
        an = an.copy()
        copies = an.copies
        legal = {}
        positions = {}

        def position(item):
            key, rec = item
            p = positions.get(key)
            if p is None:
                ci, v = rec["corners"][0]
                p = positions[key] = _pkey(copies[ci].vert(v))
            return p

        for grown in range(1, _HORIZON + 1):
            move = None
            boundary = [item for item in an.points.items() if item[1]["ext"]]
            for _, rec in sorted(boundary, key=position):
                if rec["label"] is None:
                    continue
                kk = len(rec["corners"])
                t = rec["label"]
                if kk > self.max_count[t]:
                    return False
                if kk in self.ok_counts[t]:
                    continue
                moves = sorted(
                    (ci, s)
                    for ci, s in rec["ext"]
                    if self.grown_child(legal, copies, ci, s) is not None
                )
                if not moves:
                    return False
                if len(moves) <= 2:
                    move = moves[0]
                    break
            if move is None:
                return False
            self.add_copy(an, legal[move][0])
            if grown >= 4 and self._translation_recurrence(copies):
                return True
        return False

    def _translation_recurrence(self, copies):
        """Does some translation map at least four copies onto copies?

        Copies with the same linear part coincide exactly when their
        translations t do, so this counts the exact differences
        t_k - t_c over ordered pairs of such copies.  A difference of
        two anchors stays within the digit bound of `_anchor_deltas`;
        an anchor shifted by a difference, t_c + d, need not."""
        by_lin = {}
        for c in copies:
            by_lin.setdefault(c.lin, []).append(c.anchors[0])
        hits = {}
        for ts in by_lin.values():
            for tc in ts:
                for tk in ts:
                    if tk != tc:
                        d = tk - tc
                        hits[d] = hits.get(d, 0) + 1
                        if hits[d] >= 4:
                            return True
        return False

    # -- candidate evaluation -------------------------------------------------

    def evaluate(self, node, an):
        """Tag for the node viewed as a completed tiling."""
        if not an.complete:
            return "incomplete tiling"
        denoms = set()
        branch = set()
        for rec in an.boundary.values():
            sigma = rec["sigma"]
            if sigma == 1 or sigma == 2:
                continue
            denoms.add(sigma.denominator)
            if self.is_branching(rec):
                branch.add(self.branch_class(node, rec))
        n_q = 1
        for d in denoms:
            n_q = n_q * d // math.gcd(n_q, d)
        if n_q % 2 == 0:
            return "even angle"
        if not branch:
            return "unbranched (lattice)"
        # the tag covers two or more branched classes
        if len(branch) >= 2:
            return "two branch points"
        status = self.statuses[branch.pop()]
        if status == "periodic":
            return "branch point periodic"
        if status != "non_periodic":
            return "unknown candidate"
        return "candidate"


_KEEP_TAGS = {
    "two branch points",
    "candidate",
    "unknown candidate",
    "locked two branch points",
    "locked periodic branch",
    "locked even angle",
}


def _root_copy(searcher: _Search) -> _Copy:
    return _Copy(0, searcher.fverts[0], (0.0, 0.0), (),
                 (0,) * (2 * searcher.N), searcher.E[0])


def node_from_words(searcher: _Search, words) -> _Node:
    """Rebuild a node from stored reflection words (each word chains
    reflections starting at the base copy)."""
    copies = []
    for w in words:
        c = _root_copy(searcher)
        for s in w:
            c = searcher.reflect_copy(c, s)
        copies.append(c)
    return _Node(tuple(copies))


def _tag(report, tag, node=None):
    report.statistics[tag] = report.statistics.get(tag, 0) + 1
    if tag in _KEEP_TAGS and node is not None:
        bucket = report.rejected.setdefault(tag, [])
        if len(bucket) < 64:
            bucket.append([list(c.word) for c in node.copies])


def search_appropriate(
    entry: CatalogEntry,
    max_copies: int,
    cls: int = 1,
    max_nodes: int = 200000,
) -> SearchReport:
    """Enumerate tilings over the catalog entry with at most
    `max_copies` copies and report whether any yields a cover branched
    over a single non-periodic point fixed by all its symmetries."""
    report = SearchReport(
        family=entry.family,
        n=entry.n,
        cls=cls,
        max_copies=max_copies,
        outcome="none_found",
        statistics={"nodes": 0},
    )
    P = entry.polygon

    if entry.facts.get("square_tiled"):
        report.prechecks.append(
            "square-tiled base: every cover is square-tiled, hence lattice"
        )
        return report
    if entry.facts.get("all_vertex_points_periodic"):
        report.prechecks.append(
            "all vertex points periodic: no non-periodic branch point exists"
        )
        return report

    M = unfold(P)
    statuses = _StatusOracle(M, entry.facts)
    searcher = _Search(P, statuses, max_copies, max_nodes)
    if not searcher.qs:
        report.prechecks.append(
            "no admissible reflection group: no odd N_Q admits every "
            "corner angle of the base"
        )
        return report
    if not searcher.convex_base:
        report.outcome = "inconclusive"
        report.prechecks.append(
            "non-convex base outside the pre-checks: enumeration "
            "not attempted"
        )
        return report

    if cls == 2:
        return _second_class(entry, searcher, report, max_copies, max_nodes)

    unknown_seen = _run_enumeration(searcher, report, want="appropriate")
    if report.candidates:
        report.outcome = "candidate"
    elif unknown_seen or report.statistics.get("resource budget", 0):
        report.outcome = "inconclusive"
    return report


def _run_enumeration(searcher: _Search, report: SearchReport, want: str,
                     bases=None):
    """Breadth-first enumeration over canonical nodes.  `want` is
    'appropriate' (first-class candidates) or 'periodic-branched'
    (intermediate bases for the second class, collected in `bases`).
    Returns whether an unknown verdict was encountered."""
    root = _Node((_root_copy(searcher),))
    root.key = searcher.canonical_key(root.copies)
    root.an = searcher.analyze_node(root)
    seen = {root.key}
    frontier = [root]
    unknown_seen = False
    while frontier:
        frontier.sort(key=lambda nd: nd.key)
        next_frontier = []
        for node in frontier:
            report.statistics["nodes"] += 1
            if report.statistics["nodes"] > searcher.max_nodes:
                _tag(report, "resource budget")
                return unknown_seen
            an, node.an = node.an, None
            if want == "appropriate":
                tag = searcher.evaluate(node, an)
                if tag == "candidate":
                    tag = _confirm_candidate(searcher, report, node)
                if tag == "unknown candidate":
                    unknown_seen = True
                _tag(report, tag, node)
            else:
                _collect_periodic_branched(searcher, report, node, an, bases)
            if len(node.copies) >= searcher.max_copies:
                continue
            for ci, s in sorted(an.external):
                new = searcher.legal_child(node, ci, s)
                if new is None:
                    continue
                child = _Node(node.copies + (new,))
                child.key = searcher.canonical_key(child.copies)
                if child.key in seen:
                    _tag(report, "congruent repeats")
                    continue
                seen.add(child.key)
                child.an = searcher.child_analysis(an, new)
                prune = searcher.subtree_prune(child, child.an)
                if prune is not None:
                    _tag(report, prune, child)
                    continue
                if searcher.worth_simulating(child.an) and searcher.forced_sim(
                    child.an
                ):
                    _tag(report, "infinite forcing", child)
                    continue
                next_frontier.append(child)
        frontier = next_frontier
    return unknown_seen


def _confirm_candidate(searcher, report, node) -> str:
    """Exact re-verification of a float-level candidate."""
    words = [list(c.word) for c in node.copies]
    try:
        t = tile_by_words(searcher.P, words)
        a = analyze_cover(t)
        verdict = appropriate_verdict(a, searcher.statuses)
    except ValueError:
        return "rejected by exact verdict"
    if verdict["appropriate"] is True:
        report.candidates.append(
            {"words": words, "reasons": verdict["reasons"]}
        )
        return "candidate"
    if verdict["appropriate"] == "unknown":
        return "unknown candidate"
    return "rejected by exact verdict"


def _collect_periodic_branched(searcher, report, node, an, bases):
    """Second-class stage 1: completed tilings branched only over
    periodic points become intermediate bases."""
    if not an.complete:
        return
    branch = set()
    for rec in an.boundary.values():
        if searcher.is_branching(rec):
            branch.add(searcher.branch_class(node, rec))
    if not branch:
        return
    if any(searcher.statuses[c] != "periodic" for c in branch):
        return
    if len(bases) >= 8:
        return
    words = [list(c.word) for c in node.copies]
    try:
        t = tile_by_words(searcher.P, words)
        analyze_cover(t)
    except ValueError:
        return
    key = t.outline.canonical_key()
    if key in {k for k, _ in bases}:
        return
    bases.append((key, t))
    report.rejected.setdefault("intermediate base", []).append(words)


def _second_class(entry, searcher, report, max_copies, max_nodes):
    """Compose: find intermediate bases branched only over periodic
    points, then search each of them for a first-class cover."""
    bases = []
    _run_enumeration(searcher, report, want="periodic-branched", bases=bases)
    report.statistics["intermediate bases"] = len(bases)
    any_inconclusive = report.statistics.get("resource budget", 0) > 0
    for _, t in bases:
        sub_entry = CatalogEntry(
            family=f"{entry.family}+",
            n=entry.n,
            polygon=t.outline,
            facts={"lattice": True},
        )
        sub = search_appropriate(
            sub_entry, max_copies, cls=1, max_nodes=max_nodes
        )
        for tag, count in sub.statistics.items():
            key = f"stage2 {tag}"
            report.statistics[key] = report.statistics.get(key, 0) + count
        if sub.outcome == "candidate":
            report.candidates.extend(sub.candidates)
        elif sub.outcome == "inconclusive":
            any_inconclusive = True
    if report.candidates:
        report.outcome = "candidate"
    elif any_inconclusive:
        report.outcome = "inconclusive"
    return report
