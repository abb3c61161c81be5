"""Bounded search for branched covers over a base polygon.

The search grows tilings copy by copy: every move reflects an existing
copy across one of its free sides.  Each copy is the motion
x -> g.x + t of the base.  Its linear part g is a group element and its
translation part t is kept exactly, as an integer vector over one
cyclotomic field, so tilings that are congruent under a group element
and a translation get the same key and each class is expanded once.
The same exact translation gives every placed vertex a packed exact
key, and these keys alone decide which vertices, sides and copies
coincide and which translations map copies onto copies.  Two copies'
interiors overlap exactly when their relative placement (h, d) puts d
inside the convex polygon D_h = P - h.P, decided by exact signs once
per placement, and a table answers the rest.  Every decision is exact,
and a surviving candidate is re-verified by the tiling code.

A child is its parent plus one copy, and each node is analysed once:
its side and point tables are its parent's, copied, plus one
`_Search.add_copy`, kept on its `_Node` until its expansion reads them.
The forced closure grows a copy of the same tables, with a legality
table that starts from a copy of the node's and tests each move only
against the copies appended since it was last read.

Pruning rules are tagged and counted:

- pre-checks that need no enumeration (square-tiled base, all vertex
  points periodic, no odd reflection subgroup admitting every angle);
- sound subtree prunes (a corner angle that can no longer be completed,
  a geometrically locked even angle or locked branching over a
  periodic point, two locked branch points, a pinched gap);
- the forced closure (`_Search.forced_prune`): bound the copies every
  completion still needs and add those it must hold, and prune when
  they reach past max_copies, reach a point that must grow but cannot,
  or push a corner count past every allowed one.  Stage 1 of the
  second class runs no closure: its intermediate bases are tiled again
  by copies of themselves and need no allowed counts;
- per-node rejections of completed tilings (even angle, unbranched,
  two branch points, periodic or unknown branch point).

Children congruent to a tiling already reached are counted as
"congruent repeats".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from itertools import accumulate, repeat

from .catalog import CatalogEntry
from .covers import analyze_cover, appropriate_verdict, tile_by_words
from .cyclotomic import CyclotomicReal
from .periodicity import classify_point, default_directions
from .polygons import edge_directions, side_reflections
from .unfolding import unfold

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
# packed integer vectors


def _pack(coeffs, width):
    """One int for an integer vector: the coefficients as balanced
    base-2**width digits.  Packing is additive, and injective on vectors
    whose coefficients all lie below 2**(width - 1) in absolute value."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def _unpack(v, width):
    """`_pack` reversed, up to the last nonzero digit: exact when every
    coefficient lies below 2**(width - 1) in absolute value."""
    half, out = 1 << (width - 1), []
    while v:
        out.append((v + half) % (2 * half) - half)
        v = (v - out[-1]) >> width
    return out


# ---------------------------------------------------------------------------
# node model


class _Copy:
    """The base placed by the motion x -> g.x + t, where g is group
    element `lin`.  anchors[i] is the packed exact vector g_i.t; group
    element 0 is the identity, so anchors[0] is t itself.  vkeys[j] is
    the packed exact position g.v_j + t of base vertex j: these decide
    which vertices coincide.  They are made on first read, so a child
    dropped as a congruent repeat, which reads only its anchors, never
    makes them."""

    __slots__ = ("lin", "word", "anchors", "origin", "_vkeys")

    def __init__(self, lin, word, anchors, origin):
        """`origin` is the row E[lin] of packed vertex positions g.v_j."""
        self.lin = lin
        self.word = word
        self.anchors = anchors
        self.origin = origin
        self._vkeys = None

    @property
    def vkeys(self):
        if self._vkeys is None:
            t = self.anchors[0]
            self._vkeys = tuple(e + t for e in self.origin)
        return self._vkeys


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
        self.G = base_polygon.group()
        self.N = self.G.N
        self.k = len(base_polygon.edges)
        self.angles = [a.multiple for a in base_polygon.angles()]
        # sigma[t][kk]: the angle of kk corners of base vertex t.  A node
        # holds at most max_copies copies, and at most max_nodes + 1 (each
        # proper prefix was expanded and counted); its forced closure
        # stops at the same bound.
        self.longest = longest = min(max_copies, max_nodes + 1)
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
        self.E, self.deltas = self._anchor_deltas(longest)
        # D_h by h and cross(u_m, .) by m, made on first use, and (h, d)
        # -> whether a copy blocks h.x + d in its frame (`blocks`)
        self.regions, self.crosses, self.overlap = {}, {}, {}
        self._admissible_q()
        self.convex_base = all(a < 1 for a in self.angles)

    def _anchor_deltas(self, longest_word):
        """Vertex table E and the anchor deltas.

        E[h][j] is the exact position h.v_j of base vertex j under group
        element h, read from P's row h (`Polygon.row`), packed: both
        coordinates in the power basis of Q(zeta_`field`) over one
        common denominator, `digits` base-2**`width` digits in all.
        deltas[g][s][i] is what reflecting a copy with linear part g
        across its side s adds to the anchor g_i.t: the motion g.x + t
        becomes g'.x + t' with g' = refl_lin[g][s] and
        t' = t + g.v_s - g'.v_s, so g_i.t gains E[g_i.g][s] - E[g_i.g'][s].

        Digit bound.  Let B = max|E| over all coefficients.  A node,
        and its forced closure, holds at most `longest_word` copies, and
        each move appends one letter to the word of an existing copy,
        so a word has at most longest_word - 1 letters, and a copy
        tested for legality at most longest_word.  Each letter moves
        every coefficient of t, and of each g_i.t, by at most 2B.  So
        two vertex keys E[g][j] + t, or two anchors, differ by at most
        (4 longest_word - 2)B per coefficient, and the overlap test's
        d - w, d such an anchor difference and w = E[0][a] - E[h][b], by
        at most 4 longest_word B < 2**(width - 1): packed keys and
        anchors are equal exactly when their vectors are, and unpacking
        them, and the side values sized from this bound, is exact."""
        points = [self.P.row(h) for h in range(2 * self.N)]
        n = math.lcm(*(c.n for row in points for p in row for c in p))
        points = [[[c.lift(n) for c in p] for p in row] for row in points]
        den = math.lcm(*(c.den for row in points for p in row for c in p))
        vecs = [
            [[x * (den // c.den) for c in p for x in c.num] for p in row]
            for row in points
        ]
        bound = max(abs(x) for row in vecs for v in row for x in v)
        self.field, self.digits = n, len(vecs[0][0])
        self.side_field = math.lcm(n, *(x.n for u in self.G.unit_vectors()
                                        for x in u))
        self.width = width = (4 * longest_word * bound).bit_length() + 1
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
        return E, deltas

    def _region(self, h):
        """The sides (w, m) of D_h = P - h.P, each as (cols, c, width):
        `_cross(m)`'s columns and width, and c, the packed image of w.

        The search enumerates convex bases only, so D_h is convex: its
        sides are P's and -h.P's in the order of their lattice indices,
        parallel ones joined, and the side at index m starts at
        v_a - h.v_b, a and b the first vertices of the first sides of P
        and of -h.P at or after m.  A rotation h turns P's side j,
        vertex j to j + 1, to index act(h, m_j) + N; a reflection
        reverses it, vertex j + 1 to j, at index act(h, m_j)."""
        G, N, k = self.G, self.N, self.k
        ps = [(m, j) for j, m in enumerate(edge_directions(self.P, G))]
        qs = [((G.act_on_direction(h, m) + N) % (2 * N), j) if h < N
              else (G.act_on_direction(h, m), (j + 1) % k) for m, j in ps]
        sides = []
        for m in sorted({q for q, _ in ps + qs}):
            cols, width = self._cross(m % N)
            if m >= N:  # u_(m+N) = -u_m
                cols = [-x for x in cols]
            a, b = (min(t, key=lambda q: (q[0] - m) % (2 * N))[1]
                    for t in (ps, qs))
            w = _unpack(self.E[0][a] - self.E[h][b], self.width)
            sides.append((cols, sum(map(operator.mul, w, cols)), width))
        return sides

    def _cross(self, m):
        """cross(u_m, .) up to a positive factor, an integer map from
        the digits of a packed vector into Q(zeta_`side_field`): cols[i]
        is the image of digit i, packed with base 2**width.  An image of
        d - w has coefficients below 2**(self.width - 1) S
        (`_anchor_deltas`), S the map's largest row sum, so width =
        self.width + bit_length(S) unpacks it exactly."""
        if m not in self.crosses:
            cos, sin = self.G.unit_vectors()[m]
            zeta = CyclotomicReal(self.field, [0, 1], 1, _trusted=True)
            # the digits are the coefficients of zeta**i in x, then in y
            col = [x.lift(self.side_field) for c in (-sin, cos)
                   for x in accumulate(repeat(zeta, self.digits // 2 - 1),
                                       operator.mul, initial=c)]
            den = math.lcm(*(x.den for x in col))
            col = [[a * (den // x.den) for a in x.num] for x in col]
            S = max(sum(map(abs, row)) for row in zip(*col))
            width = self.width + S.bit_length()
            self.crosses[m] = [_pack(x, width) for x in col], width
        return self.crosses[m]

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
        union of corner-count budgets they allow per vertex type and,
        for each count c up to the largest allowed one, the corners
        `shortfall[t][c]` still missing to the least allowed count at
        or above c."""
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
        self.shortfall = []
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
            self.shortfall.append([
                min((a - c for a in allowed if a >= c), default=0)
                for c in range(self.max_count[t] + 1)
            ])

    # -- node bookkeeping --------------------------------------------------

    def canonical_key(self, copies):
        """Exact congruence key: the least, over group elements g_i, of
        the copies moved by g_i and translated so the least anchor is 0.
        Two tilings get the same key exactly when a motion maps the
        copies of one onto the copies of the other (for words within
        the length _anchor_deltas sized the digits for).

        Only g_i = inv[c.lin] for a copy c can give the least key: a
        sorted key starts with its least label mult[g_i][c.lin], and
        that label is 0, the least of all, exactly when g_i is the
        inverse of some copy's group element.  So at most len(copies)
        g_i are tried."""
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
        becomes g'.x + t' with t' = t + g.v_s - g'.v_s."""
        lin = self.refl_lin[c.lin][s]
        anchors = tuple(map(operator.add, c.anchors, self.deltas[c.lin][s]))
        return _Copy(lin, c.word + (s,), anchors, self.E[lin])

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
        """Does copy c block the new copy: do their interiors overlap?
        In c's frame, where c is the base itself, the new copy sits at
        x -> h.x + d with h = g_c^-1.g' and d = g_c^-1.(t' - t), a
        difference of two anchors and so one packed int.  They overlap
        exactly when d is inside D_h, every side value positive (a
        coinciding copy's d is inside, a shared side gives 0), so the
        overlap table decides each relative placement once."""
        i = self.inv[c.lin]
        key = (self.mult[i][new.lin], new.anchors[i] - c.anchors[i])
        hit = self.overlap.get(key)
        if hit is None:
            hit = self.overlap[key] = all(
                v.sign() > 0 for v in self.side_values(*key))
        return hit

    def side_values(self, h, d):
        """cross(u_m, d - w), times a positive factor, for each side
        (w, m) of D_h in turn (see `_region`)."""
        if h not in self.regions:
            self.regions[h] = self._region(h)
        digits = _unpack(d, self.width)
        for cols, c, width in self.regions[h]:
            v = _unpack(sum(map(operator.mul, digits, cols)) - c, width)
            yield CyclotomicReal(self.side_field, v, 1, _trusted=True)

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
            if any(self.legal_child(node, ci, s) is not None
                   for ci, s in rec["ext"]):
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

    # -- forced closure ------------------------------------------------------

    def forced_prune(self, node, an):
        """A tag when the copies that every completion of a node must
        hold already rule it out, else None.  `an`, the node's analysis,
        is left as it is: the closure grows a copy of it by `add_copy`,
        with one legality table (`grown_child`) checked only against
        newer copies, that starts from a copy of each node.legal entry.

        A boundary point whose corner count c is not in `ok_counts` must
        gain a corner.  In a completed tiling (every point labelled, the
        corners at each point one fan glued side to side) one new corner
        there sits across an old corner's external side, so it is the
        reflection across that side, and that reflection is legal now.
        When the point's legal moves place one copy (two sides of a gap
        one corner wide place the same one), every completion holds that
        copy.  Adding copies only removes legal moves, so each round
        adds every copy forced at its start, and the result depends on
        the set of copies alone, not on the order of points or sides.

        Each round first bounds the copies still needed from the counts
        alone.  A completion keeps each point and its label, so a
        must-grow point ends at a count of at least c+, the least allowed
        count above c, c+ - c = `shortfall`.  A new copy's k vertices
        are k distinct points: it adds at most one corner at each point
        and k corners in all.  So every completion holds at least
        max_p (c+ - c) and ceil(sum_p (c+ - c) / k) more copies.  The
        bound reads no legality and adds no copy, so it holds under a
        node budget too.

        Tags: "forced past the copy bound" when every completion holds
        more than max_copies copies, by the bound or because the closure
        needs more; "forced dead end" when a point that must grow has no
        legal move, or two forced copies block each other; "forced angle
        overflow" when a count goes above `max_count`.  The closure
        stops at `longest` copies and, when the node budget set that
        bound, returns None there: the budget ends the search first."""
        legal = {key: list(entry) for key, entry in node.legal.items()}
        grown = an
        while True:
            must, most, total = [], 0, 0
            for rec in grown.points.values():
                t = rec["label"]
                if not rec["ext"] or t is None:
                    continue
                kk = len(rec["corners"])
                if kk > self.max_count[t]:
                    return "forced angle overflow"
                gap = self.shortfall[t][kk]
                if gap:
                    must.append(rec)
                    most, total = max(most, gap), total + gap
            need = max(most, -(-total // self.k))
            if len(grown.copies) + need > self.max_copies:
                return "forced past the copy bound"
            forced, dead = {}, False
            for rec in must:
                moves = {}
                for ci, s in rec["ext"]:
                    new = self.grown_child(legal, grown.copies, ci, s)
                    if new is not None:
                        moves[new.lin, new.anchors[0]] = (ci, s)
                if not moves:
                    dead = True
                elif len(moves) == 1:
                    forced.update(moves)
            if dead:
                return "forced dead end"
            if not forced:
                return None
            if len(grown.copies) + len(forced) > self.longest:
                if self.longest == self.max_copies:
                    return "forced past the copy bound"
                return None
            if grown is an:
                grown = an.copy()
            for ci, s in forced.values():
                new = self.grown_child(legal, grown.copies, ci, s)
                if new is None:
                    return "forced dead end"
                self.add_copy(grown, new)

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
        if math.lcm(*denoms) % 2 == 0:
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
    return _Copy(0, (), (0,) * (2 * searcher.N), searcher.E[0])


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
    (intermediate bases for the second class, collected in `bases`,
    with no forced closure: see the module docstring).  Returns whether
    an unknown verdict was encountered."""
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
                if prune is None and want == "appropriate":
                    prune = searcher.forced_prune(child, child.an)
                if prune is not None:
                    _tag(report, prune, child)
                    continue
                next_frontier.append(child)
        frontier = next_frontier
    return unknown_seen


def _confirm_candidate(searcher, report, node) -> str:
    """Exact re-verification of a candidate by the tiling code."""
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
