"""Reference constructions for differential tests.

The program names a group element by its index alone, reads D_N's
products from group indices, moves lattice directions by D_N's integer
action, chains copies (g, t) by the group law, places vertices by
walking along P's sides, decides whether two copies overlap by the sign
of integer maps on packed coordinates, reduces mod Phi_n by one long
division, builds each exact sum, difference, negation and product once
in its stored form, reads -Id in the outline group off the parity of N,
glues cylinder pieces by the partner keys its chart records, places a
tiling's points where its outline walk found them and anchors a
translation-free key at the mean of the vertices.  The references here
name an element as a linear map (`LinearMap`, with `element`,
`elements`, `in_group` and `index_of` between maps and indices),
compose linear maps and motions, move directions by their angle
formulas, rotate and reflect vectors, chain a word's copies as
reflections across lines, separate convex polygons by their sides,
reduce through dense rows, do exact arithmetic through the public
constructor (a difference as a + (-b)), screen -Id by pairs of sides,
key a side point's partner by translating the point, place a tiling's
points on its outline by matching outline vertices and testing points
on its edges, and anchor a translation-free key at the least vertex,
the way the program once did, so tests can compare the two.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from flatbilliards import _kernel, flow, planar
from flatbilliards.cyclotomic import CyclotomicReal, cos_pi, sin_pi
from flatbilliards.polygons import PolygonError, angle_data


@dataclass(frozen=True)
class LinearMap:
    """Orthogonal map: rotation by pi*param, or reflection across the
    line through the origin at angle pi*param."""

    kind: str  # 'rot' | 'ref'
    param: Fraction

    def __post_init__(self):
        period = 2 if self.kind == "rot" else 1
        object.__setattr__(self, "param", Fraction(self.param) % period)

    @property
    def det(self) -> int:
        return 1 if self.kind == "rot" else -1

    def __str__(self):
        return f"{self.kind}({self.param})"


def element(G, index: int) -> LinearMap:
    """The linear map of G's element `index`: rotations 0..N-1,
    reflections N..2N-1."""
    index %= 2 * G.N
    if index < G.N:
        return LinearMap("rot", Fraction(2 * index, G.N))
    return LinearMap("ref", G.base_axis + Fraction(index - G.N, G.N))


def elements(G) -> list:
    return [element(G, i) for i in range(2 * G.N)]


def in_group(G, g: LinearMap) -> bool:
    if g.kind == "rot":
        return (g.param * G.N / 2).denominator == 1
    return ((g.param - G.base_axis) * G.N).denominator == 1


def index_of(G, g: LinearMap) -> int:
    """0..N-1 rotations, N..2N-1 reflections."""
    if not in_group(G, g):
        raise PolygonError(f"{g} is not in D_{G.N}")
    if g.kind == "rot":
        return int(g.param * G.N / 2) % G.N
    return G.N + int((g.param - G.base_axis) * G.N) % G.N


@dataclass(frozen=True)
class Motion:
    """Affine isometry x -> orth(x) + shift."""

    orth: LinearMap
    shift: planar.Vec

    def key(self):
        return (self.orth.kind, self.orth.param, planar.vkey(self.shift))


def apply_vec(g: LinearMap, v):
    """g.v, by the rotation or reflection matrix of g."""
    x, y = v
    if g.kind == "rot":
        if not g.param:
            return v
        c = cos_pi(g.param)
        s = sin_pi(g.param)
        return (x * c - y * s, x * s + y * c)
    c = cos_pi(2 * g.param)
    s = sin_pi(2 * g.param)
    return (x * c + y * s, x * s - y * c)


def apply_motion(m: Motion, p):
    """m(p) = m.orth(p) + m.shift."""
    return planar.vadd(apply_vec(m.orth, p), m.shift)


def apply_angle(g: LinearMap, direction) -> Fraction:
    """Image of a direction (units of pi) under g, mod 2."""
    d = Fraction(direction)
    if g.kind == "rot":
        return (d + g.param) % 2
    return (2 * g.param - d) % 2


def compose(a: LinearMap, b: LinearMap) -> LinearMap:
    """a after b (the matrix product a*b)."""
    if a.kind == "rot" and b.kind == "rot":
        return LinearMap("rot", a.param + b.param)
    if a.kind == "rot" and b.kind == "ref":
        return LinearMap("ref", b.param + a.param / 2)
    if a.kind == "ref" and b.kind == "rot":
        return LinearMap("ref", a.param - b.param / 2)
    return LinearMap("rot", 2 * (a.param - b.param))


def inverse(a: LinearMap) -> LinearMap:
    return LinearMap("rot", -a.param) if a.kind == "rot" else a


def compose_motions(m: Motion, n: Motion) -> Motion:
    """m after n."""
    return Motion(
        compose(m.orth, n.orth),
        apply_motion(m, n.shift),
    )


def reflection_across_line(point, direction) -> Motion:
    """Reflection across the line through `point` with rational
    direction (units of pi)."""
    orth = LinearMap("ref", direction % 1)
    return Motion(orth, planar.vsub(point, apply_vec(orth, point)))


def motion_by_reflections(P, word) -> Motion:
    """Each side index s reflects the current copy of P across the line
    of its side s."""
    verts = P.vertices()
    cur = Motion(LinearMap("rot", 0), planar.ORIGIN)
    for s in word:
        a = apply_motion(cur, verts[s])
        d = apply_angle(cur.orth, P.edges[s].direction.multiple)
        cur = compose_motions(reflection_across_line(a, d), cur)
    return cur


def sat_disjoint(A, B, eps=1e-7):
    """Do two convex polygons, given by float vertices, have disjoint
    interiors (touching allowed)?  The separating-axis test over the
    sides' normals, with a relative tolerance eps."""
    for poly1, poly2 in ((A, B), (B, A)):
        m = len(poly1)
        for i in range(m):
            x1, y1 = poly1[i]
            x2, y2 = poly1[(i + 1) % m]
            nx, ny = y1 - y2, x2 - x1
            s1 = [p[0] * nx + p[1] * ny for p in poly1]
            s2 = [p[0] * nx + p[1] * ny for p in poly2]
            lo1, hi1, lo2, hi2 = min(s1), max(s1), min(s2), max(s2)
            scale = max(abs(lo1), abs(hi1), abs(lo2), abs(hi2), 1.0)
            if hi1 <= lo2 + eps * scale or hi2 <= lo1 + eps * scale:
                return True
    return False


def exact_disjoint(A, B):
    """The same question for exact vertices, with no tolerance: convex
    polygons have disjoint interiors exactly when one of them has a
    side whose line leaves the other polygon on its outer side."""
    for poly, other in ((A, B), (B, A)):
        turn = planar.orient(*poly[:3])
        for p, q in zip(poly, poly[1:] + poly[:1]):
            if all(planar.orient(p, q, x) * turn <= 0 for x in other):
                return True
    return False


def reduction_rows(poly, degree):
    """rows[k] = the coefficients of x**(phi+k) reduced mod the monic
    polynomial poly (degree phi, low first), for phi + k <= degree."""
    phi = len(poly) - 1
    rows = []
    while len(rows) < degree - phi + 1:
        if not rows:
            row = [-c for c in poly[:phi]]
        else:
            prev = rows[-1]
            row = [0] + list(prev[: phi - 1])
            top = prev[phi - 1]
            if top:
                for j in range(phi):
                    row[j] -= top * poly[j]
        rows.append(row)
    return rows


def reduce_by_rows(c, poly):
    """c mod poly, with each coefficient of degree phi + k folded back
    through row k; a list of length phi."""
    phi = len(poly) - 1
    out = list(c[:phi]) + [0] * max(0, phi - len(c))
    rows = reduction_rows(poly, len(c) - 1)
    for k in range(len(c) - phi):
        for j in range(phi):
            out[j] += c[phi + k] * rows[k][j]
    return out


def _exact(x) -> CyclotomicReal:
    if isinstance(x, CyclotomicReal):
        return x
    q = Fraction(x)
    return CyclotomicReal(1, [q.numerator], q.denominator, _trusted=True)


def _lift(x: CyclotomicReal, m: int) -> CyclotomicReal:
    step = m // x.n
    coeffs = [0] * ((len(x.num) - 1) * step + 1)
    for j, c in enumerate(x.num):
        coeffs[j * step] = c
    return CyclotomicReal(m, coeffs, x.den, _trusted=True)


def _aligned(a, b):
    a, b = _exact(a), _exact(b)
    n = math.lcm(a.n, b.n)
    return _lift(a, n), _lift(b, n)


def exact_add(a, b) -> CyclotomicReal:
    """a + b: both lifted to the lcm of their conductors, their
    numerators scaled to the lcm of their denominators."""
    a, b = _aligned(a, b)
    den = a.den * b.den // math.gcd(a.den, b.den)
    fa = den // a.den
    fb = den // b.den
    num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
    return CyclotomicReal(a.n, num, den, _trusted=True)


def exact_neg(a) -> CyclotomicReal:
    a = _exact(a)
    return CyclotomicReal(a.n, [-c for c in a.num], a.den, _trusted=True)


def exact_sub(a, b) -> CyclotomicReal:
    """a - b as a + (-b)."""
    return exact_add(a, exact_neg(b))


def exact_mul(a, b) -> CyclotomicReal:
    """a * b: the full product, reduced by the constructor."""
    a, b = _aligned(a, b)
    num = _kernel.convolve(a.num, b.num)
    return CyclotomicReal(a.n, num, a.den * b.den, _trusted=True)


def minus_id_screen(P, external_sides=None) -> dict:
    """Does -Id belong to G_P, and which trigger shows it?

    in_group is true exactly when N is even.  The reason records the
    strongest trigger: an even vertex angle, an even angle between two
    committed-external sides (supplied by the caller), or bare even N.
    """
    data = angle_data(P)
    in_group = data["N"] % 2 == 0
    pair_found = False
    if external_sides:
        for i in external_sides:
            for j in external_sides:
                if i < j:
                    diff = (
                        P.edges[i].direction.multiple
                        - P.edges[j].direction.multiple
                    ) % 1
                    if diff.denominator % 2 == 0:
                        pair_found = True
    if pair_found:
        reason = "external_even_angle_pair"
    elif any(a.denominator % 2 == 0 for a in data["angles"]):
        reason = "even_angle"
    elif in_group:
        reason = "even_N"
    else:
        reason = "none"
    return {"in_group": in_group, "reason": reason}


def partner_key(chart, side, end):
    """The key of a side point's copy on the paired side: the point
    moved by the side's gluing translation and keyed at the chart
    conductor."""
    return flow._key(planar.vadd(end, chart.tau[side]), chart.n)


def boundary_places(t):
    """Where each placed point of a tiling lies on its outline, by the
    rule the cover analysis once ran: a point equal to outline vertex qi
    is ("vertex", qi), else a point on the closed outline edge qi is
    ("edge", qi).  A point on neither is inside Q and left out."""
    points = t.outline_points
    E = len(points)
    out = {}
    for verts in t.copy_vertices:
        for p in verts:
            key = planar.vkey(p)
            for qi, q in enumerate(points):
                if planar.veq(p, q):
                    out[key] = ("vertex", qi)
                    break
            else:
                for qi in range(E):
                    if planar.on_segment(p, points[qi], points[(qi + 1) % E]):
                        out[key] = ("edge", qi)
                        break
    return out


def lexmin_config_key(copy_vertices):
    """A configuration's key up to translation, anchored at its
    lexicographically least vertex, which exact signs find."""
    anchor = None
    for verts in copy_vertices:
        for p in verts:
            if anchor is None:
                anchor = p
                continue
            dx = (p[0] - anchor[0]).sign()
            if dx < 0 or (dx == 0 and (p[1] - anchor[1]).sign() < 0):
                anchor = p
    return frozenset(
        frozenset(planar.vkey(planar.vsub(v, anchor)) for v in verts)
        for verts in copy_vertices
    )
