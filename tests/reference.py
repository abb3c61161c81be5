"""Reference constructions for differential tests.

The program reads D_N's products from group indices, moves lattice
directions by D_N's integer action, chains copies (g, t) by the group
law, places vertices by walking along P's sides, decides whether two
copies overlap by the sign of integer maps on packed coordinates,
reduces mod Phi_n by one long division and reads -Id in the outline
group off the parity of N.  The references here compose linear maps
and motions, move directions by their angle formulas, rotate and
reflect vectors, chain a word's copies as reflections across lines,
separate convex polygons by their sides, reduce through dense rows and
screen -Id by pairs of sides, the way the program once did, so tests
can compare the two.
"""

from dataclasses import dataclass
from fractions import Fraction

from flatbilliards import planar
from flatbilliards.cyclotomic import cos_pi, sin_pi
from flatbilliards.polygons import LinearMap, angle_data


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
