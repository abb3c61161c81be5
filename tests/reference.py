"""Reference constructions for differential tests.

The program reads D_N's products from group indices and chains copies
by the group law.  The references here compose linear maps by their
angle formulas and chain a word's copies as reflections across lines,
the way the program once did, so tests can compare the two.
"""

from flatbilliards import planar
from flatbilliards.polygons import LinearMap, Motion


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
        planar.vadd(m.orth.apply_vec(n.shift), m.shift),
    )


def reflection_across_line(point, direction) -> Motion:
    """Reflection across the line through `point` with rational
    direction (units of pi)."""
    orth = LinearMap.reflection(direction % 1)
    return Motion(orth, planar.vsub(point, orth.apply_vec(point)))


def motion_by_reflections(P, word) -> Motion:
    """Each side index s reflects the current copy of P across the line
    of its side s."""
    verts = P.vertices()
    cur = Motion(LinearMap.identity(), planar.ORIGIN)
    for s in word:
        a = cur.apply(verts[s])
        d = cur.orth.apply_angle(P.edges[s].direction.multiple)
        cur = compose_motions(reflection_across_line(a, d), cur)
    return cur
