"""Independent checks on the program's outputs.

Every checker returns a list of problems; an empty list means the
output passed.  None of them re-runs the computation it checks:
genera come from the classical angle formula, closed forms from
mpmath, areas and angles from float geometry (see tilings.py), and
invariants such as Riemann-Hurwitz from the program's reported counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from tilings import shoelace


def angle_genus(angles):
    """(genus, N) of the unfolding of a polygon with interior angles
    pi*m_i/n_i, by g = 1 + (N/2)(k - 2 - sum 1/n_i), N = lcm(n_i)."""
    dens = [Fraction(a).denominator for a in angles]
    N = math.lcm(*dens)
    g = 1 + Fraction(N, 2) * (len(dens) - 2 - sum(Fraction(1, d) for d in dens))
    if g.denominator != 1:
        raise ValueError(f"angle formula gives a non-integer genus {g}")
    return int(g), N


def check_genus(angles, genus):
    want, _ = angle_genus(angles)
    if genus != want:
        return [f"genus {genus}, angle formula gives {want}"]
    return []


def check_riemann_hurwitz(chi_cover, degree, chi_base, ram_indices):
    """chi_Q = d * chi_P - sum(e_i - 1)."""
    want = degree * chi_base - sum(e - 1 for e in ram_indices)
    if chi_cover != want:
        return [
            f"Riemann-Hurwitz: chi_Q={chi_cover}, "
            f"d*chi_P - sum(e-1) = {want}"
        ]
    return []


def check_several_branch_points(branched_class_ids):
    """A tiling the search rejects as 'two branch points' must branch
    over two or more distinct classes of the base surface (the search
    and appropriate_verdict both use the tag for len(branched) >= 2)."""
    ids = set(branched_class_ids)
    if len(ids) < 2:
        return [f"'two branch points' list branches over {len(ids)} class(es)"]
    return []


def check_ratio_5a(r):
    """The family 5a certificate in direction 0: r^2 or (1-r)^2 is 1/3."""
    third = Fraction(1, 3)
    if (r * r - third).is_zero or ((1 - r) * (1 - r) - third).is_zero:
        return []
    return [f"5a ratio {float(r):.12f}: neither r^2 nor (1-r)^2 is 1/3"]


def check_split_5c(h1, h):
    """The family 5c certificate in direction pi/6: h1 = 1/2 and
    8h^3 - 18h + 9 = 0."""
    problems = []
    if not (h1 - Fraction(1, 2)).is_zero:
        problems.append(f"5c h1 = {float(h1):.12f}, not 1/2")
    if not (8 * h * h * h - 18 * h + 9).is_zero:
        problems.append(f"5c h = {float(h):.12f} is not a root of 8h^3-18h+9")
    return problems


_DPS = 70


def check_decimal(text, candidates):
    """An emitted decimal has 50 significant digits and agrees to all of
    them with one of the closed-form candidates (mpmath values or
    fractions)."""
    digits = 50
    if len(text.lstrip("-").replace(".", "").lstrip("0")) < digits:
        return [f"decimal {text!r} has fewer than {digits} digits"]
    with mpmath.workdps(_DPS):
        x = mpmath.mpf(text)
        values = [
            mpmath.mpf(c.numerator) / c.denominator
            if isinstance(c, Fraction) else c
            for c in candidates
        ]
        tol = mpmath.mpf(10) ** (-(digits - 1)) * max(abs(x), 1)
        if min(abs(x - c) for c in values) > tol:
            return [f"decimal {text[:24]}... matches no closed form"]
    return []


def ratio_5a_candidates():
    with mpmath.workdps(_DPS):
        s = 1 / mpmath.sqrt(3)
        return [s, 1 - s]


def cubic_5c_roots():
    with mpmath.workdps(_DPS):
        return [
            mpmath.re(z)
            for z in mpmath.polyroots([8, 0, -18, 9], maxsteps=200, extraprec=200)
        ]


def check_outline_area(outline_points, n_copies, base_area):
    """Float shoelace area of the outline equals copies x base area."""
    got = shoelace(outline_points)
    want = n_copies * base_area
    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
        return [f"outline area {got:.12f}, copies x base area {want:.12f}"]
    return []
