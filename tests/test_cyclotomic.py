import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbilliards import _kernel
from flatbilliards import cyclotomic as cy
from flatbilliards import fileio
from reference import reduce_by_rows


def test_cos_pi_third_is_half():
    assert cy.is_rational(cy.cos_pi(F(1, 3))) == F(1, 2)


def test_sin_quarter_squared():
    v = cy.sin_pi(F(1, 4))
    assert cy.is_rational(v * v) == F(1, 2)


def test_sin_ninth_cubic_relation():
    # x = sqrt(3)*sin(pi/9) is a root of 8x^3 - 18x + 9
    sqrt3 = 2 * cy.sin_pi(F(1, 3))
    x = sqrt3 * cy.sin_pi(F(1, 9))
    assert (8 * x**3 - 18 * x + 9).is_zero
    # bracket: the middle real root of the cubic is about 0.5924
    assert cy.embed(F(59, 100)) < x < cy.embed(F(60, 100))


def test_is_rational_examples():
    assert cy.is_rational(cy.sin_pi(F(1, 6))) == F(1, 2)
    assert cy.is_rational(cy.sin_pi(F(1, 5))) is None
    assert cy.is_rational(cy.embed(F(-7, 3))) == F(-7, 3)


def test_compare():
    assert cy.compare(cy.cos_pi(F(1, 3)), cy.embed(F(1, 2))) == "equal"
    assert cy.compare(cy.sin_pi(F(1, 8)), cy.sin_pi(F(1, 4))) == "less"
    assert cy.compare(cy.embed(3), cy.embed(2)) == "greater"


def test_parse_simple():
    assert cy.is_rational(cy.parse_constant("1/2")) == F(1, 2)
    assert cy.is_rational(cy.parse_constant("2*(3-1/2)-5")) == F(0)


def test_parse_lemma_constants():
    z = cy.parse_constant("sin(1/5)/sin(1/3)")
    y = cy.parse_constant("sin(7/15)/sin(1/3)")
    assert abs(float(z) - 0.6787159472735029) < 1e-12
    assert abs(float(y) - 1.1483749680116988) < 1e-12
    assert z == cy.sin_pi(F(1, 5)) / cy.sin_pi(F(1, 3))


def test_parse_errors():
    with pytest.raises(cy.ParseError):
        cy.parse_constant("sin(1/2")
    with pytest.raises(cy.ParseError):
        cy.parse_constant("1 + * 2")
    with pytest.raises(cy.ParseError):
        cy.parse_constant("tan(1/4)")
    with pytest.raises(cy.ParseError):
        cy.parse_constant("sin(sin(1/5))")
    with pytest.raises(ZeroDivisionError):
        cy.parse_constant("3/(1-1)")


def test_parse_error_position():
    with pytest.raises(cy.ParseError) as err:
        cy.parse_constant("1/2 + $")
    assert err.value.position == 6


def test_division():
    a = cy.sin_pi(F(2, 7))
    assert cy.is_rational(a / a) == 1
    b = cy.cos_pi(F(1, 12))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / cy.embed(0)


def test_mixed_conductors():
    a = cy.cos_pi(F(1, 5))
    b = cy.cos_pi(F(1, 4))
    c = a + b
    assert c - b == a
    assert (a * b) / b == a


def test_conductor_minimization():
    lifted = cy.cos_pi(F(1, 5)).lift(120)
    assert lifted == cy.cos_pi(F(1, 5))
    assert hash(lifted) == hash(cy.cos_pi(F(1, 5)))
    # idempotent
    c1 = lifted.canonical()
    c2 = c1.canonical()
    assert (c1.n, c1.num, c1.den) == (c2.n, c2.num, c2.den)
    # rationals minimize to conductor 1
    assert (cy.cos_pi(F(1, 3)) * 2).key() == (1, (1,), 1)


def _sqrt(k: int):
    """sqrt(k) for squarefree k | 30, from cos(pi/4), cos(pi/6), cos(pi/5)."""
    roots = {
        2: 2 * cy.cos_pi(F(1, 4)),
        3: 2 * cy.cos_pi(F(1, 6)),
        5: 4 * cy.cos_pi(F(1, 5)) - 1,
    }
    out = cy.embed(1)
    for p, root in roots.items():
        if k % p == 0:
            out *= root
    return out


def _sqrt7():
    """The Gauss sum sum_a (a/7)*sin(2*pi*a/7) = sqrt(7)."""
    return sum(
        (-1 if a in (3, 5, 6) else 1) * cy.sin_pi(F(2 * a, 7))
        for a in range(1, 7)
    )


# closed forms with the smallest conductor of a cyclotomic field that
# holds them: Q(sqrt d) has the conductor of its discriminant, and
# cos(pi/k) generates the real subfield of Q(zeta_2k) (or Q(zeta_k), k odd)
_CONDUCTORS = [
    pytest.param(lambda: _sqrt(2), 8, id="sqrt2"),
    pytest.param(lambda: _sqrt(3), 12, id="sqrt3"),
    pytest.param(lambda: _sqrt(5), 5, id="sqrt5"),
    pytest.param(lambda: _sqrt(6), 24, id="sqrt6"),
    pytest.param(lambda: _sqrt(10), 40, id="sqrt10"),
    pytest.param(lambda: _sqrt(15), 60, id="sqrt15"),
    pytest.param(lambda: _sqrt(30), 120, id="sqrt30"),
    pytest.param(_sqrt7, 28, id="sqrt7"),
    pytest.param(lambda: cy.cos_pi(F(1, 7)), 7, id="cos-pi/7"),
    pytest.param(lambda: cy.cos_pi(F(1, 9)), 9, id="cos-pi/9"),
    pytest.param(lambda: cy.cos_pi(F(1, 10)), 20, id="cos-pi/10"),
    pytest.param(lambda: cy.cos_pi(F(1, 12)), 24, id="cos-pi/12"),
    pytest.param(lambda: cy.cos_pi(F(1, 15)), 15, id="cos-pi/15"),
    pytest.param(lambda: _sqrt(2) * cy.cos_pi(F(1, 7)), 56, id="sqrt2-cos-pi/7"),
    pytest.param(lambda: cy.embed(F(3, 7)), 1, id="3/7"),
]


@pytest.mark.parametrize("make, conductor", _CONDUCTORS)
def test_key_has_the_smallest_conductor(make, conductor):
    v = make()
    key = v.key()
    assert key[0] == conductor
    for k in (2, 3, 4, 5, 9):
        lifted = v.lift(v.n * k)
        assert lifted.key() == key
        n, coeffs = lifted.to_pair()
        doc = {"conductor": n, "coeffs": coeffs}
        assert fileio.cyc_from_json(doc).key() == key


def test_trig_conductor_bound():
    for q in [F(1, 3), F(2, 9), F(7, 15), F(5, 12), F(1, 2)]:
        for kind in ("cos", "sin"):
            v = cy.trig_of_rational_angle(q, kind)
            assert (4 * q.denominator) % v.key()[0] == 0


def test_cyclotomic_polynomials_factor_x_n_minus_1():
    # prod over d | n of Phi_d(x) is x**n - 1, and Phi_n has degree
    # totient(n), the count of units mod n
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, cy.cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1]
        units = sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert len(cy.cyclotomic_polynomial(n)) - 1 == cy.totient(n) == units


REDUCTION_CONDUCTORS = (1, 2, 3, 4, 12, 15, 16, 30, 97, 210, 420)


def test_reduction_matches_dense_rows():
    # lists longer than n are folded mod x**n - 1 before the division;
    # lengths phi + 1 .. 3n take both paths
    rng = random.Random(24)
    for n in REDUCTION_CONDUCTORS:
        poly = cy.cyclotomic_polynomial(n)
        phi = len(poly) - 1
        lengths = {phi + 1, n, n + 1, 2 * n, 3 * n}
        lengths |= {rng.randint(phi + 1, 3 * n) for _ in range(4)}
        for length in sorted(lengths):
            c = [rng.randint(-10**9, 10**9) for _ in range(length)]
            assert cy._context(n).reduce(c) == reduce_by_rows(c, poly), (n, length)


def test_products_match_dense_rows():
    # a product has length 2*phi - 1, which exceeds n at a prime n > 3
    rng = random.Random(2024)
    for n in REDUCTION_CONDUCTORS:
        poly = cy.cyclotomic_polynomial(n)
        phi = len(poly) - 1
        for _ in range(5):
            a = [rng.randint(-10**6, 10**6) for _ in range(phi)]
            b = [rng.randint(-10**6, 10**6) for _ in range(phi)]
            x = cy.CyclotomicReal(n, a, 1, _trusted=True)
            y = cy.CyclotomicReal(n, b, 1, _trusted=True)
            want = reduce_by_rows(_kernel.convolve(a, b), poly)
            assert list((x * y).num) == want, n


def test_cos_pi_at_the_largest_conductor_keeps_no_table():
    # conductor 9240: dense reduction rows would hold 7320 rows of 1920
    # integers; a fresh interpreter, because _CONTEXTS outlives a test
    code = (
        "import tracemalloc\n"
        "from fractions import Fraction\n"
        "from flatbilliards.cyclotomic import cos_pi\n"
        "tracemalloc.start()\n"
        "cos_pi(Fraction(1, 4620))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cy.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert int(out.stdout) <= 4 * 2**20


def test_conductor_above_max_degree_is_refused():
    # refused from the size of n alone, or from its degree phi(n)
    big = 2 * cy.MAX_DEGREE**2 + 1
    with pytest.raises(cy.ExactError, match="MAX_DEGREE"):
        cy.cos_pi(F(1, big))
    with pytest.raises(cy.ExactError, match="MAX_DEGREE"):
        cy.sin_pi(F(1, 10007))  # conductor 20014, degree 10006
    assert cy.totient(4124) > cy.MAX_DEGREE
    with pytest.raises(cy.ExactError, match="MAX_DEGREE"):
        cy.embed(1).lift(4124)


def test_interval_refinement():
    x = cy.sin_pi(F(1, 9)) - cy.embed(F(1, 3))
    prev_width = None
    for prec in (64, 128, 256, 512):
        iv = x.interval(prec)
        assert iv.lo <= iv.hi
        w = iv.width()
        if prev_width is not None:
            assert w < prev_width / 2
        prev_width = w
    assert x.sign() == 1  # sin(pi/9) > 1/3


def test_interval_brackets_float():
    rng = random.Random(7)
    import math

    for _ in range(50):
        m = rng.randrange(1, 20)
        n = rng.randrange(m + 1, 25)
        v = cy.cos_pi(F(m, n))
        iv = v.interval(64)
        truth = math.cos(math.pi * m / n)
        assert float(iv.lo) - 1e-12 <= truth <= float(iv.hi) + 1e-12


def _trig_combinations(count=200, seed=11):
    """Seeded sums of r*cos(q*pi) and r*sin(q*pi) at conductors up to 30,
    each with its closed form evaluated by mpmath at 300 bits; every
    third one has a 3-digit rational approximation of itself taken
    away, so it nearly cancels."""
    rng = random.Random(seed)
    out = []
    with mpmath.workprec(300):
        while len(out) < count:
            d = rng.randrange(1, 16)
            v, ref = cy.embed(0), mpmath.mpf(0)
            # cos(k*pi/d) lies at conductor 2d, sin(k*pi/d) at 4d for odd d
            sin_ok = d % 2 == 0 or d <= 7
            for _ in range(rng.randrange(1, 4)):
                q = F(rng.randrange(0, 2 * d), d)
                r = F(rng.randrange(-9, 10), rng.randrange(1, 6))
                kind = "sin" if sin_ok and rng.random() < 0.5 else "cos"
                f = mpmath.sin if kind == "sin" else mpmath.cos
                v += r * cy.trig_of_rational_angle(q, kind)
                ref += _mpf(r) * f(mpmath.pi * _mpf(q))
            if len(out) % 3 == 2:
                approx = F(int(mpmath.nint(ref * 1000)), 1000)
                v -= approx
                ref -= _mpf(approx)
            assert v.n <= 30
            out.append((v, ref))
    return out


def _mpf(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _exact(x) -> F:
    return F(*mpmath.libmp.to_rational(x._mpf_))


def test_enclosures_sign_and_decimal_match_closed_forms():
    tol = F(1, 2**280)  # the 300-bit closed form's own error is far below
    for v, ref in _trig_combinations():
        truth = _exact(ref)
        for prec in (64, 128):
            iv = v.interval(prec)
            assert iv.lo - tol <= truth <= iv.hi + tol
        if abs(truth) < tol:
            assert v.sign() == 0 and v.decimal(50) == "0.0"
            continue
        assert v.sign() == (1 if truth > 0 else -1)
        assert float(v) == float(ref)  # correctly rounded
        with mpmath.workprec(300):
            assert v.decimal(50) == mpmath.nstr(ref, 50, strip_zeros=False)


def test_results_ignore_mpmath_global_precision(monkeypatch):
    values = [v for v, _ in _trig_combinations()]

    def results():
        return [
            (v.sign(), v.decimal(50), v.interval(64), float(v)) for v in values
        ]

    before = results()
    # rebuild the cosine tables while the caller's precision is low
    monkeypatch.setattr(cy, "_COS_FLOORS", {})
    saved = mpmath.mp.prec, mpmath.iv.prec
    mpmath.mp.prec = mpmath.iv.prec = 30
    try:
        after = results()
        assert (mpmath.mp.prec, mpmath.iv.prec) == (30, 30)
    finally:
        mpmath.mp.prec, mpmath.iv.prec = saved
    assert after == before


def test_decimal_digits():
    d = cy.sin_pi(F(1, 4)).decimal(50)
    assert d.startswith("0.7071067811865475244008443621048490392848359376884")


def test_pow_and_neg():
    a = cy.cos_pi(F(2, 7))
    assert a**0 == 1
    assert a**3 == a * a * a
    assert a ** (-2) == 1 / (a * a)
    assert -(-a) == a


def test_non_real_rejected():
    with pytest.raises(cy.ExactError):
        cy.CyclotomicReal(5, [0, 1, 0, 0], 1)  # bare zeta_5 is not real


def test_serialized_pair_roundtrip():
    v = cy.sin_pi(F(2, 9)) / 3
    n, coeffs = v.to_pair()
    nums = [F(c) for c in coeffs]
    den = 1
    for q in nums:
        den = den * q.denominator // __import__("math").gcd(den, q.denominator)
    rebuilt = cy.CyclotomicReal(n, [int(q * den) for q in nums], den)
    assert rebuilt == v


rational_values = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


@st.composite
def cyclo_values(draw):
    q = draw(st.fractions(min_value=0, max_value=2, max_denominator=9))
    kind = draw(st.sampled_from(["cos", "sin"]))
    scale = draw(rational_values)
    shift = draw(rational_values)
    return cy.trig_of_rational_angle(q, kind) * scale + shift


@settings(max_examples=60, deadline=None)
@given(cyclo_values(), cyclo_values(), cyclo_values())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=2, max_denominator=12))
def test_pythagorean_identity(q):
    s = cy.sin_pi(q)
    c = cy.cos_pi(q)
    assert cy.is_rational(s * s + c * c) == 1


@settings(max_examples=40, deadline=None)
@given(cyclo_values())
def test_is_rational_consistent(x):
    q = cy.is_rational(x)
    if q is not None:
        assert cy.compare(x, cy.embed(q)) == "equal"
