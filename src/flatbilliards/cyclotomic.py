"""Exact arithmetic in real subfields of cyclotomic fields.

A value is stored as an integer polynomial in zeta_n (a primitive n-th
root of unity) over a common denominator, reduced modulo the n-th
cyclotomic polynomial Phi_n: exponents fold mod n, since zeta_n**n = 1,
then a long division by Phi_n's nonzero terms (`_kernel.remainder`)
leaves phi(n) coefficients.  Only values fixed by complex conjugation (real
values) are allowed through the public constructors.  Each sum,
difference, negation and product is built once, in the stored form
(`_stored`), at the lcm of its operands' conductors: a difference
combines the coefficients directly, and operands over one denominator
add with no scaling.  Equality is exact.  Signs, intervals, floats and
decimals come from one integer enclosure: at precision p, sum c_j*C_j
with each integer C_j less than 2 units below 2**p*cos(2*pi*j/n)
(midpoint-radius arithmetic, as in Johansson's Arb).  A sign doubles p
until the enclosure excludes 0, so no result depends on floating point.

The canonical form of a value (`key()`) is its power basis form at the
smallest conductor whose field holds it, over a positive denominator
prime to the coefficients; this form is unique.  It is reached by prime
descent: for each prime p of n, step to n/p while the value lies in
Q(zeta_{n/p}), a test that reads coefficients (`_descend`).  The
conductors whose fields hold a value are closed under gcd, so one pass
over the primes reaches the smallest.

Square roots are not a primitive: surd identities are verified by
polynomial relations on trig combinations instead.

Every conductor n has phi(n) <= MAX_DEGREE; a larger one is refused
with ExactError before anything is built for it.  The module's tables
(_CONTEXTS per conductor, holding phi(n) and at most phi(n) + 1 terms
of Phi_n; _COS_FLOORS per conductor and precision; _TRIG_CACHE per
angle) are never evicted: in a long-lived process they grow with each
new conductor, precision and angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from . import _kernel

_MIN_PREC = 64


class ExactError(ValueError):
    """Domain error in exact arithmetic."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor reduction data


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    """Euler's phi: the degree of Q(zeta_n), and the number of
    coefficients of a value stored at conductor n."""
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low first:
    for n > 1, the power series prod over d | n of (1 - x**d)**mu(n/d),
    one pass over phi(n) + 1 coefficients per squarefree n/d."""
    if n == 1:
        return (-1, 1)
    phi = totient(n)
    poly = [1] + [0] * phi
    primes = prime_factors(n)
    for mask in range(1 << len(primes)):
        d = n
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d //= p
        if bin(mask).count("1") % 2 == 0:
            for j in range(phi, d - 1, -1):
                poly[j] -= poly[j - d]
        else:
            for j in range(d, phi + 1):
                poly[j] += poly[j - d]
    return tuple(poly)


class _Context:
    """Reduction data for one conductor n: phi(n) and the nonzero terms
    (j, a) of Phi_n below its leading x**phi."""

    __slots__ = ("n", "phi", "terms")

    def __init__(self, n: int):
        poly = cyclotomic_polynomial(n)
        self.n = n
        self.phi = len(poly) - 1
        self.terms = tuple((j, a) for j, a in enumerate(poly[:-1]) if a)

    def reduce(self, coeffs: list[int]) -> list[int]:
        return _kernel.remainder(coeffs, self.n, self.phi, self.terms)


_CONTEXTS: dict[int, _Context] = {}

# the largest degree phi(n) of a conductor n.  A product costs about
# phi(n)**2, and cos_pi's division by Phi_n (n - phi(n)) times Phi_n's
# nonzero terms, with no stored table: on one Xeon core `analyze
# --triangle 1/2,1/997,995/1994` (n 3988, phi 1992) takes about 0.6 s
# and 30 MiB, and 1/2,1/4620,2309/4620 at the largest admitted n, 9240,
# about 1.0 s and 41 MiB.
MAX_DEGREE = 2048


def _context(n: int) -> _Context:
    ctx = _CONTEXTS.get(n)
    if ctx is None:
        # phi(n) >= sqrt(n / 2): a larger n needs no factoring
        if n > 2 * MAX_DEGREE ** 2 or totient(n) > MAX_DEGREE:
            raise ExactError(f"conductor {n} exceeds MAX_DEGREE {MAX_DEGREE}")
        ctx = _Context(n)
        _CONTEXTS[n] = ctx
    return ctx


def _descend(n: int, num, p: int):
    """The coefficients at conductor m = n/p (p a prime dividing n) of
    the value with coefficients num at conductor n, or None if the value
    is not in Q(zeta_m)."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x**p): 1, zeta_n, .., zeta_n**(p-1) is a basis
        # of Q(zeta_n) over Q(zeta_m), with the coefficient of zeta_n**s
        # read from num[s::p]
        if any(any(num[s::p]) for s in range(1, p)):
            return None
        return num[::p]
    # zeta_n**j = zeta_m**(j*a) * zeta_p**(j*b), so the value is
    # sum_r A_r*zeta_p**r with A_r in Q(zeta_m).  Q(zeta_m) and Q(zeta_p)
    # meet in Q, so 1, zeta_p, .., zeta_p**(p-2) is a basis over
    # Q(zeta_m) and zeta_p**(p-1) = -(1 + .. + zeta_p**(p-2)): the value
    # is in Q(zeta_m) iff A_1 = .. = A_(p-1), and is then A_0 - A_1.
    a, b = pow(p, -1, m), pow(m, -1, p)
    parts = [[0] * m for _ in range(p)]
    for j, c in enumerate(num):
        if c:
            parts[j * b % p][j * a % m] += c
    a0, a1, *rest = map(_context(m).reduce, parts)
    if any(ar != a1 for ar in rest):
        return None
    return [x - y for x, y in zip(a0, a1)]


# ---------------------------------------------------------------------------
# certified intervals


@dataclass(frozen=True)
class Interval:
    """Certified enclosure lo <= value <= hi at a working precision."""

    lo: Fraction
    hi: Fraction
    precision_bits: int

    def width(self):
        return self.hi - self.lo


# (n, p) -> C_j for j < phi(n), with 0 <= 2**p * cos(2*pi*j/n) - C_j < 2
_COS_FLOORS: dict[tuple[int, int], list[int]] = {}


def _cos_floors(n: int, phi: int, prec: int) -> list[int]:
    """Floors of the lower ends of libmp enclosures at prec + 16 bits,
    which are far narrower than 2**-prec; C_0 = 2**prec is exact."""
    table = _COS_FLOORS.get((n, prec))
    if table is None:
        w = prec + 16
        pi = [libmp.mpf_pi(w, r) for r in "fc"]
        table = [1 << prec]
        for j in range(1, phi):
            q = [libmp.from_rational(2 * j, n, w, r) for r in "fc"]
            lo, _ = libmp.mpi_cos(libmp.mpi_mul(pi, q, w), w)
            table.append(libmp.to_int(libmp.mpf_shift(lo, prec), "f"))
        _COS_FLOORS[(n, prec)] = table
    return table


def _eval_interval(n: int, num: tuple[int, ...], den: int, prec: int) -> tuple:
    """(s, err): value * den * 2**prec lies in [s - err, s + err].  Call it
    by its module name (see the CyclotomicReal docstring)."""
    cosines = _cos_floors(n, len(num), prec)
    s = sum(c * C for c, C in zip(num, cosines))
    return s, 2 * sum(abs(c) for c in num[1:])


# ---------------------------------------------------------------------------
# the number type


class CyclotomicReal:
    """A real element of Q(zeta_n), immutable.

    Internal form: (num, den) where num is a tuple of ints of length
    phi(n) giving the numerator polynomial in zeta_n, reduced mod the
    n-th cyclotomic polynomial, and den is a positive int prime to them.
    At a given n this form is unique.

    perfbench/tracing.py wraps __mul__, __rmul__, sign, inverse and key
    on this class, and _eval_interval and _kernel.mul_reduced on their
    modules.  It sees only calls made through those class or module
    attributes: a product is made only by __mul__, which calls
    _kernel.mul_reduced by its module attribute when phi(n) > 1, and a
    sum or difference calls neither.
    """

    __slots__ = ("n", "num", "den", "_key")

    def __init__(self, n: int, num, den: int, _trusted: bool = False):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        num = list(num)
        ctx = _context(n)
        if len(num) != ctx.phi:
            num = ctx.reduce(num)
        self._store(n, num, den)
        if not _trusted and not self._is_conjugation_fixed():
            raise ExactError("value is not real (not fixed by conjugation)")

    def _store(self, n: int, num, den: int) -> "CyclotomicReal":
        """Fill in the stored form from phi(n) reduced coefficients over
        den > 0: the gcd is divided out, and nothing else is checked."""
        g = math.gcd(*num, den)
        if g > 1:
            num = [c // g for c in num]
            den //= g
        self.n = n
        self.num = tuple(num)
        self.den = den
        self._key = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CyclotomicReal":
        q = Fraction(q)
        return _stored(1, [q.numerator], q.denominator)

    # -- representation helpers --------------------------------------------

    def _is_conjugation_fixed(self) -> bool:
        n = self.n
        if n <= 2:
            return True
        coeffs = [0] * n
        for j, c in enumerate(self.num):
            coeffs[-j % n] += c
        return tuple(_context(n).reduce(coeffs)) == self.num

    def lift(self, m: int) -> "CyclotomicReal":
        """Rewrite at conductor m (n must divide m)."""
        n = self.n
        if m == n:
            return self
        if m % n != 0:
            raise ExactError(f"cannot lift conductor {n} to {m}")
        ctx = _context(m)
        step = m // n
        coeffs = [0] * ((len(self.num) - 1) * step + 1)
        for j, c in enumerate(self.num):
            coeffs[j * step] = c
        return _stored(m, ctx.reduce(coeffs), self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def _canonical(self) -> "CyclotomicReal":
        """Rewrite at the smallest conductor whose field contains it."""
        n, num = self.n, self.num
        for p in prime_factors(n):
            while n % p == 0:
                down = _descend(n, num, p)
                if down is None:
                    break
                n, num = n // p, down
        return _stored(n, num, self.den)

    def key(self):
        """Canonical hashable key: equal values share equal keys."""
        if self._key is None:
            c = self._canonical()
            self._key = (c.n, c.num, c.den)
        return self._key

    def canonical(self) -> "CyclotomicReal":
        key = self.key()
        out = _stored(*key)
        out._key = key
        return out

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, CyclotomicReal):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicReal.from_rational(other)
        return None

    def _aligned(self, other: "CyclotomicReal"):
        if self.n == other.n:
            return self, other
        n = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(n), other.lift(n)

    def _combine(self, other, sign: int):
        """self + sign*other (sign 1 or -1), built once at the lcm of the
        conductors, with no scaling when the denominators agree."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        if a.den == b.den:
            den = a.den
            if sign > 0:
                num = [x + y for x, y in zip(a.num, b.num)]
            else:
                num = [x - y for x, y in zip(a.num, b.num)]
        else:
            den = math.lcm(a.den, b.den)
            fa = den // a.den
            fb = sign * (den // b.den)
            num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
        return _stored(a.n, num, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _stored(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        ctx = _context(a.n)
        if ctx.phi == 1:
            num = [a.num[0] * b.num[0]]
        else:
            # through the module attribute (see the class docstring)
            num = _kernel.mul_reduced(a.num, b.num, ctx.n, ctx.phi, ctx.terms)
        return _stored(a.n, num, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicReal":
        if self.is_zero:
            raise ZeroDivisionError("division by exact zero")
        # eliminate at the smallest conductor: the system is phi x phi
        c = self.canonical()
        ctx = _context(c.n)
        cols = [ctx.reduce([0] * j + list(c.num)) for j in range(ctx.phi)]
        sol = _solve_unit_system(cols)
        den = math.lcm(*(s.denominator for s in sol))
        num = [int(s * den) * c.den for s in sol]
        return _stored(c.n, num, den).lift(self.n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicReal.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self):
        # a value equal to an int or Fraction must hash as it does
        q = self.as_rational()
        return hash(self.key()) if q is None else hash(q)

    def interval(self, precision_bits: int = _MIN_PREC) -> Interval:
        s, err = _eval_interval(self.n, self.num, self.den, precision_bits)
        scale = self.den << precision_bits
        return Interval(
            Fraction(s - err, scale), Fraction(s + err, scale), precision_bits
        )

    def sign(self) -> int:
        """Certified sign: -1, 0 or 1."""
        if self.is_zero:
            return 0
        prec = _MIN_PREC
        while True:
            s, err = _eval_interval(self.n, self.num, self.den, prec)
            if abs(s) > err:
                return 1 if s > 0 else -1
            prec *= 2

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() >= 0

    def __bool__(self):
        return not self.is_zero

    def __float__(self):
        """Correctly rounded: refine until both ends of the enclosure round
        alike.  Irrationals are no rounding midpoints; rationals have err 0."""
        prec = _MIN_PREC
        while True:
            s, err = _eval_interval(self.n, self.num, self.den, prec)
            scale = self.den << prec
            lo = (s - err) / scale
            if lo == (s + err) / scale:
                return lo
            prec *= 2

    def decimal(self, digits: int = 50) -> str:
        """Decimal string correct to the requested number of significant
        digits: the enclosure is refined to a relative radius of at most
        2**(-3.4 * digits)."""
        bits = int(digits * 3.4)
        prec = max(_MIN_PREC, bits + 32)
        while True:
            s, err = _eval_interval(self.n, self.num, self.den, prec)
            if abs(s) >> bits >= err:
                break
            prec *= 2
        mid = libmp.from_rational(s, self.den << prec, prec, "n")
        return libmp.to_str(mid, digits, strip_zeros=False)

    # -- queries -------------------------------------------------------------

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        q = self.as_rational()
        if q is not None:
            return f"CyclotomicReal({q})"
        return (
            f"CyclotomicReal(conductor={self.n}, ~{float(self):.6f})"
        )

    def to_pair(self):
        """Canonical (conductor, coefficient strings) serialized form."""
        c = self.canonical()
        return c.n, [f"{x}/{c.den}" if c.den != 1 else str(x) for x in c.num]


def _stored(n: int, num, den: int) -> CyclotomicReal:
    """The value with phi(n) coefficients num, already reduced mod Phi_n,
    over den > 0: no copy, reduction or conjugation check, only the gcd
    divided out.  Every arithmetic result is built here, once."""
    return object.__new__(CyclotomicReal)._store(n, num, den)


def _solve_unit_system(cols) -> list[Fraction]:
    """Solve sum_j x_j*cols[j] = e_0 for a nonsingular square system.

    Fraction-free Gauss-Jordan elimination: rows stay integer and are
    divided by their content after each step, so no Fraction enters the
    loop.  Every column has a pivot, since the matrix is nonsingular.
    """
    size = len(cols)
    # augmented matrix, rows = equations
    mat = [[col[i] for col in cols] + [int(i == 0)] for i in range(size)]
    for c in range(size):
        pivot = next(i for i in range(c, size) if mat[i][c])
        mat[c], mat[pivot] = mat[pivot], mat[c]
        prow = mat[c]
        pv = prow[c]
        for i in range(size):
            row = mat[i]
            f = row[c]
            if i != c and f:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
    return [Fraction(mat[i][size], mat[i][i]) for i in range(size)]


# ---------------------------------------------------------------------------
# public operations


ZERO = CyclotomicReal.from_rational(0)
ONE = CyclotomicReal.from_rational(1)


def embed(q) -> CyclotomicReal:
    """A rational number as a CyclotomicReal."""
    return CyclotomicReal.from_rational(q)


_TRIG_CACHE: dict[Fraction, CyclotomicReal] = {}


def cos_pi(q) -> CyclotomicReal:
    """Exact cos(q*pi) for rational q."""
    q = Fraction(q) % 2
    cached = _TRIG_CACHE.get(q)
    if cached is not None:
        return cached
    n = q.denominator
    m = q.numerator
    c = 2 * n
    ctx = _context(c)
    coeffs = [0] * c
    coeffs[m % c] += 1
    coeffs[(-m) % c] += 1
    value = _stored(c, ctx.reduce(coeffs), 2)
    _TRIG_CACHE[q] = value
    return value


def sin_pi(q) -> CyclotomicReal:
    """Exact sin(q*pi) for rational q."""
    return cos_pi(Fraction(1, 2) - Fraction(q))


def trig_of_rational_angle(q, kind: str) -> CyclotomicReal:
    """Exact cos or sin of q*pi; kind is 'cos' or 'sin'."""
    if kind == "cos":
        return cos_pi(q)
    if kind == "sin":
        return sin_pi(q)
    raise ExactError(f"unknown trig kind: {kind!r}")


def is_rational(x: CyclotomicReal):
    """The exact rational value of x, or None when x is irrational."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x.as_rational()


def compare(x: CyclotomicReal, y: CyclotomicReal) -> str:
    """'less', 'equal' or 'greater', decided exactly."""
    x = CyclotomicReal._coerce(x)
    y = CyclotomicReal._coerce(y)
    s = (x - y).sign()
    return {-1: "less", 0: "equal", 1: "greater"}[s]


# ---------------------------------------------------------------------------
# constant-expression parser


class ParseError(ValueError):
    """Syntax error in a constant expression, with offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_INT = "int"
_TOKEN_NAME = "name"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((_TOKEN_INT, int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append((_TOKEN_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+-*/()":
            tokens.append((_TOKEN_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOKEN_END, None, len(text)))
    return tokens


# Deepest nesting (parentheses, trig calls, unary minus) that
# parse_constant accepts: each level takes four Python stack frames.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, position = self.next()
        if kind != _TOKEN_OP or value != op:
            raise ParseError(f"expected {op!r}", position)

    def parse(self) -> CyclotomicReal:
        value = self.expr()
        kind, _, position = self.peek()
        if kind != _TOKEN_END:
            raise ParseError("trailing input", position)
        return value

    def expr(self) -> CyclotomicReal:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == _TOKEN_OP and op in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> CyclotomicReal:
        value = self.factor()
        while True:
            kind, op, position = self.peek()
            if kind == _TOKEN_OP and op in "*/":
                self.next()
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ZeroDivisionError(
                            f"division by exact zero (at position {position})"
                        )
                    value = value / rhs
            else:
                return value

    def factor(self) -> CyclotomicReal:
        kind, value, position = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING}", position)
        if kind == _TOKEN_OP and value == "-":
            self.next()
            result = -self.factor()
        else:
            result = self.atom()
        self.depth -= 1
        return result

    def atom(self) -> CyclotomicReal:
        kind, value, position = self.next()
        if kind == _TOKEN_INT:
            return embed(value)
        if kind == _TOKEN_NAME:
            if value not in ("sin", "cos"):
                raise ParseError(f"unknown name {value!r}", position)
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            q = is_rational(arg)
            if q is None:
                raise ParseError(
                    f"argument of {value} must be rational", position
                )
            return trig_of_rational_angle(q, value)
        if kind == _TOKEN_OP and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", position)


def parse_constant(text: str) -> CyclotomicReal:
    """Parse an exact constant expression.

    Grammar: integers, sin(q)/cos(q) with rational q meaning
    sin(q*pi)/cos(q*pi), operators + - * / and parentheses.  Nesting
    deeper than MAX_NESTING levels is a ParseError.
    """
    return _Parser(text).parse()
