"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Every scalar in this package is c0 + c1*z + c2*z^2 + c3*z^3 with rational
coefficients and z = zeta_8 = e^{i*pi/4}, so z^4 = -1.  In particular
i = z^2 and sqrt(2) = z - z^3, which covers every constant the signature
theory needs (all 8th roots of unity, alpha = sqrt(i) = z) while keeping
equality decidable.

A scalar is stored as four integer numerators over one common denominator,
(n0 + n1*z + n2*z^2 + n3*z^3) / d, in canonical form: d > 0 and
gcd(n0, n1, n2, n3, d) == 1.  Equal values therefore have equal slots and
equal hashes.  Each hot operation (+, -, *, negation) does its integer
arithmetic in its own body, with no Fraction and no call to a helper but
``_make``; a product with a rational operand (n1 = n2 = n3 = 0) takes 4
integer products, not 16; and ``_make`` normalises every result, with at
most one gcd.

Roots are read off the numerators too.  ``sqrt_in_field`` applies one
quadratic-extension step down the tower Q < Q(i) < Q(zeta_8) and finds a
square root whenever one exists; ``nth_roots_in_field`` finds the n-th
roots of the form q sqrt2^e zeta^j.  On Q both take ``_integer_nth_root``
of the numerator and the denominator.

Scalars are written as text such as "1/2 - 3*w^2 + i" (w = zeta_8).  One
regular expression, ``_TERM``, defines the grammar: ``parse_scalar`` matches
it term by term, and ``format_scalar`` writes text it reads back.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import sub


class DivisionByZero(ZeroDivisionError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_new = object.__new__


def _raw(num, den):
    """An AlgebraicNumber with these slots, which must already be canonical."""
    x = _new(AlgebraicNumber)
    x.num = num
    x.den = den
    return x


def _make(n0, n1, n2, n3, d):
    """The canonical form of (n0 + n1*z + n2*z^2 + n3*z^3) / d, d != 0."""
    if d != 1:
        if d < 0:
            n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    x = _new(AlgebraicNumber)
    x.num = (n0, n1, n2, n3)
    x.den = d
    return x


def _product(a0, a1, a2, a3, b0, b1, b2, b3):
    """Numerators of (a0 + a1 z + a2 z^2 + a3 z^3)(b0 + b1 z + b2 z^2 + b3 z^3)
    reduced by z^4 = -1."""
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _turn(n0, n1, n2, n3, t):
    """Numerators of (n0 + n1 z + n2 z^2 + n3 z^3) z^t: a signed rotation."""
    c, t = (n0, n1, n2, n3, -n0, -n1, -n2, -n3), t % 8
    return c[-t], c[1 - t], c[2 - t], c[3 - t]


def _cofactor(n0, n1, n2, n3):
    """(p, norm) with x p = norm, an int, for x = n0 + n1 z + n2 z^2 + n3 z^3
    != 0: p = 1 for an int x, else sigma_3(x) sigma_5(x) sigma_7(x)."""
    if not (n1 or n2 or n3):
        return (1, 0, 0, 0), n0
    # y = x sigma_5(x) = a + b i is fixed by sigma_5, so it lies in Q(i),
    # and p = sigma_5(x) conj(y), with norm x p = y conj(y) = a^2 + b^2
    a, y1, b, y3 = _product(n0, n1, n2, n3, n0, -n1, n2, -n3)
    assert y1 == y3 == 0
    return _product(n0, -n1, n2, -n3, a, 0, -b, 0), a * a + b * b


def _numerators(xs):
    """(h, d): the numerator tuples h of the AlgebraicNumbers xs over the lcm
    d of their dens."""
    d = lcm(*(x.den for x in xs))
    return [x.num if x.den == d else tuple(c * (d // x.den) for c in x.num)
            for x in xs], d


def _cross(a, b):
    """The cross product of two triples of numerator tuples."""
    return [tuple(map(sub, _product(*a[i], *b[j]), _product(*a[j], *b[i])))
            for i, j in ((1, 2), (2, 0), (0, 1))]


def _dot(a, b):
    """The dot product of two triples of numerator tuples."""
    return tuple(map(sum, zip(*(_product(*x, *y) for x, y in zip(a, b)))))


def _entry(x):
    """(n0, n1, n2, n3, d), as ``_make`` takes them, of an AlgebraicNumber,
    int or Fraction."""
    if type(x) is AlgebraicNumber:
        return x.num + (x.den,)
    return x.numerator, 0, 0, 0, x.denominator


def _skew_rows(rows):
    """{i: {j: (n0, n1, n2, n3, d)}} of the list of sparse rows
    ``rows[i] = {j: a_ij}`` of field values (``_entry``); rows already in
    that form, a dict, are returned as they are."""
    if type(rows) is dict:
        return rows
    return {i: {j: _entry(x) for j, x in row.items()}
            for i, row in enumerate(rows)}


def _skew_pivot(rows, r, c):
    """Eliminate rows r and c of the sparse skew matrix ``rows`` (as
    ``_skew_rows`` gives it, nonzero entries only) in place: drop them and
    apply the rank-2 Schur update a_ij += (a_ci a_rj - a_ri a_cj) / p to the
    other pairs i < j, dropping entries that cancel; return the pivot
    p = a_rc != 0 as an AlgebraicNumber.  a_ci / p is formed only for an i
    below some j of row r (a_ri / p likewise), and 1/p not at all when
    either pivot row has no other entry.  A product with a rational factor
    takes 4 integer products, and a gcd runs only on a denominator other
    than 1."""
    row_r, row_c = rows.pop(r), rows.pop(c)
    p0, p1, p2, p3, dp = row_r.pop(c)
    del row_c[r]
    for i in row_r:
        del rows[i][r]
    for i in row_c:
        del rows[i][c]
    if not (row_r and row_c):
        return _make(p0, p1, p2, p3, dp)
    (q0, q1, q2, q3), dq = _cofactor(p0, p1, p2, p3)
    k = dp if dq > 0 else -dp  # 1/p = (q0 + q1 z + q2 z^2 + q3 z^3) k / |dq|
    q0, q1, q2, q3, dq = q0 * k, q1 * k, q2 * k, q3 * k, abs(dq)
    # s = a_ci / p against row r, then s = -a_ri / p against row c
    for row_j, row_s in ((row_r, row_c), (row_c, row_r)):
        top = max(row_j)
        for i, (s0, s1, s2, s3, ds) in row_s.items():
            if i >= top:
                continue
            if not (q1 or q2 or q3):
                s0, s1, s2, s3 = s0 * q0, s1 * q0, s2 * q0, s3 * q0
            else:
                s0, s1, s2, s3 = _product(s0, s1, s2, s3, q0, q1, q2, q3)
            ds *= dq
            if ds != 1:
                g = gcd(s0, s1, s2, s3, ds)
                s0, s1, s2, s3, ds = s0 // g, s1 // g, s2 // g, s3 // g, \
                    ds // g
            s_rational, row_i = not (s1 or s2 or s3), rows[i]
            for j, (a0, a1, a2, a3, da) in row_j.items():
                if j <= i:
                    continue
                if s_rational:
                    v0, v1, v2, v3 = s0 * a0, s0 * a1, s0 * a2, s0 * a3
                elif not (a1 or a2 or a3):
                    v0, v1, v2, v3 = a0 * s0, a0 * s1, a0 * s2, a0 * s3
                else:
                    v0, v1, v2, v3 = (s0 * a0 - s1 * a3 - s2 * a2 - s3 * a1,
                                      s0 * a1 + s1 * a0 - s2 * a3 - s3 * a2,
                                      s0 * a2 + s1 * a1 + s2 * a0 - s3 * a3,
                                      s0 * a3 + s1 * a2 + s2 * a1 + s3 * a0)
                dv = ds * da
                if j in row_i:
                    b0, b1, b2, b3, db = row_i[j]
                    if db == dv:
                        v0, v1, v2, v3 = v0 + b0, v1 + b1, v2 + b2, v3 + b3
                    else:
                        v0, v1, v2, v3, dv = (
                            v0 * db + b0 * dv, v1 * db + b1 * dv,
                            v2 * db + b2 * dv, v3 * db + b3 * dv, dv * db)
                    if not (v0 or v1 or v2 or v3):
                        del row_i[j], rows[j][i]
                        continue
                if dv != 1:
                    g = gcd(v0, v1, v2, v3, dv)
                    v0, v1, v2, v3, dv = v0 // g, v1 // g, v2 // g, v3 // g, \
                        dv // g
                row_i[j] = v0, v1, v2, v3, dv
                rows[j][i] = -v0, -v1, -v2, -v3, dv
        q0, q1, q2, q3 = -q0, -q1, -q2, -q3
    return _make(p0, p1, p2, p3, dp)


class AlgebraicNumber:
    """An element of Q(zeta_8): the integer numerators ``num`` =
    (n0, n1, n2, n3) over the integer denominator ``den``, in canonical form
    (den > 0, gcd(n0, n1, n2, n3, den) == 1).  Instances are not mutated."""

    __slots__ = ("num", "den")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        cs = (c0, c1, c2, c3)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("rational coefficient expected, got %r" % (c,))
        # over the lcm of lowest-terms denominators the gcd is already 1
        d = lcm(*(c.denominator for c in cs))
        self.num = tuple(c.numerator * (d // c.denominator) for c in cs)
        self.den = d

    @property
    def c(self):
        """The four coefficients c0..c3 as Fractions."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.num)

    # -- ring structure ------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, AlgebraicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return _raw((int(x.numerator), 0, 0, 0), x.denominator)
        return None

    def __add__(self, other):
        if type(other) is not AlgebraicNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        (a0, a1, a2, a3), da = self.num, self.den
        (b0, b1, b2, b3), db = other.num, other.den
        if da == db:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self.num
        x = _new(AlgebraicNumber)
        x.num = (-n0, -n1, -n2, -n3)
        x.den = self.den
        return x

    def __sub__(self, other):
        if type(other) is not AlgebraicNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        (a0, a1, a2, a3), da = self.num, self.den
        (b0, b1, b2, b3), db = other.num, other.den
        if da == db:
            return _make(a0 - b0, a1 - b1, a2 - b2, a3 - b3, da)
        return _make(a0 * db - b0 * da, a1 * db - b1 * da,
                     a2 * db - b2 * da, a3 * db - b3 * da, da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not AlgebraicNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a0, a1, a2, a3 = self.num
        b0, b1, b2, b3 = other.num
        d = self.den * other.den
        # a rational operand scales the other's numerators: 4 products
        if not (b1 or b2 or b3):
            return _make(a0 * b0, a1 * b0, a2 * b0, a3 * b0, d)
        if not (a1 or a2 or a3):
            return _make(a0 * b0, a0 * b1, a0 * b2, a0 * b3, d)
        # the negacyclic product, reduced by z^4 = -1 (as in _product)
        return _make(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                     a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                     a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0, d)

    __rmul__ = __mul__

    def galois(self, k):
        """The automorphism z -> z^k for odd k."""
        assert k % 2 == 1
        k %= 8
        if k == 1:
            return self
        n0, n1, n2, n3 = self.num
        if k == 3:
            return _raw((n0, n3, -n2, n1), self.den)
        if k == 5:
            return _raw((n0, -n1, n2, -n3), self.den)
        return _raw((n0, -n3, -n2, -n1), self.den)

    def conj(self):
        """Complex conjugation: z -> z^7 = -z^3."""
        return self.galois(7)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("division by zero in Q(zeta_8)")
        p, norm = _cofactor(*self.num)
        d = self.den
        return _make(p[0] * d, p[1] * d, p[2] * d, p[3] * d, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        r = ONE
        b = self
        while e:
            if e & 1:
                r = b if r is ONE else r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def __eq__(self, other):
        if type(other) is not AlgebraicNumber:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "AN(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.num == (0, 0, 0, 0)

    def is_rational(self):
        return self.num[1:] == (0, 0, 0)

    def rational(self):
        assert self.is_rational()
        return Fraction(self.num[0], self.den)

    def norm_sq(self):
        return self * self.conj()


ZERO = AlgebraicNumber(0)
ONE = AlgebraicNumber(1)
TWO = AlgebraicNumber(2)
ZETA = AlgebraicNumber(0, 1)          # zeta_8, the primitive eighth root of unity
I = AlgebraicNumber(0, 0, 1)          # i = zeta_8^2
SQRT2 = AlgebraicNumber(0, 1, 0, -1)  # sqrt(2) = zeta - zeta^3


def AN(x):
    """Coerce an int/Fraction/str/AlgebraicNumber to an AlgebraicNumber."""
    if type(x) is AlgebraicNumber:
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    y = AlgebraicNumber._coerce(x)
    if y is None:
        raise TypeError("cannot make an AlgebraicNumber from %r" % (x,))
    return y


def rational_quotients(x, m, s):
    """x / (sqrt2^m zeta^(j s)) for j = 0..7, each a Fraction where it is
    rational, else None: one sqrt2 step, then signed rotations."""
    num, d = x.num, x.den << (m // 2)
    if m % 2:
        num, d = _product(*num, *SQRT2.num), 2 * d
    return [None if any(y[1:]) else Fraction(y[0], d)
            for y in (_turn(*num, -j * s) for j in range(8))]


# -- roots --------------------------------------------------------------
#
# Q < Q(i) < Q(zeta_8) is a tower of two quadratic extensions: Q(i) = Q(r)
# with r = i, and Q(zeta_8) = Q(i)(r) with r = sqrt2.  With D = r^2 and
# a, b, c, e in the level below, (c + e r)^2 = (c^2 + D e^2) + 2 c e r, so
# the square root of a + b r is
#   for b = 0: sqrt(a), or else sqrt(a / D) r;
#   for b != 0: c + (b / 2c) r, where c != 0 and
#   c^2 = (a +- sqrt(a^2 - D b^2)) / 2, tried with + first.
# Each level reads a and b off the numerators, and the rational level takes
# the integer roots of the coprime numerator and denominator.  The search is
# complete: None means that x has no square root in Q(zeta_8).

def _integer_nth_root(m, n):
    """The integer c >= 0 with c^n = m for an integer m >= 0, or None.

    Newton's iteration on integers, as in math.isqrt: it starts above the
    root and decreases to floor(m^(1/n)), so no float is involved."""
    if m < 2:
        return m
    c = 1 << -(-m.bit_length() // n)
    while True:
        d = ((n - 1) * c + m // c ** (n - 1)) // n
        if d >= c:
            break
        c = d
    return c if c ** n == m else None


def _rational_nth_root(r, n):
    """An exact rational q with q^n = r, or None."""
    if r == 0:
        return Fraction(0)
    neg = r < 0
    if neg and n % 2 == 0:
        return None
    p, q = _integer_nth_root(abs(r.numerator), n), \
        _integer_nth_root(r.denominator, n)
    if p is None or q is None:
        return None
    out = Fraction(p, q)
    return -out if neg else out


_HALF = _raw((1, 0, 0, 0), 2)


def _sqrt_at(x, level):
    """A square root of x in Q, Q(i) or Q(zeta_8) (level 0, 1, 2), for x in
    that level, or None when it has none there."""
    (n0, n1, n2, n3), d = x.num, x.den
    if level == 0:
        if n0 < 0:
            return None
        p, q = _integer_nth_root(n0, 2), _integer_nth_root(d, 2)
        return None if p is None or q is None else _raw((p, 0, 0, 0), q)
    if level == 1:  # x = n0/d + (n2/d) i
        r, D, inv_D = I, -ONE, -ONE
        a, b = _make(n0, 0, 0, 0, d), _make(n2, 0, 0, 0, d)
    else:  # x = (n0 + n2 i)/d + ((n1 - n3 + (n1 + n3) i)/2d) sqrt2
        r, D, inv_D = SQRT2, TWO, _HALF
        a, b = _make(n0, 0, n2, 0, d), _make(n1 - n3, 0, n1 + n3, 0, 2 * d)
    level -= 1
    if b.is_zero():
        c = _sqrt_at(a, level)
        if c is None:
            c = _sqrt_at(a * inv_D, level)
            return None if c is None else c * r
        return c
    s = _sqrt_at(a * a - D * b * b, level)
    if s is None:
        return None
    for t in (a + s, a - s):
        c = _sqrt_at(t * _HALF, level)
        if c:  # neither None nor 0
            return c + b / (TWO * c) * r
    return None


def sqrt_in_field(x):
    """A y with y*y = x, or None when no such y exists in Q(zeta_8)."""
    return _sqrt_at(AN(x), 2)


def nth_roots_in_field(w, n):
    """The q * sqrt2^e * zeta^j (q rational; e = 0, 1, j = 0..7 in turn)
    whose n-th power is w, read from the rational w / (sqrt2^(en)
    zeta^(jn)).  Best effort: roots of other shapes are missed, such as
    (119 + 120 i)/169 for n = 3, and a set whose witness needs one is PHard."""
    roots = []
    for e in (0, 1):
        for j, r in enumerate(rational_quotients(w, e * n, n)):
            q = r is not None and _rational_nth_root(r, n)
            if q:  # False or None: no rational root; 0: w = 0
                cand = AN(q) * SQRT2 ** e * ZETA ** j
                if cand not in roots:
                    roots.append(cand)
    return roots


# -- parsing and formatting ---------------------------------------------

# One signed term of a scalar, with whitespace around it: i, w^e, p/q or
# p/q*w^e, where /q and ^e may be left out; (?(p)...) asks for the '*' only
# after a coefficient p.  An integer carries its own sign only right after
# '/' or '^'.  \d and \s match exactly the characters for which
# str.isdecimal and str.isspace hold, so every digit run reads with int().
_TERM = re.compile(r"""\s* (?P<sign>[+-]?) \s* (?:
      (?P<i> i )
    | (?: (?P<p> \d+ ) (?: \s*/\s* (?P<q> [+-]?\d+ ) )? )?
      (?: (?(p) \s*\*\s* ) (?P<w> w ) (?: \s*\^\s* (?P<e> [+-]?\d+ ) )? )?
    ) \s*""", re.VERBOSE)


# Python 3.11 limits int() and "%d" to 4,300 digits by default; _int and
# _digits split longer integers in halves (13,000 bits is under 3,914 digits)
_DIGITS, _BITS = 4000, 13000


def _int(s):
    """int(s) for a signed run of decimal digits of any length."""
    if len(s) <= _DIGITS:
        return int(s)
    k = len(s) // 2
    low = _int(s[k:])
    return _int(s[:k]) * 10 ** (len(s) - k) + (-low if s[0] == "-" else low)


def _digits(n):
    """"%d" % n for an integer n >= 0 of any length."""
    if n.bit_length() <= _BITS:
        return "%d" % n
    k = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def parse_scalar(text):
    """The scalar written in ``text`` as a sum of terms (see ``_TERM``), the
    first with an optional sign and every later one with its own; for
    example "1/2 - 3*w^2 + i".  ParseError at the first term that fails."""
    # the value is acc / den, with acc the numerators of 1, w, w^2, w^3
    acc = [0, 0, 0, 0]
    den = 1
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, i, p, q, w, e = m.groups()
        if not (i or p or w) or (pos and not sign):
            raise ParseError("malformed term", pos)
        p = _int(sign + (p or "1"))
        q = _int(q or "1")
        if q == 0:
            raise ParseError("zero denominator", pos)
        e = (2 if i else _int(e or "1") if w else 0) % 8
        if e >= 4:
            p, e = -p, e - 4
        if den % q:
            k = lcm(den, q) // den
            acc = [a * k for a in acc]
            den *= k
        acc[e] += p * (den // q)
        pos = m.end()
        if pos == len(text):
            return _make(*acc, den)


def format_scalar(x):
    x = AN(x)
    d = x.den
    parts = []
    for k, v in enumerate(x.num):
        if v == 0:
            continue
        g = gcd(v, d)
        mag = _digits(abs(v) // g) + ("/" + _digits(d // g) if g != d else "")
        if k == 0:
            body = mag
        else:
            sym = "w" if k == 1 else "w^%d" % k
            body = sym if mag == "1" else "%s*%s" % (mag, sym)
        if not parts:
            parts.append(body if v > 0 else "-" + body)
        else:
            parts.append(("+ " if v > 0 else "- ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


# sanity checks on the defining relations
assert ZETA * ZETA == I
assert (ONE + I) * (ONE - I) == TWO
assert ZETA.inv() == -ZETA ** 3
assert SQRT2 * SQRT2 == TWO
assert parse_scalar("w^4") == -ONE
