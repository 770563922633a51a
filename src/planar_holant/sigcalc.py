"""Symmetric-signature calculus.

A symmetric signature of arity n is the list [f_0, ..., f_n] of values by
input Hamming weight.  Three derived objects are made on first use and
kept with it: its Z image (Z^-1)^{tensor n} f (``zhat()``), whose
``support()`` (nonzero indices) decides the Z-side classes; its degenerate
form c * u^{tensor n} (``degenerate_form()``), which every degeneracy test
and class recogniser reads; and its order-2 tensor decomposition
(``decomposition()``), from which the transformable families are read.
This module provides the derivative/integral calculus, holographic
transforms T^{tensor n} in O(n^2) by Taylor shifts, recurrences from the
closed-form kernel of the rows (f_k, f_{k+1}, f_{k+2}), two-term tensor
decompositions read in closed form from its first triple, vanishing degrees
and arity-4 signature matrices.  Transforms, kernels and degeneracy tests
run on integer numerators over one denominator.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, mul, sub

from .algebra import (AN, AlgebraicNumber, ONE, ZERO, I, _cofactor, _cross,
                      _dot, _make, _numerators, _product, sqrt_in_field)


class ArityError(ValueError):
    pass


class SymmetricSignature:
    __slots__ = ("entries", "_zhat", "_deg", "_dec", "_hash", "_supp")

    def __init__(self, entries):
        es = tuple(AN(e) for e in entries)
        if not es:
            raise ArityError("a signature needs at least one entry")
        self.entries = es
        self._zhat = None
        self._deg = False  # not yet computed; None when not degenerate
        self._dec = None
        self._hash = None
        self._supp = None

    @property
    def arity(self):
        return len(self.entries) - 1

    def __getitem__(self, k):
        return self.entries[k]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, SymmetricSignature) and self.entries == other.entries

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        return "Sig[%s]" % ", ".join(str(e) for e in self.entries)

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def scale(self, c):
        c = AN(c)
        return SymmetricSignature([c * e for e in self.entries])

    def __add__(self, other):
        if self.arity != other.arity:
            raise ArityError("arity mismatch")
        return SymmetricSignature([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def reversed(self):
        return SymmetricSignature(self.entries[::-1])

    def support(self):
        """The indices k with f_k != 0, in increasing order, computed on first
        use and kept with the signature."""
        if self._supp is None:
            self._supp = tuple(k for k, e in enumerate(self.entries)
                               if not e.is_zero())
        return self._supp

    def zhat(self):
        """The signature read in the Z basis, (Z^-1)^{tensor n} f, computed
        on first use and kept with the signature."""
        if self._zhat is None:
            self._zhat = transform(Z_INV, self)
        return self._zhat

    def degenerate_form(self):
        """The degenerate form ``_degenerate_form(self)``, computed on first
        use and kept with the signature."""
        if self._deg is False:
            self._deg = _degenerate_form(self)
        return self._deg

    def decomposition(self):
        """The order-2 tensor decomposition ``tensor_decompose(self)``, computed
        on first use and kept with the signature."""
        if self._dec is None:
            self._dec = tensor_decompose(self)
        return self._dec


def sig(entries):
    return SymmetricSignature(entries)


# -- constructors --------------------------------------------------------

def equality(k):
    """=_k = [1,0,...,0,1]."""
    if k < 1:
        raise ArityError("equality needs arity >= 1")
    return SymmetricSignature([1] + [0] * (k - 1) + [1])


def diseq2():
    """The binary disequality [0,1,0]."""
    return SymmetricSignature([0, 1, 0])


def exact_one(k):
    if k < 1:
        raise ArityError("exact_one needs arity >= 1")
    return SymmetricSignature([0, 1] + [0] * (k - 1))


def all_but_one(k):
    if k < 1:
        raise ArityError("all_but_one needs arity >= 1")
    return SymmetricSignature([0] * (k - 1) + [1, 0])


def gen_eq(a, b, k):
    """Generalized equality [a,0,...,0,b] of arity k."""
    if k < 2:
        raise ArityError("gen_eq needs arity >= 2")
    return SymmetricSignature([a] + [0] * (k - 1) + [b])


def degenerate(u, k):
    """u^{tensor k} for a unary u = [u0, u1]; u^{tensor 0} = [1]."""
    if k < 0:
        raise ArityError("degenerate needs arity >= 0")
    p0, p1 = (list(accumulate([AN(x)] * k, mul, initial=ONE)) for x in u)
    return SymmetricSignature([p0[k - j] * p1[j] for j in range(k + 1)])


def sym_n_n1(u, v, n):
    """Sym_n^{n-1}(u; v): n-1 copies of u and one v, symmetrized; entry k is
    k v1 u0^{n-k} u1^{k-1} + (n-k) v0 u0^{n-k-1} u1^k."""
    p0, p1 = (list(accumulate([AN(x)] * n, mul, initial=ONE)) for x in u)
    v0, v1 = AN(v[0]), AN(v[1])
    return SymmetricSignature(
        [(AN(k) * v1 * p1[k - 1] * p0[n - k] if k else ZERO)
         + (AN(n - k) * v0 * p0[n - k - 1] * p1[k] if k < n else ZERO)
         for k in range(n + 1)])


# -- 2x2 transforms -------------------------------------------------------

class Transform2x2:
    __slots__ = ("t00", "t01", "t10", "t11")

    def __init__(self, t00, t01, t10, t11):
        self.t00, self.t01 = AN(t00), AN(t01)
        self.t10, self.t11 = AN(t10), AN(t11)

    def det(self):
        return self.t00 * self.t11 - self.t01 * self.t10

    def is_invertible(self):
        return not self.det().is_zero()

    def is_orthogonal(self):
        # T * T^t = identity
        return (
            self.t00 * self.t00 + self.t01 * self.t01 == ONE
            and self.t10 * self.t10 + self.t11 * self.t11 == ONE
            and (self.t00 * self.t10 + self.t01 * self.t11).is_zero()
        )

    def inverse(self):
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("singular transform")
        s = d.inv()
        return Transform2x2(self.t11 * s, -self.t01 * s, -self.t10 * s, self.t00 * s)

    def transpose(self):
        return Transform2x2(self.t00, self.t10, self.t01, self.t11)

    def __matmul__(self, other):
        return Transform2x2(
            self.t00 * other.t00 + self.t01 * other.t10,
            self.t00 * other.t01 + self.t01 * other.t11,
            self.t10 * other.t00 + self.t11 * other.t10,
            self.t10 * other.t01 + self.t11 * other.t11,
        )

    def apply(self, u):
        return (self.t00 * AN(u[0]) + self.t01 * AN(u[1]),
                self.t10 * AN(u[0]) + self.t11 * AN(u[1]))

    def scale(self, c):
        c = AN(c)
        return Transform2x2(c * self.t00, c * self.t01, c * self.t10, c * self.t11)

    def __eq__(self, other):
        return (isinstance(other, Transform2x2)
                and (self.t00, self.t01, self.t10, self.t11)
                == (other.t00, other.t01, other.t10, other.t11))

    def __repr__(self):
        return "[[%s, %s], [%s, %s]]" % (self.t00, self.t01, self.t10, self.t11)


def identity2():
    return Transform2x2(1, 0, 0, 1)


def diag(a, b):
    return Transform2x2(a, 0, 0, b)


# unnormalized basis changes; induced scalars are tracked at use sites
Z = Transform2x2(1, 1, I, -I)
H2 = Transform2x2(1, 1, 1, -1)
Z_INV = Z.inverse()


def _scale(h, q, p):
    """h_k <- h_k q^(n-k) p^k in place for numerator tuples q, p: h_k *=
    (p/q)^k, times q^n."""
    n = len(h) - 1
    for x, ks in ((p, range(1, n + 1)), (q, range(n - 1, -1, -1))):
        if x != ONE.num:
            y = x
            for k in ks:
                h[k] = _product(*h[k], *y)
                y = _product(*y, *x)


def _shift(h):
    """h <- U^{tensor n} h in place for the shear U = [[1, 1], [0, 1]]:
    h_j <- sum_i C(n-j, i) h_{j+i}, by n(n+1)/2 additions on each nonzero
    numerator column: the Taylor shift by 1 of h's binary form."""
    cols = [list(col) for col in zip(*h)]
    for col in filter(any, cols):
        for top in range(len(col) - 1, 0, -1):
            col[:top] = map(add, col[:top], col[1:top + 1])
    h[:] = zip(*cols)


def transform(T, f):
    """The symmetric signature of T^{tensor n} f (column action).

    Pinned by transform(T, u^{tensor n}) = (T u)^{tensor n}.  Read f as the
    binary form P_f(x, y) = sum_k C(n,k) f_k x^{n-k} y^k; then P_{Tf}(x, y)
    = P_f(t00 x + t10 y, t01 x + t11 y).  For t00 != 0 this substitution is a
    Taylor shift by t01/t00 in y/x, the scaling y -> (det/t00) y, the
    scaling x -> t00 x and a Taylor shift by t10/t00 in x/y.  A shift by c
    is the scaling by c^k, the shift by 1 and the scaling back (von zur
    Gathen and Gerhard, "Fast algorithms for Taylor shifts and certain
    difference equations", ISSAC 1997); on the entries of f the shift by 1
    is ``_shift``, additions with no binomials.  A zero t00 is moved away by
    swapping the input variables (f reversed) or, when T's first row is
    zero, the output variables (the result reversed).

    It runs on integer numerators, f's and T's each over one denominator.
    A scaling by p/q is q^n too large (``_scale``); the q's multiply to w,
    whose one inversion joins the last scaling.  In all: O(n^2) integer
    additions, O(n) products, one ``_make`` per entry.
    """
    n = f.arity
    h, den = _numerators(f.entries)
    (a, b, c, d), e = _numerators((T.t00, T.t01, T.t10, T.t11))
    swap_out = not (any(a) or any(b))
    if swap_out:
        a, b, c, d = c, d, a, b
    if not any(a):
        a, b, c, d = b, a, d, c
        h.reverse()
    if not any(a):
        # T = 0, and 0^{tensor 0} = 1
        return SymmetricSignature(f.entries if n == 0 else [ZERO] * (n + 1))
    one, shift_y, shift_x = ONE.num, any(b), any(c)
    w, norm = _cofactor(*_product(*(_product(*a, *b) if shift_y else one),
                                  *(c if shift_x else one)))
    # P_f(X, Y) with Y = (t01/t00) X + (det/t00) y
    if shift_y:
        _scale(h, a, b)
        _shift(h)
        _scale(h, b, tuple(map(sub, _product(*a, *d), _product(*b, *c))))
    else:
        _scale(h, one, d)
    # then X = t00 (x + (t10/t00) y), with the roles of x and y swapped
    h.reverse()
    if shift_x:
        _scale(h, one, c)
        _shift(h)
    _scale(h, _product(*(c if shift_x else one), *w), _product(*a, *w))
    den *= (e * norm) ** n
    return SymmetricSignature([_make(*x, den)
                               for x in (h if swap_out else reversed(h))])


def row_transform(f, T):
    """The symmetric signature of the row action f T^{tensor n}."""
    return transform(T.transpose(), f)


# -- calculus -------------------------------------------------------------

def derivative(f, g):
    """Connect all arity(g) inputs of g to f: h_k = sum_j C(m,j) g_j f_{k+j}."""
    n, m = f.arity, g.arity
    if m >= n:
        raise ArityError("derivative needs arity(g) < arity(f)")
    out = []
    for k in range(n - m + 1):
        acc = ZERO
        for j in range(m + 1):
            if g[j].is_zero():
                continue
            acc = acc + AN(comb(m, j)) * g[j] * f[k + j]
        out.append(acc)
    return SymmetricSignature(out)


def partial(f):
    """The shorthand derivative with [1,0,1]: h_k = f_k + f_{k+2}."""
    return derivative(f, SymmetricSignature([1, 0, 1]))


def integral(fp):
    """An F of arity n+2 with partial(F) = fp: F_k = sum_s (-1)^s fp_{k+2s}.

    Antiderivatives are unique only up to x*[1,i]^{tensor} + y*[1,-i]^{tensor}.
    """
    n = fp.arity
    out = []
    for k in range(n + 3):
        acc = ZERO
        s = 0
        while k + 2 * s <= n:
            term = fp[k + 2 * s]
            acc = acc + (term if s % 2 == 0 else -term)
            s += 1
        out.append(acc)
    return SymmetricSignature(out)


# -- recurrence analysis ---------------------------------------------------

def _null_space(f):
    """Exact null-space basis of the rows (f_k, f_{k+1}, f_{k+2}), in closed
    form: the unit vectors at rank 0; at rank 1, for the first nonzero row w
    and its first nonzero entry w_c, e_j - (w_j / w_c) e_c for each j != c; at
    rank 2 the cross product of the first two independent rows, scaled so its
    last nonzero entry is 1; [] at rank 3.  This is the basis Gauss-Jordan
    elimination reads off its free columns, in the same order.  The rows are
    read from f's integer numerators over one denominator."""
    unit = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    h, _ = _numerators(f.entries)
    rows = [h[k:k + 3] for k in range(len(h) - 2)]
    w = next((r for r in rows if any(map(any, r))), None)
    if w is None:
        return unit
    k = next((k for k in (_cross(w, r) for r in rows[rows.index(w) + 1:])
              if any(map(any, k))), None)
    if k is None:
        c = next(j for j in range(3) if any(w[j]))
        s = -_make(*w[c], 1).inv()
        return [e[:c] + [_make(*w[j], 1) * s] + e[c + 1:]
                for j, e in enumerate(unit) if j != c]
    if any(any(_dot(r, k)) for r in rows):
        return []
    s = _make(*next(x for x in reversed(k) if any(x)), 1).inv()
    return [[_make(*x, 1) * s for x in k]]


class RecurrenceType:
    """Second-order recurrence structure of a symmetric signature.

    Triples (a, b, c) satisfy a*f_k - b*f_{k+1} + c*f_{k+2} = 0 for all
    0 <= k <= n-2; `basis` spans all such triples.  rank is the rank of
    the (n-1) x 3 array of consecutive entry triples.
    """

    __slots__ = ("rank", "basis")

    def __init__(self, rank, basis):
        self.rank = rank
        self.basis = basis

    @property
    def exists(self):
        return bool(self.basis)

    def triple(self):
        assert self.basis
        return self.basis[0]


def recurrence_analysis(f):
    n = f.arity
    if n < 2:
        raise ArityError("recurrence analysis needs arity >= 2")
    basis = _null_space(f)
    # spec sign convention: flip the middle coefficient
    basis = [(v[0], -v[1], v[2]) for v in basis]
    return RecurrenceType(3 - len(basis), basis)


# -- vanishing degrees ------------------------------------------------------

def vanishing_degrees(f):
    """(rd+, vd+, rd-, vd-) via the Z basis; rd = -1, vd = n+1 for f = 0."""
    n = f.arity
    nz = f.zhat().support()
    if not nz:
        return (-1, n + 1, -1, n + 1)
    rdp, rdm = nz[-1], n - nz[0]
    return (rdp, n - rdp, rdm, n - rdm)


# -- general (asymmetric) signatures and arity-4 matrices -------------------

class GeneralSignature:
    """2^n entries indexed by the integer with input x1 as the top bit."""

    __slots__ = ("arity", "entries")

    def __init__(self, arity, entries):
        if len(entries) != 1 << arity:
            raise ArityError("need 2^arity entries")
        self.arity = arity
        self.entries = tuple(AN(e) for e in entries)

    @classmethod
    def from_symmetric(cls, f):
        n = f.arity
        ents = [f[bin(x).count("1")] for x in range(1 << n)]
        return cls(n, ents)

    def value(self, bits):
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.entries[idx]

    def symmetrize(self):
        """The symmetric form when entries depend only on weight, else None."""
        out = [None] * (self.arity + 1)
        for x in range(1 << self.arity):
            w = bin(x).count("1")
            if out[w] is None:
                out[w] = self.entries[x]
            elif out[w] != self.entries[x]:
                return None
        return SymmetricSignature(out)

    def __eq__(self, other):
        return (isinstance(other, GeneralSignature)
                and self.arity == other.arity and self.entries == other.entries)

    def __repr__(self):
        return "Gen(%d)[%s]" % (self.arity, ", ".join(str(e) for e in self.entries))


def rotate4(g):
    """One counterclockwise rotation of inputs: g'(x1,x2,x3,x4) = g(x2,x3,x4,x1)."""
    if g.arity != 4:
        raise ArityError("rotation is defined for arity 4")
    ents = [None] * 16
    for x in range(16):
        x1, x2, x3, x4 = (x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1
        src = (x2 << 3) | (x3 << 2) | (x4 << 1) | x1
        ents[x] = g.entries[src]
    return GeneralSignature(4, ents)


def signature_matrix(g):
    """4x4 matrix: rows by (x1,x2), columns ordered 00, 10, 01, 11 in (x3,x4)."""
    if isinstance(g, SymmetricSignature):
        g = GeneralSignature.from_symmetric(g)
    if g.arity != 4:
        raise ArityError("signature matrix is defined for arity 4")
    col_bits = [(0, 0), (1, 0), (0, 1), (1, 1)]
    M = []
    for r in range(4):
        x1, x2 = (r >> 1) & 1, r & 1
        M.append([g.value((x1, x2, c3, c4)) for (c3, c4) in col_bits])
    return M


def is_redundant(M):
    return M[1] == M[2] and all(M[r][1] == M[r][2] for r in range(4))


def compress(M):
    """3x3 compressed matrix: averages the middle rows, merges the middle columns."""
    half = AN(Fraction(1, 2))
    rows = [M[0], [half * (a + b) for a, b in zip(M[1], M[2])], M[3]]
    return [[r[0], r[1] + r[2], r[3]] for r in rows]


def det3(M):
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def signature_matrix_ops(g):
    """(M, redundant?, compressed, det compressed, rotated) for arity 4."""
    if isinstance(g, SymmetricSignature):
        gen = GeneralSignature.from_symmetric(g)
    else:
        gen = g
    M = signature_matrix(gen)
    Mt = compress(M)
    return M, is_redundant(M), Mt, det3(Mt), rotate4(gen)


# -- tensor decomposition ----------------------------------------------------

class TensorDecomposition:
    """kind: zero | degenerate | distinct | double | irrational | none.

    degenerate: f = c * u^{tensor n}
    distinct:   f = x * u^{tensor n} + y * v^{tensor n}, u, v independent
    double:     f = Sym_n^{n-1}(u; v)
    irrational: a recurrence exists but its roots leave Q(zeta_8)
    none:       no second-order recurrence (no two-term decomposition)
    """

    __slots__ = ("kind", "u", "v", "x", "y", "c", "arity")

    def __init__(self, kind, arity, u=None, v=None, x=None, y=None, c=None):
        self.kind = kind
        self.arity = arity
        self.u, self.v, self.x, self.y, self.c = u, v, x, y, c

    def expand(self):
        n = self.arity
        if self.kind == "zero":
            return SymmetricSignature([0] * (n + 1))
        if self.kind == "degenerate":
            return degenerate(self.u, n).scale(self.c)
        if self.kind == "distinct":
            return degenerate(self.u, n).scale(self.x) + degenerate(self.v, n).scale(self.y)
        if self.kind == "double":
            return sym_n_n1(self.u, self.v, n)
        raise ValueError("no expansion for kind %r" % self.kind)


def _roots_of_triple(p, q, r):
    """Projective roots of the nonzero form p X^2 + q XY + r Y^2 as directions
    [X:Y]: ("distinct", u, v), ("double", u) or ("irrational",)."""
    if r.is_zero():
        # X * (p X + q Y): roots [0:1] and [q:-p], double when q = 0
        if q.is_zero():
            return ("double", (ZERO, ONE))
        return ("distinct", (ZERO, ONE), (ONE, -p / q))
    disc, two_r = q * q - AN(4) * p * r, AN(2) * r
    if disc.is_zero():
        return ("double", (ONE, -q / two_r))
    s = sqrt_in_field(disc)
    if s is None:
        return ("irrational",)
    return ("distinct", (ONE, (-q + s) / two_r), (ONE, (-q - s) / two_r))


def _degenerate_form(f):
    """(c, u) with f = c * u^{tensor n} and u = (1, lam) or (0, 1) when f is
    nonzero and degenerate, else None.  A nonzero constant (arity 0) is
    c * [1, 0]^{tensor 0}.  For f_0 != 0 that is f_{k+1} f_0 = f_k f_1 for
    every k, tested on f's integer numerators."""
    n = f.arity
    h, _ = _numerators(f.entries)
    if not any(h[0]):
        tail = any(h[n]) and not any(map(any, h[:n]))
        return (f[n], (ZERO, ONE)) if tail else None
    if any(_product(*h[k + 1], *h[0]) != _product(*h[k], *h[1])
           for k in range(1, n)):
        return None
    return f[0], (ONE, f[1] / f[0] if n else ZERO)


def tensor_decompose(f):
    """The order-2 tensor decomposition of f (see ``TensorDecomposition``).

    Past the zero and degenerate kinds, the roots [X:Y] of p X^2 + q XY +
    r Y^2 for the first triple with p f_k + q f_{k+1} + r f_{k+2} = 0 give
    f = x u^{tensor n} + y v^{tensor n} or, for a double root u, f =
    Sym_n^{n-1}(u; v).  One triple suffices: a non-degenerate f of arity
    >= 3 has at most one up to scale (triple rows of rank <= 1 make f
    degenerate), and at arity 2 the first one decomposes.

    (x, y), or v, is read in closed form from two entries, and the others
    agree: the n-1 rows, each verified by ``_null_space``, leave a solution
    space of dimension 2 (free f_0 and f_1; f_0 and f_n if r = 0; f_{n-1}
    and f_n if q = r = 0), spanned by the two independent root sequences:
    u^{tensor n} and v^{tensor n}, or Sym_n^{n-1}(u; v), v = (1, 0), (0, 1).
    """
    n = f.arity
    if f.is_zero():
        return TensorDecomposition("zero", n)
    deg = f.degenerate_form()
    if deg is not None:
        return TensorDecomposition("degenerate", n, u=deg[1], c=deg[0])
    basis = _null_space(f)
    if not basis:
        return TensorDecomposition("none", n)
    roots = _roots_of_triple(*basis[0])
    if roots[0] == "irrational":
        return TensorDecomposition("irrational", n)
    u = roots[1]
    if roots[0] == "distinct":
        v = roots[2]
        if u[0].is_zero():  # u = (0, 1): f_0 = y and f_n = x + y v1^n
            x, y = f[n] - f[0] * v[1] ** n, f[0]
        else:  # f_0 = x + y and f_1 = x u1 + y v1
            x = (f[1] - v[1] * f[0]) / (u[1] - v[1])
            y = f[0] - x
        return TensorDecomposition("distinct", n, u=u, v=v, x=x, y=y)
    if u[0].is_zero():  # u = (0, 1): f_{n-1} = v0 and f_n = n v1
        v = (f[n - 1], f[n] / n)
    else:  # f_0 = n v0 and f_1 = v1 + (n-1) u1 v0
        v = (f[0] / n, f[1] - (n - 1) * u[1] * f[0] / n)
    return TensorDecomposition("double", n, u=u, v=v)
