"""Membership tests for the tractable signature classes and the dichotomy
decision procedures built on top of them.

The classes come in three layers:

* base classes closed under simple operations: product-type (``in_P``),
  affine (``in_A``) and its twisted copy (``in_Adagger``), matchgate
  (``in_matchgate``) and its two basis changes (``in_Mhat``,
  ``in_MhatDagger``); ``product_form`` and ``affine_form`` return the form
  behind ``in_P`` and ``in_A``, which is what the solvers fold;
* Z-side classes, read off the Z image ``f.zhat()`` that each signature
  computes once and keeps: ``in_M4``, ``in_P2`` and the vanishing classes
  ``in_vanishing_*`` / ``in_R2`` are patterns of the image's support (its
  nonzero indices), and ``in_ZP`` / ``in_MhatDagger`` test the image itself;
* one-signature transformable families P1 / A1 / A3 / M1 / M2 / M3,
  decided square-root-free from the tensor decomposition each signature
  keeps (``f.decomposition()``) via the bilinear pairing
  <u, v> = u0 v0 + u1 v1 and the squared ratio beta^2.

On top of these sit the framework deciders: ``dichotomy_binary_eq``,
``dichotomy_plcsp`` / ``dichotomy_plcsp2``, ``dichotomy_single``,
``dichotomy_plholant_set`` and ``hypergraph_verdict``.  Each returns a
``SetVerdict`` whose tractable outcomes carry a checkable witness.
"""

from collections import namedtuple
from math import gcd, inf

from .algebra import (AN, I, ONE, ZERO, ZETA, nth_roots_in_field,
                      sqrt_in_field)
from .algebra import _rational_nth_root  # noqa: F401 (importable here too)
from .sigcalc import (
    ArityError,
    SymmetricSignature,
    Transform2x2,
    H2,
    Z,
    Z_INV,
    diag,
    exact_one,
    identity2,
    transform,
)

ZETA_INV = ZETA.inv()


class BadS(ValueError):
    """A binary-with-equalities arity set with a bad arity or no r >= 3."""


# -- small helpers ----------------------------------------------------------

def _check_positive(values, error, what):
    """values as a list, each an int >= 1 and not a bool, else ``error``;
    an infinite one (JSON's 1e999) is an OverflowError."""
    values = list(values)
    for k in values:
        if k in (inf, -inf):
            raise OverflowError("%s cannot be infinite" % what)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise error("%s must be an integer >= 1, got %r" % (what, k))
    return values


def _pair(u, v):
    """Bilinear pairing <u, v> = u0 v0 + u1 v1 (no conjugation)."""
    return AN(u[0]) * AN(v[0]) + AN(u[1]) * AN(v[1])


def _geneq_weights(f):
    """(a, b) when f is a generalized equality [a, 0, ..., 0, b] of arity at
    least 2 with a and b nonzero, else None."""
    if f.arity < 2 or f[0].is_zero() or f[-1].is_zero() \
            or any(not e.is_zero() for e in f.entries[1:-1]):
        return None
    return f[0], f[-1]


def _is_diseq(f):
    """f = [0, c, 0] with c nonzero: a weighted binary disequality."""
    return (f.arity == 2 and f[0].is_zero() and f[2].is_zero()
            and not f[1].is_zero())


def is_degenerate(f):
    return f.is_zero() or f.degenerate_form() is not None


# -- base class memberships --------------------------------------------------
#
# The product-type and affine recognisers return the representation they
# found; the solvers fold these forms over each vertex's edge variables, so
# the class test and the solver share one shape match.
#
# A ProductForm of f on edge variables x_1..x_n: with ``link`` None f is
# degenerate, f(x) = scalar * prod_j w_{x_j}; with ``link`` 0 a generalized
# equality, f(x) = scalar * w_{x_1} when all x_j are equal, else 0; with
# ``link`` 1 a binary disequality, f(x) = scalar when x_1 != x_2, else 0.
ProductForm = namedtuple("ProductForm", "scalar link w0 w1",
                         defaults=(ONE, ONE))


def product_form(f):
    """The ProductForm of f, or None when f is zero or not product type."""
    if _is_diseq(f):
        return ProductForm(f[1], 1)
    end = _geneq_weights(f)
    if end is not None:
        return ProductForm(ONE, 0, end[0], end[1])
    deg = f.degenerate_form()
    if deg is not None:
        c, (u0, u1) = deg
        return ProductForm(c, None, u0, u1)
    return None


def in_P(f):
    """Product type: degenerate, binary disequality, or generalized equality."""
    return f.is_zero() or product_form(f) is not None


_I_POWERS = (ONE, I, -ONE, -I)


def _i_power(x):
    """r with x = i^r, or None."""
    return next((r for r, p in enumerate(_I_POWERS) if x == p), None)


# An AffineForm of f on edge variables x_1..x_n:
#     f(x) = scalar * [support] * i^(const + lin L + parity X)
# with X = x_1 xor ... xor x_n and L = x_1 + ... + x_n, except that under the
# "equal" support L is the common value x_1.  ``support`` is None (all of
# {0,1}^n), "zeros" or "ones" (every x_j is 0, or 1), "equal" (all x_j
# equal), "even" or "odd" (X = 0, or 1).  Exponents are mod 4.
AffineForm = namedtuple("AffineForm", "scalar support lin parity const",
                        defaults=(0, 0, 0))


def affine_form(f):
    """The AffineForm of f, or None when f is zero or not affine.

    Nonzero members are degenerate with direction ratio in {0, oo} or a
    fourth root of unity, endpoint-supported with endpoint ratio a fourth
    root of unity, two-periodic with odd/even ratio +-i (or one side zero),
    or period-minus-one (f_{k+2} = -f_k) with f1/f0 in {0, oo, 1, -1}.
    """
    if f.is_zero():
        return None
    end = _geneq_weights(f)
    if end is not None:
        r = _i_power(end[1] / end[0])
        return None if r is None else AffineForm(end[0], "equal", lin=r)
    deg = f.degenerate_form()
    if deg is not None:
        c, (u0, u1) = deg  # u is (1, u1) or (0, 1)
        if u0.is_zero():
            return AffineForm(c, "ones")
        if u1.is_zero():
            return AffineForm(c, "zeros")
        r = _i_power(u1)
        return None if r is None else AffineForm(c, None, lin=r)
    evens = {f[k] for k in range(0, f.arity + 1, 2)}
    odds = {f[k] for k in range(1, f.arity + 1, 2)}
    if len(evens) == 1 and len(odds) == 1:
        (a,), (b,) = evens, odds
        if b.is_zero():
            return AffineForm(a, "even")
        if a.is_zero():
            return AffineForm(b, "odd")
        r = _i_power(b / a)
        return AffineForm(a, None, parity=r) if r in (1, 3) else None
    if all((f[k + 2] + f[k]).is_zero() for k in range(f.arity - 1)):
        a, b = f[0], f[1]
        if a.is_zero():
            return AffineForm(b, "odd", lin=1, const=3)
        if b.is_zero():
            return AffineForm(a, "even", lin=1)
        r = _i_power(b / a)
        if r in (0, 2):
            return AffineForm(a, None, lin=1, parity=3 - r)
    return None


def in_A(f):
    """Affine class, decided by projective pattern matching (``affine_form``)."""
    return f.is_zero() or affine_form(f) is not None


def in_Adagger(f):
    return in_A(transform(diag(1, ZETA_INV), f))


def in_matchgate(f):
    """Matchgate realizability: a parity condition plus a geometric stride.

    One parity class of entries must vanish; the other, read with stride 2,
    must either be a geometric progression of nonzero terms or have a single
    nonzero term sitting at an end of the stride sequence.
    """
    if f.is_zero():
        return True
    evens = [f[k] for k in range(0, f.arity + 1, 2)]
    odds = [f[k] for k in range(1, f.arity + 1, 2)]
    for live, dead in ((evens, odds), (odds, evens)):
        if any(not e.is_zero() for e in dead):
            continue
        support = [k for k, e in enumerate(live) if not e.is_zero()]
        if not support:
            return True
        if len(support) == 1:
            return support[0] in (0, len(live) - 1)
        if len(support) != support[-1] - support[0] + 1 or support[0] != 0 \
                or support[-1] != len(live) - 1:
            return False
        ratio = live[1] / live[0]
        return all(live[k + 1] == ratio * live[k] for k in range(len(live) - 1))
    return False


def in_Mhat(f):
    return in_matchgate(transform(H2, f))


def in_MhatDagger(f):
    return in_matchgate(f.zhat())


def in_ZP(f):
    return in_P(f.zhat())


in_ZM = in_MhatDagger  # Mhat-dagger is the Z image of the matchgates


# -- Z-side classes: support patterns of the Z image ---------------------------

def in_M4_plus(f):
    return f.zhat().support() == (1,)


def in_M4_minus(f):
    return f.zhat().support() == (f.arity - 1,)


def in_M4(f):
    return in_M4_plus(f) or in_M4_minus(f)


def in_P2(f):
    """Weighted equality in the Z basis, both weights nonzero."""
    return f.arity >= 2 and f.zhat().support() == (0, f.arity)


def in_vanishing_plus(f):
    return all(2 * k < f.arity for k in f.zhat().support())


def in_vanishing_minus(f):
    return all(2 * k > f.arity for k in f.zhat().support())


def in_R2(f, sigma):
    """f lies in R_2^sigma iff its sigma-side recurrence degree is at most 1."""
    s = f.zhat().support()
    return all(k <= 1 if sigma == "+" else k >= f.arity - 1 for k in s)


# -- transformable families ----------------------------------------------------

class Witness:
    """A transform T and canonical signature g with transform(T, g) = f."""

    __slots__ = ("transform", "canonical")

    def __init__(self, T, canonical):
        self.transform = T
        self.canonical = canonical

    def verify(self, f):
        return transform(self.transform, self.canonical) == f

    def __repr__(self):
        return "Witness(%r, %r)" % (self.transform, self.canonical)


class FamilyMemberships:
    """Memberships of one signature in the P1/A1/A3/M1/M2/M3 families."""

    __slots__ = ("p1", "a1", "a3", "m1", "m2", "m3", "caveat", "witness")

    def __init__(self, p1=False, a1=False, a3=False, m1=False, m2=False,
                 m3=False, caveat=False, witness=None):
        self.p1, self.a1, self.a3 = p1, a1, a3
        self.m1, self.m2, self.m3 = m1, m2, m3
        self.caveat = caveat
        self.witness = witness or {}

    def any(self):
        return self.p1 or self.a1 or self.a3 or self.m1 or self.m2 or self.m3


def in_transformable_family(f):
    """Decide P1, A1, A3, M1, M2, M3 membership for a non-degenerate f.

    Works from the order-2 tensor decomposition the signature keeps,
    ``f.decomposition()``; every criterion is stated through the pairing
    <u, v> and the square beta^2, so no square roots are ever extracted.
    Irrational decompositions yield all-false with a caveat.
    """
    if f.arity < 3:
        raise ArityError("transformable families need arity >= 3")
    d = f.decomposition()
    if d.kind in ("zero", "degenerate"):
        raise ArityError("transformable families need a non-degenerate input")
    if d.kind == "irrational":
        return FamilyMemberships(caveat=True)
    if d.kind == "none":
        return FamilyMemberships()
    n = f.arity
    if d.kind == "double":
        u, v = d.u, d.v
        res = FamilyMemberships()
        if _pair(u, v).is_zero() and not _pair(u, u).is_zero():
            res.m3 = True
            T = Transform2x2(u[0], v[0], u[1], v[1])
            res.witness["M3"] = Witness(T, exact_one(n))
        return res
    # distinct: f = x u^n + y v^n
    u, v, x, y = d.u, d.v, d.x, d.y
    uu, uv, vv = _pair(u, u), _pair(u, v), _pair(v, v)
    res = FamilyMemberships()
    if uu.is_zero() or vv.is_zero() or x.is_zero() or y.is_zero():
        # isotropic directions: the only family left is the P2 side of M2
        res.m2 = in_P2(f)
        return res
    beta2 = (y * y * vv ** n) / (x * x * uu ** n)
    canonical = SymmetricSignature([x] + [ZERO] * (n - 1) + [y])
    wit = Witness(Transform2x2(u[0], v[0], u[1], v[1]), canonical)
    if uv.is_zero():
        res.p1 = True
        res.witness["P1"] = wit
        if beta2 ** 2 == ONE or (beta2 ** 2 == -ONE and n % 2 == 1):
            res.a1 = True
            res.witness["A1"] = wit
        if beta2 == (-ONE) ** n:
            res.m1 = True
            res.witness["M1"] = wit
    if uv * uv == -(uu * vv) and not uv.is_zero() and beta2 ** 2 == ONE:
        res.a3 = True
        res.witness["A3"] = wit
    if uv * uv != uu * vv and beta2 == ONE:
        res.m2 = True
        res.witness["M2"] = wit
    return res


# -- set-level transformability -------------------------------------------------

def _anchor_decompositions(F):
    """Order-2 decompositions of the non-degenerate arity >= 3 signatures."""
    for f in F:
        if f.arity >= 3 and not f.is_zero() \
                and f.decomposition().kind in ("distinct", "double"):
            yield f, f.decomposition()


def _distinct_anchors(F):
    """(u, v, <u,u>, <u,v>, <v,v>) for each anchor x u^n + y v^n with x and
    y nonzero."""
    for _, d in _anchor_decompositions(F):
        if d.kind == "distinct" and not d.x.is_zero() and not d.y.is_zero():
            u, v = d.u, d.v
            yield u, v, _pair(u, u), _pair(u, v), _pair(v, v)


def _one_per_coset(xs, units):
    """The xs in order, less None, zero and each unit multiple of an
    earlier one."""
    seen = set()
    for x in xs:
        if x is not None and not x.is_zero() and x not in seen:
            seen.update(x * c for c in units)
            yield x


def _first_witness(in_class, F, candidates):
    """The first candidate T with every T^-1 g (g in F) in the class."""
    for T in candidates:
        S = T.inverse()
        if all(in_class(transform(S, g)) for g in F):
            return T
    return None


def p_transformable(F):
    """A transform T with (=_2) T^{tensor 2} in P and F within T P, or None."""
    if all(in_P(f) for f in F):
        return identity2()
    return _first_witness(in_P, F, (
        Transform2x2(u[0], v[0], u[1], v[1])
        for u, v, uu, uv, vv in _distinct_anchors(F)
        if (uv.is_zero() and not uu.is_zero() and not vv.is_zero())
        or (uu.is_zero() and vv.is_zero() and not uv.is_zero())))


def _a_candidates(F):
    """The transforms a_transformable tries, one per coset T diag(1, i^k):
    A is fixed by diag(1, i), so T and T diag(1, i^k) move F into A alike.

    Each has (=_2) T^{tensor 2} in A, so that is not checked.  For
    T = [u | tau v] it is [<u,u>, tau <u,v>, tau^2 <v,v>]:
    * A1 anchor, <u,v> = 0 and tau^2 = i^r <u,u>/<v,v>: <u,u> [1, 0, i^r];
    * A3 anchor, <u,v>^2 = -<u,u><v,v> and tau = i^r <u,u>/<u,v>:
      <u,u> [1, i^r, -i^2r];
    * P2 anchor, T = Z diag(1, delta): [0, 2 delta, 0].
    The cosets leave r in {0, 1} and one sign of tau for A1, r = 0 for A3,
    and one delta per coset delta i^k for all P2 anchors together.
    """
    # delta^n from the weighted equalities in the Z basis; one lazy pass,
    # as Z diag(1, delta) does not depend on which P2 anchor asks for it
    deltas = _one_per_coset(
        (d for g in F if in_P2(g) for r in range(4)
         for t in (g.zhat()[-1] / g.zhat()[0], g.zhat()[0] / g.zhat()[-1])
         for d in nth_roots_in_field(t * I ** r, g.arity)), _I_POWERS)
    for u, v, uu, uv, vv in _distinct_anchors(F):
        base = Transform2x2(u[0], v[0], u[1], v[1])
        if uu.is_zero() and vv.is_zero() and not uv.is_zero():
            for delta in deltas:
                yield Z @ diag(1, delta)
        elif uv.is_zero() and not (uu.is_zero() or vv.is_zero()):
            for r in (0, 1):
                tau = sqrt_in_field(uu / vv * I ** r)
                if tau is not None and not tau.is_zero():
                    yield base @ diag(1, tau)
        elif not uv.is_zero() and uv * uv == -(uu * vv):
            yield base @ diag(1, uu / uv)


def a_transformable(F):
    """A transform T with (=_2) T^{tensor 2} in A and F within T A, or None."""
    if all(in_A(f) for f in F):
        return identity2()
    return _first_witness(in_A, F, _a_candidates(F))


def m_transformable(F):
    """A transform T with (=_2) T^{tensor 2} in M and F within T M, or None.

    By the characterization of matchgate transformability it suffices to try
    T = Z and T = H for H in SO_2; the latter diagonalize in the Z basis as
    Z diag(mu, 1/mu) Z^-1, so only kappa = mu^2 matters and the candidates
    are harvested from the anchors' decompositions.  M is fixed by
    Z diag(1, -1) Z^-1 = [[0, -i], [i, 0]], so kappa is tried up to sign.
    """
    if all(in_ZM(f) for f in F):
        return Z
    kappas = []
    for f, d in _anchor_decompositions(F):
        (p, q), (pp, qq) = Z_INV.apply(d.u), Z_INV.apply(d.v)
        if d.kind == "double":
            kappas.append(None if q.is_zero() else p / q)
        elif not any(x.is_zero() for x in (p, q, pp, qq)):
            kappas.append(sqrt_in_field(p * pp / (q * qq)))
        elif in_P2(f):
            a, b = f.zhat()[0], f.zhat()[-1]
            kappas.extend(nth_roots_in_field(a / b, f.arity))
            kappas.extend(nth_roots_in_field(-(a / b), f.arity))
    return _first_witness(in_matchgate, F, (
        Z @ diag(1, k.inv()) @ Z_INV
        for k in _one_per_coset(kappas, (ONE, -ONE))))


# -- verdicts --------------------------------------------------------------------

class SetVerdict:
    """Outcome of a dichotomy decision for a framework.  ``route`` (None, or
    a ``solvers.ROUTES`` name; not in the JSON report) solves instances
    untransformed: "eo" for set case 7 and sizes of gcd >= 5, "fkt" for 2."""

    __slots__ = ("framework", "tractable", "case", "obstruction", "witness",
                 "caveat", "route")

    def __init__(self, framework, tractable, case=None, obstruction=None,
                 witness=None, caveat=False, route=None):
        self.framework = framework
        self.tractable = tractable
        self.case = case
        self.obstruction = obstruction
        self.witness = witness
        self.caveat = caveat
        self.route = route

    def __repr__(self):
        tag = "Tractable(%s)" % self.case if self.tractable \
            else "PHard(%s)" % self.obstruction
        return "SetVerdict(%s, %s)" % (self.framework, tag)


def classify_signature(f):
    """Per-signature table of all class memberships."""
    table = {
        "P": in_P(f), "A": in_A(f), "Adagger": in_Adagger(f),
        "Matchgate": in_matchgate(f), "Mhat": in_Mhat(f),
        "MhatDagger": in_MhatDagger(f), "ZP": in_ZP(f),
        "Vplus": in_vanishing_plus(f), "Vminus": in_vanishing_minus(f),
        "M4plus": in_M4_plus(f), "M4minus": in_M4_minus(f),
        "P2": in_P2(f), "degenerate": is_degenerate(f),
    }
    for name in ("P1", "A1", "A3", "M1", "M2", "M3"):
        table[name] = False
    table["caveat"] = False
    if f.arity >= 3 and not table["degenerate"]:
        fam = in_transformable_family(f)
        table.update({"P1": fam.p1, "A1": fam.a1, "A3": fam.a3,
                      "M1": fam.m1, "M2": fam.m2 or table["P2"],
                      "M3": fam.m3, "caveat": fam.caveat})
    return table


def dichotomy_binary_eq(f, S):
    """Binary signature f = [f0, f1, f2] with equalities =_k for k in S."""
    if len(f) != 3:
        raise ArityError("binary-eq needs a binary f of three entries")
    S = sorted(set(_check_positive(S, BadS, "an equality arity")))
    if not S or max(S) < 3:
        raise BadS("the arity set must contain some r >= 3")
    d = gcd(*S)
    f0, f1, f2 = AN(f[0]), AN(f[1]), AN(f[2])
    # f0^d = +-f2^d != 0 makes r = f0/f2 a root of unity of the field, whose
    # order divides 8; so (f0/f2)^d is r^(d mod 8), and 0 stands for "not one"
    r = ZERO if f2.is_zero() else f0 / f2
    r_d = r ** (d % 8) if r ** 8 == ONE else ZERO
    conditions = [
        ("condition 1", f0 * f2 == f1 * f1),
        ("condition 2", f0.is_zero() and f2.is_zero()),
        ("condition 3", f1.is_zero()),
        ("condition 4", f0 * f2 == -(f1 * f1) and r_d == -ONE),
        ("condition 5", r_d == ONE),
    ]
    for name, ok in conditions:
        if ok:
            return SetVerdict("binary-eq", True, case=name)
    return SetVerdict("binary-eq", False,
                      obstruction="all five tractability conditions fail "
                                  "(gcd %d)" % d)


def _containment_verdict(framework, F, classes):
    fails = []
    holds = []
    for name, test in classes:
        bad = next((f for f in F if not test(f)), None)
        if bad is None:
            holds.append(name)
        else:
            fails.append("%r is not in %s" % (bad, name))
    if holds:
        return SetVerdict(framework, True, case=", ".join(holds))
    return SetVerdict(framework, False, obstruction="; ".join(fails))


def dichotomy_plcsp(F):
    return _containment_verdict(
        "plcsp", list(F), [("P", in_P), ("A", in_A), ("Mhat", in_Mhat)])


def dichotomy_plcsp2(F):
    return _containment_verdict(
        "plcsp2", list(F),
        [("P", in_P), ("A", in_A), ("Adagger", in_Adagger),
         ("Mhat", in_Mhat), ("MhatDagger", in_MhatDagger)])


def dichotomy_single(f):
    """One non-degenerate signature of arity >= 3 against all planar grids."""
    if is_degenerate(f):
        return SetVerdict("single", True, case="degenerate")
    if f.arity < 3:
        raise ArityError("the single-signature dichotomy needs arity >= 3")
    fam = in_transformable_family(f)
    cases = [
        ("P1", fam.p1), ("M2", fam.m2 or in_P2(f)), ("A3", fam.a3),
        ("M3", fam.m3),
        ("M4", in_M4(f)),
        ("vanishing", in_vanishing_plus(f) or in_vanishing_minus(f)),
    ]
    for name, ok in cases:
        if ok:
            return SetVerdict("single", True, case=name,
                              witness=fam.witness.get(name))
    if in_matchgate(f):
        # e.g. [1, 0, 3, 0, 9], whose decomposition leaves the field
        return SetVerdict("single", True, case="matchgate",
                          witness=Witness(identity2(), f))
    return SetVerdict(
        "single", False, caveat=fam.caveat,
        obstruction="not in P1, M2, A3, M3, M4, or a vanishing class")


def _apm_verdict(F, allowed, obstruction, culprit):
    """Try the listed set-level transformability routes in order; the
    obstruction ``obstruction % culprit`` is written only when all fail.  The
    list may leave out routes that cannot succeed; the text still names them."""
    for case, finder in allowed:
        T = finder(F)
        if T is not None:
            return SetVerdict("plholant", True, case=case, witness=T)
    return SetVerdict("plholant", False, obstruction=obstruction % (culprit,))


ROUTE_A = ("A-transformable (case 2)", a_transformable)
ROUTE_P = ("P-transformable (case 3)", p_transformable)
ROUTE_M = ("M-transformable (case 6)", m_transformable)


def dichotomy_plholant_set(F):
    """The full dichotomy for a finite set of symmetric signatures.  Matchgate
    sets such as {[1, 0, 3, 0, 9]}, whose decomposition leaves the field, are
    M-transformable with T = I."""
    verdict = _plholant_verdict(F)
    if not verdict.tractable and all(in_matchgate(f) for f in F if f.arity):
        return SetVerdict("plholant", True, case=ROUTE_M[0],
                          witness=identity2())
    return verdict


def _plholant_verdict(F):
    """The verdict before the matchgate retry.  An anchor in P1, M2 \\ P2, A3
    or M3 settles it by a witness search; a transform that moves F into A, P
    or M moves the anchor alone, so only the routes its bits allow (A1 or
    A3, P1, M1-M3) are searched."""
    # a nonzero constant (arity 0) only scales the Holant
    sigs = [f for f in F if f.arity and not f.is_zero()]
    # degs holds (f, u) for f = c * u^{tensor n}
    nd3, binaries, degs = [], [], []
    for f in sigs:
        form = f.degenerate_form()
        if form is not None:
            degs.append((f, form[1]))
        elif f.arity >= 3:
            nd3.append(f)
        else:
            binaries.append(f)
    if not nd3:
        return SetVerdict("plholant", True,
                          case="all non-degenerate arity <= 2 (case 1)")

    # an anchor in P1, M2 \ P2, A3 or M3 pins down the possible transforms
    caveat = False
    for g in nd3:
        fam = in_transformable_family(g)
        caveat = caveat or fam.caveat
        if fam.p1 or (fam.m2 and not in_P2(g)):
            where, which = "P1/M2", "A-, P-, or M-"
        elif fam.a3:
            where, which = "A3", "A- or M-"
        elif fam.m3:
            where, which = "M3", "M-"
        else:
            continue
        routes = [route for route, bit in (
            (ROUTE_A, fam.a1 or fam.a3), (ROUTE_P, fam.p1),
            (ROUTE_M, fam.m1 or fam.m2 or fam.m3)) if bit]
        return _apm_verdict(
            F, routes, "anchor %%r in %s but the set is not %stransformable"
            % (where, which), g)

    # beyond those anchors everything of high arity must be P2, M4 or vanishing
    for g in nd3:
        if not (in_P2(g) or in_M4(g)
                or in_vanishing_plus(g) or in_vanishing_minus(g)):
            return SetVerdict(
                "plholant", False, caveat=caveat,
                obstruction="%r is outside every tractable family" % g)

    strict_v = [g for g in nd3 if not in_M4(g)
                and (in_vanishing_plus(g) or in_vanishing_minus(g))]
    if strict_v:
        sigma = "+" if in_vanishing_plus(strict_v[0]) else "-"
        in_v = in_vanishing_plus if sigma == "+" else in_vanishing_minus
        for g in nd3:
            if not in_v(g):
                return SetVerdict(
                    "plholant", False,
                    obstruction="%r mixes with the vanishing side %s"
                                % (g, sigma))
        for h in binaries:
            if not in_R2(h, sigma):
                return SetVerdict(
                    "plholant", False,
                    obstruction="binary %r is incompatible with vanishing "
                                "side %s" % (h, sigma))
        if all(in_R2(g, sigma) for g in nd3):
            return SetVerdict("plholant", True,
                              case="all non-degenerate in R2^%s (case 5)"
                                   % sigma)
        si = I if sigma == "+" else -I
        for v, (u0, u1) in degs:
            if not (u1 == si * u0 and not u0.is_zero()):
                return SetVerdict(
                    "plholant", False,
                    obstruction="degenerate %r is incompatible with "
                                "vanishing side %s" % (v, sigma))
        return SetVerdict("plholant", True,
                          case="vanishing side %s with compatible binaries "
                               "(case 4)" % sigma)

    # now every arity >= 3 non-degenerate signature is in P2 or M4
    m4s = [g for g in nd3 if in_M4(g)]
    p2s = [g for g in nd3 if in_P2(g) and not in_M4(g)]

    sigmas = {"+" if in_M4_plus(g) else "-" for g in m4s}
    if not p2s:
        if len(sigmas) == 1:
            sigma = next(iter(sigmas))
            offenders = [h for h in binaries if not in_R2(h, sigma)]
            if not offenders:
                return SetVerdict("plholant", True,
                                  case="all non-degenerate in R2^%s (case 5)"
                                       % sigma)
            for h in offenders:
                if h.zhat().support() != (0, 2):
                    return SetVerdict(
                        "plholant", False,
                        obstruction="binary %r is incompatible with the "
                                    "matching side" % h)
        else:
            for h in binaries:
                if h.zhat().support() not in ((0, 2), (1,)):
                    return SetVerdict(
                        "plholant", False,
                        obstruction="binary %r is incompatible with mixed "
                                    "matching sides" % h)
            for v, (u0, u1) in degs:
                if not (not u0.is_zero() and (u1 == I * u0 or u1 == -I * u0)):
                    return SetVerdict(
                        "plholant", False,
                        obstruction="degenerate %r is incompatible with "
                                    "mixed matching sides" % v)
        if all(in_ZM(g) for g in sigs):
            return SetVerdict("plholant", True,
                              case="M-transformable (case 6)", witness=Z)
        return SetVerdict("plholant", False,
                          obstruction="matching-side set is not contained "
                                      "in the Z image of the matchgates")

    if not m4s:
        offenders = [h for h in binaries if not in_ZP(h)]
        if offenders:
            return _apm_verdict(
                F, [ROUTE_A, ROUTE_P, ROUTE_M],
                "binary %r leaves the Z image of the product type and the "
                "set is not A-, P-, or M-transformable", offenders[0])
        return SetVerdict("plholant", True,
                          case="P-transformable (case 3)", witness=Z)

    # mixed weighted equalities and perfect-matching side
    if len(sigmas) == 2:
        return SetVerdict("plholant", False,
                          obstruction="both matching sides mix with "
                                      "weighted equalities")
    sigma = next(iter(sigmas))
    arities = [g.arity for g in p2s]
    arities += [h.arity for h in binaries if in_P2(h)]
    for _, u in degs:
        # a unary direction is in P2 iff both its Z-basis coordinates are
        # nonzero
        p, q = Z_INV.apply(u)
        if not p.is_zero() and not q.is_zero():
            arities.append(1)
    d = gcd(*arities)
    if d <= 4:
        return SetVerdict(
            "plholant", False,
            obstruction="weighted equalities of Z-arity gcd %d <= 4 mix "
                        "with the matching side" % d)
    offenders = [h for h in binaries if not in_ZP(h)]
    if offenders:
        return _apm_verdict(
            F, [ROUTE_A, ROUTE_P, ROUTE_M],
            "binary %r leaves the Z image of the product type", offenders[0])
    # every member is now in the Z image of P or in M4^sigma: degenerate
    # signatures are product type, the binaries passed in_ZP, and every nd3
    # is in P2 or on the one matching side sigma
    return SetVerdict("plholant", True,
                      case="weighted equalities (gcd %d) with the %s "
                           "matching side (case 7)" % (d, sigma), route="eo")


def hypergraph_verdict(S):
    """Counting perfect matchings of planar hypergraphs with edge sizes S."""
    sizes = _check_positive(S, ValueError, "a hyperedge size")
    if not sizes:
        raise ValueError("the size multiset must be nonempty")
    t, kinds = gcd(*sizes), set(sizes)
    if kinds == {1, 2}:
        # a singleton at every vertex leaves the matchings of a planar graph
        return SetVerdict("hpm", False, obstruction="sizes 1 and 2: planar "
                          "monomer-dimer (Jerrum 1987; Vadhan 2001)")
    if t >= 5 or kinds in ({1}, {2}):
        route = "eo" if t >= 5 else "fkt" if kinds == {2} else None
        return SetVerdict("hpm", True, case="gcd %d" % t, route=route)
    return SetVerdict("hpm", False,
                      obstruction="gcd %d <= 4 with a hyperedge of size >= 3"
                                  % t)


# quick self checks on canonical members
assert in_A(SymmetricSignature([2, 0, 2, 0]))
assert in_P(SymmetricSignature([1, 0, 0, 5])) and not in_A(
    SymmetricSignature([1, 0, 0, 5]))
assert in_matchgate(SymmetricSignature([1, 0, 3, 0, 9]))
assert in_M4_plus(transform(Z, exact_one(5)))
assert in_P2(transform(Z, SymmetricSignature([1, 0, 0, 0, 3])))
