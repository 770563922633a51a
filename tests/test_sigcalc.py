import random
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO, ZETA, sqrt_in_field
from planar_holant import sigcalc as sc
from planar_holant.classify import dichotomy_plholant_set, is_degenerate
from planar_holant.sigcalc import (
    ArityError,
    GeneralSignature,
    SymmetricSignature,
    Transform2x2,
    Z,
    Z_INV,
    H2,
    all_but_one,
    compress,
    degenerate,
    derivative,
    det3,
    diag,
    diseq2,
    equality,
    exact_one,
    gen_eq,
    identity2,
    integral,
    partial,
    recurrence_analysis,
    rotate4,
    row_transform,
    sig,
    signature_matrix,
    signature_matrix_ops,
    sym_n_n1,
    tensor_decompose,
    transform,
    vanishing_degrees,
)

small_rat = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_an = st.builds(AlgebraicNumber, small_rat, small_rat, small_rat, small_rat)


def sig_strategy(min_arity=1, max_arity=6):
    return st.integers(min_arity, max_arity).flatmap(
        lambda n: st.lists(small_an, min_size=n + 1, max_size=n + 1).map(SymmetricSignature)
    )


def transform_oracle(T, f):
    """Slot-wise tensor contraction, independent of the binomial formula."""
    n = f.arity
    out = []
    for y in range(1 << n):
        acc = ZERO
        for x in range(1 << n):
            w = ONE
            for s in range(n):
                ys, xs = (y >> s) & 1, (x >> s) & 1
                w = w * (T.t00, T.t01, T.t10, T.t11)[2 * ys + xs]
            acc = acc + w * f[bin(x).count("1")]
        out.append(acc)
    # symmetric input stays symmetric; collapse by weight
    by_w = {}
    for y in range(1 << n):
        w = bin(y).count("1")
        if w in by_w:
            assert by_w[w] == out[y]
        else:
            by_w[w] = out[y]
    return SymmetricSignature([by_w[k] for k in range(n + 1)])


def transform_cubic(T, f):
    """The binomial-sum formula: entry m is read off the assignment
    1^m 0^{n-m}, O(n^2) products per entry over the powers of T's entries."""
    n = f.arity
    p00, p01, p10, p11 = (list(accumulate([x] * n, mul, initial=ONE))
                          for x in (T.t00, T.t01, T.t10, T.t11))
    out = []
    for m in range(n + 1):
        cls = [AN(comb(n - m, l)) * p00[n - m - l] * p01[l]
               for l in range(n - m + 1)]
        acc = ZERO
        for j in range(m + 1):
            cj = AN(comb(m, j)) * p10[m - j] * p11[j]
            if cj.is_zero():
                continue
            for l, cl in enumerate(cls):
                if not cl.is_zero():
                    acc = acc + cj * cl * f[j + l]
        out.append(acc)
    return SymmetricSignature(out)


def orth(t):
    """Rational orthogonal matrix from the circle parametrization."""
    c = AN(Fraction((1 - t * t), (1 + t * t)))
    s = AN(Fraction(2 * t, (1 + t * t)))
    return Transform2x2(c, -s, s, c)


# -- constructors and basics ------------------------------------------------

def test_constructors():
    assert equality(3) == sig([1, 0, 0, 1])
    assert gen_eq(1, 1, 3) == sig([1, 0, 0, 1])
    assert exact_one(2) == diseq2()
    assert all_but_one(4) == sig([0, 0, 0, 1, 0])
    assert degenerate([1, I], 2) == sig([1, I, -1])
    with pytest.raises(ArityError):
        gen_eq(1, 1, 1)


def test_sym_n_n1():
    assert sym_n_n1((1, 0), (0, 1), 5) == exact_one(5)
    assert sym_n_n1((0, 1), (1, 0), 5) == all_but_one(5)


# -- calculus ----------------------------------------------------------------

def test_partial_examples():
    assert partial(sig([1, 0, 1, 0, 1])) == sig([2, 0, 2])
    assert derivative(sig([0, 1, 0, 0, 0]), sig([0, 1, 0])) == sig([2, 0, 0])


def test_iterated_weighted_derivative_on_equalities():
    # k derivatives with [1, w] applied to =_{2k} give [1, 0, ..., 0, w^k]
    for w in [AN(3), I, ZETA, AN(Fraction(2, 5)) * I + 1]:
        for k in range(1, 6):
            f = equality(2 * k)
            for _ in range(k):
                f = derivative(f, sig([1, w]))
            expect = sig([1] + [0] * (k - 1) + [w ** k])
            assert f == expect


def test_integral_examples():
    assert integral(sig([0, 0])) == sig([0, 0, 0, 0])
    F = integral(sig([1, 0]))
    assert F == sig([1, 0, 0, 0])
    assert partial(F) == sig([1, 0])


@given(sig_strategy(max_arity=6))
def test_integral_round_trip(fp):
    assert partial(integral(fp)) == fp


@given(sig_strategy(min_arity=2, max_arity=5), st.builds(tuple, st.tuples(small_an, small_an)))
def test_derivative_of_degenerate(f, u):
    # d_[a,b](u^{tensor n}) = (a u0 + b u1) u^{tensor n-1}
    a, b = AN(2), AN(3)
    n = f.arity
    dg = derivative(degenerate(u, n), sig([a, b]))
    assert dg == degenerate(u, n - 1).scale(a * u[0] + b * u[1])


# -- transforms ---------------------------------------------------------------

def test_transform_examples():
    assert row_transform(sig([1, 0, 1]), Z) == sig([0, 2, 0])
    assert transform(diag(1, I), degenerate([1, 1], 3)) == sig([1, I, -1, -I])
    assert transform(H2, exact_one(3)) == transform_oracle(H2, exact_one(3))


@given(sig_strategy(max_arity=4))
def test_transform_matches_oracle(f):
    T = Transform2x2(1, 2, I, AN(Fraction(1, 2)))
    assert transform(T, f) == transform_oracle(T, f)


@given(sig_strategy(max_arity=5), st.tuples(small_an, small_an))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_transform_degenerate_law(f, u):
    T = Transform2x2(2, -1, 3, 1)
    n = f.arity
    assert transform(T, degenerate(u, n)) == degenerate(T.apply(u), n)


@given(sig_strategy(max_arity=5))
def test_transform_composition(f):
    T1 = Transform2x2(1, 1, 0, 2)
    T2 = Transform2x2(0, 1, 1, I)
    assert transform(T1, transform(T2, f)) == transform(T1 @ T2, f)
    assert transform(identity2(), f) == f


# integer entries over a few denominators: cheap to draw at arity 40
wide_an = st.builds(lambda c, d: AlgebraicNumber(*(Fraction(x, d) for x in c)),
                    st.tuples(*[st.integers(-9, 9)] * 4), st.sampled_from([1, 2, 3]))
matrix_entry = st.sampled_from([ZERO, ONE, -ONE, I]) | small_an


@given(st.integers(0, 40).flatmap(
    lambda n: st.lists(wide_an, min_size=n + 1, max_size=n + 1)),
    st.tuples(*[matrix_entry] * 4))
@settings(max_examples=40, deadline=None)
def test_transform_matches_cubic_formula(entries, t):
    f = SymmetricSignature(entries)
    T = Transform2x2(*t)
    assert transform(T, f) == transform_cubic(T, f)


def _seeded_matrices(rnd):
    def entry():
        return AN(Fraction(rnd.randint(-7, 7), rnd.randint(1, 4))) \
            + AN(rnd.randint(-3, 3)) * ZETA
    a, b, c = entry(), entry(), entry()
    return {
        "Z": Z, "Z_INV": Z_INV, "H2": H2, "swap": Transform2x2(0, 1, 1, 0),
        "random": Transform2x2(entry(), entry(), entry(), entry()),
        "t00 = 0": Transform2x2(0, a, b, c),
        "t00 = t01 = 0": Transform2x2(0, 0, a, b),
        "first row and t11 zero": Transform2x2(0, 0, a, 0),
        "singular": Transform2x2(a, b, a * c, b * c),
        "singular, t00 = 0": Transform2x2(0, a, 0, b),
        "zero": Transform2x2(0, 0, 0, 0),
    }


@pytest.mark.parametrize("name", sorted(_seeded_matrices(random.Random(0))))
def test_transform_matches_cubic_formula_on_seeded_matrices(name):
    rnd = random.Random(name)
    for n in list(range(13)) + [20, 31]:
        T = _seeded_matrices(rnd)[name]
        f = SymmetricSignature(
            [AN(Fraction(rnd.randint(-9, 9), rnd.randint(1, 3)))
             + AN(rnd.randint(-2, 2)) * I if rnd.random() < 0.8 else ZERO
             for _ in range(n + 1)])
        assert transform(T, f) == transform_cubic(T, f), (name, n)


def test_transform_inverts_at_most_once(monkeypatch):
    calls = []
    inv = AlgebraicNumber.inv

    def counted(x):
        calls.append(x)
        return inv(x)

    monkeypatch.setattr(AlgebraicNumber, "inv", counted)
    matrices = _seeded_matrices(random.Random(2))
    f = sig(range(1, 10))
    for name, T in matrices.items():
        calls.clear()
        transform(T, f)
        assert len(calls) <= 1, name


def test_z_matrices():
    assert (Z @ Z_INV) == identity2()
    assert not Z.is_orthogonal()
    assert orth(2).is_orthogonal()
    assert orth(2).det() == ONE


# -- recurrences ---------------------------------------------------------------

def check_recurrence(f, triple):
    a, b, c = triple
    for k in range(f.arity - 1):
        assert (a * f[k] - b * f[k + 1] + c * f[k + 2]).is_zero()


def test_recurrence_examples():
    r = recurrence_analysis(gen_eq(1, 5, 3))
    assert r.rank == 2
    a, b, c = r.triple()
    assert a.is_zero() and c.is_zero() and not b.is_zero()
    check_recurrence(gen_eq(1, 5, 3), r.triple())

    r = recurrence_analysis(exact_one(4))
    assert r.rank == 2
    assert len(r.basis) == 1
    a, b, c = r.triple()
    assert a.is_zero() and b.is_zero() and not c.is_zero()

    r = recurrence_analysis(sig([1, 3, 1]))
    assert any(t[0] == t[2] for t in r.basis) or len(r.basis) == 2


@given(sig_strategy(min_arity=2, max_arity=6))
def test_recurrence_defines_null_space(f):
    r = recurrence_analysis(f)
    for t in r.basis:
        check_recurrence(f, t)


def test_no_recurrence():
    r = recurrence_analysis(sig([1, 0, 0, 0, 7]))
    # gen-eq of arity 4 does have one; a generic arity-4 does not
    assert r.exists
    r2 = recurrence_analysis(sig([1, 2, 3, 4, 0]))
    assert not r2.exists and r2.rank == 3


# -- vanishing degrees ----------------------------------------------------------

def test_vanishing_examples():
    f = degenerate([1, I], 4)
    rdp, vdp, rdm, vdm = vanishing_degrees(f)
    assert (rdp, vdp) == (0, 4)
    assert 2 * vdp > 4

    z = sig([0, 0, 0])
    assert vanishing_degrees(z) == (-1, 3, -1, 3)


@given(sig_strategy(max_arity=6))
def test_vd_plus_rd_is_arity(f):
    rdp, vdp, rdm, vdm = vanishing_degrees(f)
    if not f.is_zero():
        assert rdp + vdp == f.arity
        assert rdm + vdm == f.arity


@given(sig_strategy(max_arity=5), st.integers(-3, 3))
def test_orthogonal_preserves_vd_set(f, t):
    T = orth(t)
    rdp, vdp, rdm, vdm = vanishing_degrees(f)
    rdp2, vdp2, rdm2, vdm2 = vanishing_degrees(transform(T, f))
    assert {vdp, vdm} == {vdp2, vdm2}


# -- signature matrices -----------------------------------------------------------

def test_signature_matrix_eo():
    f = sig([0, 0, 1, 0, 0])
    M, red, Mt, d, rot = signature_matrix_ops(f)
    assert red
    assert [[str(x) for x in row] for row in Mt] == [
        ["0", "0", "1"],
        ["0", "2", "0"],
        ["1", "0", "0"],
    ]
    assert not d.is_zero()


def test_compress_matches_independent_determinant():
    f = sig([1, 0, 0, 0, 1])
    M, red, Mt, d, _ = signature_matrix_ops(f)
    assert red
    # independent 3x3: [[f0, 2 f1, f2], [f1, 2 f2, f3], [f2, 2 f3, f4]]
    ind = [[f[0], 2 * f[1], f[2]], [f[1], 2 * f[2], f[3]], [f[2], 2 * f[3], f[4]]]
    assert det3([[AN(x) for x in row] for row in ind]) == d


def test_rotate_four_times_identity():
    g = GeneralSignature(4, [AN(k * k + 1) for k in range(16)])
    r = g
    for _ in range(4):
        r = rotate4(r)
    assert r == g
    assert rotate4(g) != g


def test_arity_errors():
    with pytest.raises(ArityError):
        signature_matrix(sig([1, 0, 1]))
    with pytest.raises(ArityError):
        derivative(sig([1, 0]), sig([1, 0, 1]))


# -- tensor decomposition -----------------------------------------------------------

def test_decompose_gen_eq():
    d = tensor_decompose(sig([1, 0, 0, 0, 7]))
    assert d.kind == "distinct"
    assert d.expand() == sig([1, 0, 0, 0, 7])
    dirs = {tuple(map(str, d.u)), tuple(map(str, d.v))}
    assert dirs == {("1", "0"), ("0", "1")}


def test_decompose_exact_one():
    d = tensor_decompose(exact_one(5))
    assert d.kind == "double"
    assert d.expand() == exact_one(5)


def test_decompose_sum_of_powers():
    f = sig([2, 0, 2, 0])
    d = tensor_decompose(f)
    assert d.kind == "distinct"
    assert d.expand() == f
    dirs = {tuple(map(str, d.u)), tuple(map(str, d.v))}
    assert ("1", "1") in dirs and ("1", "-1") in dirs


def test_decompose_degenerate_and_zero():
    d = tensor_decompose(degenerate([2, 3], 4))
    assert d.kind == "degenerate"
    assert d.expand() == degenerate([2, 3], 4)
    assert tensor_decompose(sig([0, 0, 0])).kind == "zero"
    d = tensor_decompose(degenerate([0, 1], 3).scale(5))
    assert d.kind == "degenerate" and d.expand() == degenerate([0, 1], 3).scale(5)


def test_decompose_irrational():
    # Fibonacci-style recurrence, discriminant 5 is not a square in the field
    assert tensor_decompose(sig([1, 1, 2, 3])).kind == "irrational"


def test_decompose_none():
    assert tensor_decompose(sig([1, 2, 3, 4, 0])).kind == "none"


def test_decomposition_is_kept_with_the_signature():
    f = sig([1, 0, 0, 0, 7])
    assert f.decomposition() is f.decomposition()
    for f, kind in ((sig([1, 0, 0, 0, 7]), "distinct"),
                    (exact_one(5), "double"),
                    (degenerate([2, 3], 4), "degenerate"),
                    (sig([0, 0, 0]), "zero")):
        d = f.decomposition()
        assert d.kind == kind
        assert d.expand() == f


def test_dichotomy_decomposes_each_signature_once(monkeypatch):
    calls = []
    decompose = sc.tensor_decompose

    def counted(f):
        calls.append(f)
        return decompose(f)

    monkeypatch.setattr(sc, "tensor_decompose", counted)
    sets = [
        # a P1 anchor tried against the A, P and M routes
        [sig([1, 0, 0, 7]), sig([1, 0, 0, 0, 7])],
        [transform(orth(2), sig([1, 0, 0, 5])), transform(orth(2), sig([1, 0, 0, 0, 3]))],
        [sig([1, 0, 1, 0]), sig([1, 1, 0, 0]), sig([2, 0, 2, 0])],
        [exact_one(5), transform(orth(3), exact_one(4))],
        [transform(Z, equality(5)), transform(Z, exact_one(3))],
        [sig([1, 1, 2, 3]), sig([1, 2, 3, 4, 0])],
    ]
    for F in sets:
        calls.clear()
        dichotomy_plholant_set(F)
        assert calls
        assert all(sum(g is f for g in calls) == 1 for f in calls), F


@given(st.tuples(small_an, small_an), st.tuples(small_an, small_an),
       small_an, small_an, st.integers(3, 6))
@settings(max_examples=60)
def test_decompose_round_trip(u, v, x, y, n):
    f = degenerate(u, n).scale(x) + degenerate(v, n).scale(y) \
        if not (AN(u[0]) * AN(v[1]) - AN(u[1]) * AN(v[0])).is_zero() \
        else degenerate(u, n).scale(x)
    if f.is_zero():
        return
    d = tensor_decompose(f)
    assert d.kind in ("zero", "degenerate", "distinct", "double")
    assert d.expand() == f


# -- reference: the elimination kernel and the candidate-search decomposition --

def null_space_elimination(rows):
    """Null-space basis by Gauss-Jordan elimination over the field, one
    vector per free column."""
    cols = len(rows[0]) if rows else 0
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((rr for rr in range(r, len(mat)) if not mat[rr][c].is_zero()),
                  None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for rr in range(len(mat)):
            if rr != r and not mat[rr][c].is_zero():
                fac = mat[rr][c]
                mat[rr] = [x - fac * y for x, y in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [ZERO] * cols
        vec[fc] = ONE
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


def roots_of_triple_reference(p, q, r):
    if not r.is_zero():
        disc = q * q - AN(4) * p * r
        if disc.is_zero():
            return ("double", (ONE, -q / (AN(2) * r)))
        s = sqrt_in_field(disc)
        if s is None:
            return ("irrational",)
        return ("distinct", (ONE, (-q + s) / (AN(2) * r)),
                (ONE, (-q - s) / (AN(2) * r)))
    if not q.is_zero():
        return ("distinct", (ZERO, ONE), (ONE, -p / q))
    if not p.is_zero():
        return ("double", (ZERO, ONE))
    return ("irrational",)


def solve_pair_reference(f, p, q, expand):
    n = f.arity
    for k1 in range(n + 1):
        for k2 in range(k1 + 1, n + 1):
            d = p[k1] * q[k2] - p[k2] * q[k1]
            if d.is_zero():
                continue
            x = (f[k1] * q[k2] - f[k2] * q[k1]) / d
            y = (p[k1] * f[k2] - p[k2] * f[k1]) / d
            return (x, y) if expand(x, y) == f else None
    return None


def decompose_with_triple_reference(f, triple):
    n = f.arity
    roots = roots_of_triple_reference(*triple)
    if roots[0] == "distinct":
        u, v = roots[1], roots[2]
        pu, pv = degenerate(u, n), degenerate(v, n)
        w = solve_pair_reference(f, pu, pv, lambda x, y: pu.scale(x) + pv.scale(y))
        if w is not None:
            return sc.TensorDecomposition("distinct", n, u=u, v=v, x=w[0], y=w[1])
    elif roots[0] == "double":
        u0, u1 = u = roots[1]
        a = [AN(n - k) * u0 ** (n - k - 1) * u1 ** k if k <= n - 1 else ZERO
             for k in range(n + 1)]
        b = [AN(k) * u1 ** (k - 1) * u0 ** (n - k) if k >= 1 else ZERO
             for k in range(n + 1)]
        v = solve_pair_reference(f, a, b, lambda v0, v1: sym_n_n1(u, (v0, v1), n))
        if v is not None:
            return sc.TensorDecomposition("double", n, u=u, v=v)
    return None


def tensor_decompose_search(f):
    """The decomposition by candidate search: every kernel basis triple and,
    for a kernel of dimension >= 2, the combinations b0 + t b1, t in -3..6."""
    n = f.arity
    if f.is_zero():
        return sc.TensorDecomposition("zero", n)
    deg = sc._degenerate_form(f)
    if deg is not None:
        return sc.TensorDecomposition("degenerate", n, u=deg[1], c=deg[0])
    basis = null_space_elimination([(f[k], f[k + 1], f[k + 2])
                                    for k in range(n - 1)])
    if not basis:
        return sc.TensorDecomposition("none", n)
    candidates = [tuple(v) for v in basis]
    if len(basis) >= 2:
        candidates += [tuple(x + AN(t) * y for x, y in zip(basis[0], basis[1]))
                       for t in range(-3, 7)]
    saw_irrational = False
    for cand in candidates:
        dec = decompose_with_triple_reference(f, cand)
        if dec is not None:
            return dec
        saw_irrational |= roots_of_triple_reference(*cand)[0] == "irrational"
    return sc.TensorDecomposition("irrational" if saw_irrational else "none", n)


def assert_matches_references(f):
    new, ref = tensor_decompose(f), tensor_decompose_search(f)
    fields = ("kind", "u", "v", "x", "y", "c", "arity")
    assert [getattr(new, a) for a in fields] == [getattr(ref, a) for a in fields], f
    if f.arity >= 2:
        r = recurrence_analysis(f)
        basis = null_space_elimination([(f[k], f[k + 1], f[k + 2])
                                        for k in range(f.arity - 1)])
        assert r.rank == 3 - len(basis), f
        assert r.basis == [(v[0], -v[1], v[2]) for v in basis], f


unary = st.tuples(small_an, small_an)
sparse_sig = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n + 1,
                       max_size=n + 1).map(sig))
two_powers = st.builds(
    lambda u, v, x, y, n: degenerate(u, n).scale(x) + degenerate(v, n).scale(y),
    unary, unary, small_an, small_an, st.integers(0, 12))
sym_sig = st.builds(sym_n_n1, unary, unary, st.integers(0, 12))
any_sig = sig_strategy(0, 12) | sparse_sig | two_powers | sym_sig


@given(any_sig)
@settings(max_examples=200, deadline=None)
def test_decomposition_matches_candidate_search(f):
    assert_matches_references(f)


SEEDED_DECOMPOSITIONS = [
    # all-zero rows, rank 1, rank 3
    sig([0, 0, 0]), sig([0, 0, 0, 0, 0]), sig([1, 0, 0]), sig([0, 0, 3]),
    sig([1, 2, 4, 8]), degenerate([2, 3], 6), sig([1, 2, 3, 4, 0]),
    # binaries, constants and unaries
    sig([1, 3, 1]), sig([0, 1, 0]), sig([0, 1, 5]), sig([2, 0, 0]),
    sig([1, 1, 2]), sig([1, I, 1]), sig([5]), sig([0]), sig([I]),
    sig([1, 2]), sig([0, 3]),
    # exact-one, all-but-one, equalities, Z images, a double root
    *(exact_one(k) for k in range(1, 7)), *(all_but_one(k) for k in (3, 6)),
    *(gen_eq(1, 5, k) for k in range(2, 7)), gen_eq(2, -3, 9),
    transform(Z, equality(5)), transform(Z, exact_one(3)),
    sym_n_n1((1, 2), (3, 1), 5), sym_n_n1((0, 1), (1, 1), 4),
    # Fibonacci type: the roots leave the field
    sig([1, 1, 2, 3]), sig([1, 1, 2, 3, 5, 8]),
]


@pytest.mark.parametrize("f", SEEDED_DECOMPOSITIONS, ids=repr)
def test_decomposition_matches_candidate_search_on_seeded_signatures(f):
    assert_matches_references(f)


def test_seeded_decompositions_cover_every_kind():
    kinds = {tensor_decompose(f).kind for f in SEEDED_DECOMPOSITIONS}
    assert kinds == {"zero", "degenerate", "distinct", "double", "irrational",
                     "none"}
    ranks = {recurrence_analysis(f).rank for f in SEEDED_DECOMPOSITIONS
             if f.arity >= 2}
    assert ranks == {0, 1, 2, 3}


# -- the one-triple invariant ----------------------------------------------------

@given(any_sig.filter(lambda f: f.arity >= 3))
@settings(max_examples=100, deadline=None)
def test_non_degenerate_signature_has_at_most_one_triple(f):
    if not is_degenerate(f):
        assert len(recurrence_analysis(f).basis) <= 1


@given(st.lists(small_an | st.sampled_from([ZERO, ONE, -ONE, I]),
                min_size=3, max_size=3).map(sig))
def test_non_degenerate_binary_decomposes(f):
    if not is_degenerate(f):
        d = tensor_decompose(f)
        assert d.kind in ("distinct", "double")
        assert d.expand() == f


def test_constants_expand():
    assert degenerate([2, 3], 0) == sig([1])
    for c in (5, 0, I, Fraction(-1, 2)):
        f = sig([c])
        assert tensor_decompose(f).expand() == f
        assert f.decomposition().expand() == f
    assert sig([5]).decomposition().kind == "degenerate"
