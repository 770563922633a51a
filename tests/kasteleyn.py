"""Exact domino-tiling counts of the m-by-n grid, in integers alone.

Kasteleyn ("The statistics of dimers on a lattice", Physica 27, 1961) and
Temperley and Fisher (Phil. Mag. 6, 1961) count the perfect matchings of
the m-by-n grid graph as

    prod_{j <= ceil(m/2)} prod_{k <= ceil(n/2)}
        (4 cos^2(j pi / (m+1)) + 4 cos^2(k pi / (n+1))).

The numbers 4 cos^2(j pi / (m+1)), j <= floor(m/2), are the roots of q_m,
the even part of the path's characteristic polynomial p_m read in x = t^2
(p_m = t p_{m-1} - p_{m-2}).  So the double product over those j and k is
+-Res(q_m(x), q_n(-x)), a Sylvester determinant taken here by fraction-free
Bareiss elimination.  An odd side adds the root j = (m+1)/2, which is 0:
the factor prod_k y_k = |q_n(0)|.  Two odd sides leave no tiling.
"""


def path_even_part(m):
    """Coefficients of q_m, lowest degree first: p_m(t) = t^(m%2) q_m(t^2)."""
    prev, cur = [1], [0, 1]  # p_0 = 1, p_1 = t, coefficients in t
    if m == 0:
        return [1]
    for _ in range(m - 1):
        shifted = [0] + cur
        padded = prev + [0] * (len(shifted) - len(prev))
        prev, cur = cur, [a - b for a, b in zip(shifted, padded)]
    return cur[m % 2::2]


def bareiss_det(a):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def resultant(p, q):
    """Res(p, q) of two integer polynomials, lowest degree first."""
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    rows = [[0] * i + p[::-1] + [0] * (size - dp - 1 - i) for i in range(dq)]
    rows += [[0] * i + q[::-1] + [0] * (size - dq - 1 - i) for i in range(dp)]
    return bareiss_det(rows)


def domino_count(m, n):
    """The number of perfect matchings of the m-by-n grid graph."""
    if m * n % 2:
        return 0
    qm, qn = path_even_part(m), path_even_part(n)
    qn_neg = [c * (-1) ** i for i, c in enumerate(qn)]  # q_n(-x)
    count = abs(resultant(qm, qn_neg))
    if m % 2:
        count *= abs(qn[0])
    if n % 2:
        count *= abs(qm[0])
    return count
