"""Exact univariate polynomial and rational-function arithmetic.

Every scalar is an arbitrary-precision rational (``fractions.Fraction``), so
all results in this module are exact; nothing here touches floating point.

A :class:`Poly` is a dense polynomial in one variable ``u``, stored as an
ascending coefficient tuple with no trailing zeros (the zero polynomial is
the empty tuple).  A :class:`RatFunc` is a reduced rational function
``num/den`` with ``gcd(num, den) = 1``; whenever ``den(0) != 0`` both parts
are scaled so that ``den(0) = 1``, which makes equality of rational
functions a plain structural comparison.  A truncated Taylor expansion is
a plain tuple of its coefficients, of length order + 1, found by a
division-free recurrence (Newton's identities for u P'/P) that, like the
determinant's packing, runs in ``int`` arithmetic on integral coefficients.

Determinants of polynomial matrices use Bareiss fraction-free elimination
over integer polynomials (rows are cleared of denominators first), which
avoids the coefficient blow-up of naive rational elimination.  Polynomial
gcds use the heuristic gcd: one integer gcd of the packed inputs, read back
and kept once it divides both (see :func:`_zgcd`).  Yun's square-free split
(:func:`square_free_parts`) and :func:`ratfunc_reduce` run on the same
primitive integer coefficient lists, so their derivatives, exact divisions
and gcds are int operations; only the final scaling makes Fractions.

The elimination keeps rows sparse and skips every row whose pivot-column
entry is zero, since Bareiss would only rescale it by P_k / P_{k-1} (P_k
the pivot of step k).  A skipped row remembers the step its values belong
to; the factors it missed telescope to one quotient of two pivots, which
is folded into the row's next update, or applied when the row becomes the
pivot row or the last row.  Pivoting is complete: step k pivots on the
shortest up-to-date entry of all remaining rows and columns; each row
caches its own shortest entry, and columns never move, so the sign gains
the parity of the pivot columns.  Bareiss is exact for any order of
nonzero pivots: an up-to-date entry is a minor of the row- and
column-permuted matrix (Sylvester's identity), so every division stays
exact and the determinant is unchanged, while short pivots keep every
later minor short.  On the banded edge-side matrices of the loop family
most rows sit out most steps, and the work drops accordingly.

Inside the elimination and the gcd each integer polynomial is one integer,
its value at u = 2^B (Kronecker substitution, :func:`_pack`), so every
product, exact division and gcd is a single big-integer operation in
CPython's C code, and results are read back as balanced base-2^B digits
(:func:`_unpack`).  In the elimination B comes from a proven bound on the
coefficients of every minor it stores (Hadamard's inequality on |u| = 1
with Cauchy's estimate), so packing is injective on them: zero tests,
pivots and quotients are those over Z[u].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm, prod
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = [
    "Poly",
    "RatFunc",
    "PolyMatrix",
    "poly_gcd",
    "square_free_parts",
    "poly_det",
    "ratfunc_reduce",
    "series_expand",
    "log_derivative_series",
    "rational_to_json",
]


def rational_to_json(x: Fraction) -> int | str:
    """Serialize a rational as an int when integral, else as a "p/q" string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored ascending: ``coeffs[i]`` multiplies ``u**i``.
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self._coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self) -> list[int | str]:
        return [rational_to_json(c) for c in self._coeffs]

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*u")
            else:
                terms.append(f"{c}*u^{i}")
        return f"Poly({' + '.join(terms)})"


ZERO = Poly()
ONE = Poly([1])


# ---------------------------------------------------------------------------
# Integer-coefficient internals shared by the determinant and gcd routines.
# An integer polynomial is a plain list of ints, ascending, trailing nonzero.
# ---------------------------------------------------------------------------


def _ztrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zprimitive(p: list[int]) -> list[int]:
    """p over its content, with a positive leading coefficient (``[]`` stays ``[]``)."""
    g = _int_gcd(*p)
    if p and p[-1] < 0:
        g = -g
    return p if g == 1 else [c // g for c in p]


def _zderivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _zsub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _ztrim(out)


def _zquo(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials when b divides a in Z[u]; else ValueError.

    A primitive b that divides a over Q divides it in Z[u] (Gauss's lemma).
    """
    if b == [1]:
        return a
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = rem[k + db] // lead
        if q:
            for j, c in enumerate(b):
                rem[k + j] -= q * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    return quot


def _to_int_polys(polys: list[Poly]) -> tuple[list[list[int]], int]:
    """Clear denominators: (integer coefficient lists, their common multiplier)."""
    mult = lcm(*(c.denominator for p in polys for c in p.coeffs))
    if mult == 1:
        return [[c.numerator for c in p.coeffs] for p in polys], 1
    return [[c.numerator * (mult // c.denominator) for c in p.coeffs] for p in polys], mult


def _pack(p: list[int], width: int) -> int:
    """p at u = 2^width, by Horner's rule (Kronecker substitution)."""
    value = 0
    for c in reversed(p):
        value = (value << width) + c
    return value


def _unpack(value: int, width: int) -> list[int]:
    """The balanced base-2^width digits of value, read by masks and shifts."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    coeffs = []
    while value:
        digit = value & mask
        value >>= width
        if digit >= half:
            digit -= 1 << width
            value += 1
        coeffs.append(digit)
    return coeffs


def _zgcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd, with a positive leading coefficient, of integer
    polynomials not both zero, by the heuristic gcd (Char, Geddes and
    Gonnet, J. Symbolic Comput. 1989).

    H is read back from gcd(f(xi), g(xi)), xi = 2^B, and h = pp(H) is
    returned once it divides f and g; else B doubles.  B starts as the least
    with xi >= 2m + 2, m = min(||f||_inf, ||g||_inf) for primitive f and g.
    Correct: h | d = gcd(f, g); write d = h k.  d(xi) | H(xi) = cont(H) h(xi),
    so k(xi) | cont(H) <= xi/2, as H's digits are balanced.  Each root of k is
    a root of f and of g, so of modulus < 1 + m <= xi/2 (Cauchy), which gives
    |k(xi)| > (xi/2)^deg k: k is constant.  Terminates: the integer gcd is
    r d(xi) with r | Res(f/d, g/d), whose digits are r d once 2^(B-1) > |r| ||d||_inf.
    """
    if not f or not g:
        return _zprimitive(f or g)
    if len(f) == 1 or len(g) == 1:
        return [1]
    f, g = _zprimitive(f), _zprimitive(g)
    width = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()  # least B
    while True:
        h = _zprimitive(_unpack(_int_gcd(_pack(f, width), _pack(g, width)), width))
        try:
            _zquo(f, h), _zquo(g, h)
        except ValueError:
            width *= 2
        else:
            return h


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by the heuristic gcd of the primitive
    integer parts."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    (f, g), _ = _to_int_polys([a, b])
    h = _zgcd(f, g)
    return Poly(Fraction(c, h[-1]) for c in h)


def square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition p = c * prod part_m**m with pairwise coprime,
    square-free parts; only parts of positive degree are returned.

    Each part is a primitive integer polynomial with a positive leading
    coefficient.  Every step runs on integer coefficient lists: p is made
    primitive, every divisor is a primitive gcd that divides over Q, so by
    Gauss's lemma each division is exact in Z[u].  Yun's subtraction
    z - w' needs w and z scaled alike, which holds because both are always
    divided by the same polynomial.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no square-free decomposition")
    if p.degree < 1:
        return []
    (f,), _ = _to_int_polys([p])
    f = _zprimitive(f)
    df = _zderivative(f)
    g = _zgcd(f, df)
    if len(g) == 1:
        return [(Poly(f), 1)]
    w = _zquo(f, g)
    z = _zsub(_zquo(df, g), _zderivative(w))
    parts = []
    m = 1
    while len(w) > 1:
        h = _zgcd(w, z)
        if len(h) > 1:
            parts.append((Poly(h), m))
            w, z = _zquo(w, h), _zquo(z, h)
        z = _zsub(z, _zderivative(w))
        m += 1
    return parts


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den, canonical once den(0) is nonzero."""

    num: Poly
    den: Poly

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """Reduce num/den to lowest terms and normalize so that den(0) = 1.

    When the denominator vanishes at 0 (never the case for zeta functions),
    the denominator is made monic instead, so reduction stays canonical.
    num and den are cleared of denominators together, divided exactly by
    their primitive integer gcd, and scaled back into Fractions once.
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(ZERO, ONE)
    (f, g), _ = _to_int_polys([num, den])
    h = _zgcd(f, g)
    f, g = _zquo(f, h), _zquo(g, h)
    scale = g[0] or g[-1]
    return RatFunc(Poly(Fraction(c, scale) for c in f), Poly(Fraction(c, scale) for c in g))


def _scalars(p: Poly, scale: Fraction | int = 1) -> list[Scalar]:
    """Coefficients of p / scale, each an ``int`` when it is integral."""
    cs = p.coeffs if scale == 1 else [c / scale for c in p.coeffs]
    return [c.numerator if c.denominator == 1 else c for c in cs]


def _recurrence(rhs: list[Scalar], den: list[Scalar], order: int) -> list[Scalar]:
    """out_m = rhs_m - sum_{k=1}^{min(m, deg den)} den_k out_(m-k): rhs/den when den_0 = 1."""
    terms = [(k, d) for k, d in enumerate(den) if k and d]
    out: list[Scalar] = []
    for m in range(order + 1):
        acc = rhs[m] if m < len(rhs) else 0
        for k, d in terms:
            if k > m:
                break
            acc -= d * out[m - k]
        out.append(acc)
    return out


def series_expand(f: RatFunc, order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients of f at 0 through ``order``.

    num and den are divided once by den(0), so that d_0 = 1 and the recurrence
    out_m = n_m - sum_{k=1}^{min(m, deg den)} d_k out_(m-k) needs no division;
    the cost is O(order * deg den) exact operations.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    d0 = f.den[0]
    if d0 == 0:
        raise ZeroDivisionError("series expansion at a pole of the function")
    series = _recurrence(_scalars(f.num, d0), _scalars(f.den, d0), order)
    return tuple(map(Fraction, series))


def log_derivative_series(z: RatFunc, order: int) -> tuple[Fraction, ...]:
    """Coefficients of u*Z'(u)/Z(u) through ``order``; requires Z(0) = 1.

    The m-th coefficient equals m times the u**m coefficient of log Z, which
    is the geodesic-counting sequence when Z is a graph zeta function.  The
    coefficients L_m of u P'/P, P = 1 + c_1 u + ..., obey Newton's identities
    L_m = m c_m - sum_{k=1}^{min(m-1, deg P)} c_k L_(m-k), which is
    :func:`series_expand`'s recurrence for u P' / P; N_m = L_m(num) - L_m(den).
    """
    if z.num[0] != 1 or z.den[0] != 1:
        raise ValueError("logarithmic derivative requires Z(0) = 1")
    sums = []
    for p in (z.num, z.den):
        cs = _scalars(p)
        sums.append(_recurrence([k * c for k, c in enumerate(cs)], cs, order))
    return tuple(Fraction(a - b) for a, b in zip(*sums))


class PolyMatrix:
    """Square matrix of polynomials; rows are tuples of :class:`Poly`."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[Poly]]):
        rs = tuple(tuple(row) for row in rows)
        n = len(rs)
        if any(len(row) != n for row in rs):
            raise ValueError("polynomial matrix must be square")
        self.n = n
        self.rows = rs


def poly_det(matrix: PolyMatrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination, sparse rows.

    Each row is first multiplied by the lcm of its coefficient denominators
    so the elimination runs over integer polynomials; the final determinant
    is divided by the accumulated row multipliers.  Rows are stored as maps
    from column to nonzero entry.

    Every entry is then packed into one integer, its value at u = 2^B
    (Kronecker substitution), and the elimination below runs on those
    integers.  Every value it stores is a minor of the scaled integer
    matrix, and its coefficients are bounded: by Cauchy's estimate each is
    at most the minor's maximum modulus on |u| = 1, and by Hadamard's
    inequality that is at most the product of the minor's row 2-norms (or
    of its column 2-norms), where |a_ij(u)| <= ||a_ij||_1.  Each nonzero
    integer row or column adds a factor >= 1, so every minor's coefficients
    are at most

        H = min(prod_i sqrt(sum_j ||a_ij||_1^2), prod_j sqrt(sum_i ||a_ij||_1^2)),

    the products over nonzero rows and columns.  B is the least width with
    2^(B-1) > H, decided on the exact integer H^2.  A minor is then the sum
    of balanced base-2^B digits (its coefficients), so it is zero exactly
    when its packed value is; since evaluation at 2^B is a ring
    homomorphism, every division is exact in the integers and its quotient
    is the packed minor.
    The determinant is read back as balanced base-2^B digits by masks and
    shifts, never through a decimal string.

    Write P_k for the pivot of step k and P_{-1} = 1.  Step k of Bareiss
    replaces a_ij by (P_k a_ij - a_ik a_kj) / P_{k-1}; a row with a_ik = 0
    is only rescaled by P_k / P_{k-1}.  Such a row is skipped instead, and
    the step ``s`` its stored values belong to is recorded.  Over skipped
    steps s..k-1 the factors telescope to P_{k-1} / P_{s-1}, and folding
    that into the next elimination gives

        a_ij <- (P_k a_ij - a_ik a_kj) / P_{s-1}

    on the stored values; a row that becomes the pivot row, or the last
    row, is brought up to date by P_{k-1} / P_{s-1} alone.  Pivoting is
    complete: step k pivots on the entry of rows k..n-1 (which hold only
    the columns not yet pivoted on) that is shortest once brought up to
    date.  Every row owes the same P_{k-1}, so the key is the entry's bit
    length less that of P_{s-1}, which a row's entries share: each row
    caches (key, column) of its shortest entry, refreshed only when the row
    is updated and swapped with the row; ties go to the lowest column, then
    row.  Columns are never swapped, so the sign of the row swaps gains the
    parity of the pivot columns in step order.  Bareiss is exact for any
    order of nonzero pivots (Sylvester's identity): every entry of an
    up-to-date row is a minor of the row- and column-permuted scaled
    matrix, and a stale row times P_{k-1} / P_{s-1} is that minor too, so
    each division is exact and the determinant is identical; a row left
    empty is a zero row of it, so the determinant is zero.  The update
    touches only columns where the row or the pivot row is nonzero.
    """
    n = matrix.n
    if n == 0:
        return ONE
    scale = 1
    int_rows: list[dict[int, list[int]]] = []
    row_sq, col_sq = [], [0] * n  # sums of squared 1-norms of the entries
    for row in matrix.rows:
        cols = [j for j, p in enumerate(row) if p._coeffs]
        ints, mult = _to_int_polys([row[j] for j in cols])
        scale *= mult
        int_row = dict(zip(cols, ints))
        row_sq.append(0)
        for j, p in int_row.items():
            square = sum(map(abs, p)) ** 2
            row_sq[-1] += square
            col_sq[j] += square
        int_rows.append(int_row)
    bound_sq = min(prod(max(1, s) for s in row_sq), prod(max(1, s) for s in col_sq))
    width = (bound_sq.bit_length() + 1) // 2 + 1  # least B with 4^(B-1) > H^2
    rows = [{j: _pack(p, width) for j, p in int_row.items()} for int_row in int_rows]
    if not all(rows):
        return ZERO
    divisors = [1]  # divisors[k] = P_{k-1}, the divisor of step k
    step = [0] * n  # the step whose values each row holds
    shortest = [min((v.bit_length() - 1, j) for j, v in row.items()) for row in rows]  # key, column
    cols, sign = [], 1  # the pivot column of each step; the row swaps' sign
    for k in range(n - 1):
        pivot_row = min(range(k, n), key=shortest.__getitem__)
        if pivot_row != k:
            for a in (rows, step, shortest):
                a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        top, up, down = rows[k], divisors[k], divisors[step[k]]
        rows[k] = None
        if up != down:
            top = {j: v * up // down for j, v in top.items()}
        col = shortest[k][1]
        cols.append(col)
        pivot = top.pop(col)
        pivot_bits = pivot.bit_length()
        for i in range(k + 1, n):
            row = rows[i]
            rik = row.pop(col, None)
            if rik is None:
                continue
            divisor = divisors[step[i]]
            for j in row.keys() | top.keys():
                value = (pivot * row.get(j, 0) - rik * top.get(j, 0)) // divisor
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
            if not row:
                return ZERO
            step[i] = k + 1
            shortest[i] = min((v.bit_length() - pivot_bits, j) for j, v in row.items())
        divisors.append(pivot)
    (col, last), = rows[n - 1].items()
    cols.append(col)
    for k in range(n):  # sort the pivot columns by swaps, each flipping the sign
        while cols[k] != k:
            j = cols[k]
            cols[k], cols[j], sign = cols[j], j, -sign
    det = last * divisors[n - 1] // divisors[step[n - 1]] * sign
    coeffs = _unpack(det, width)
    return Poly(coeffs) if scale == 1 else Poly(Fraction(c, scale) for c in coeffs)
