"""Exact univariate polynomial and rational-function arithmetic over Z.

Every coefficient is a Python ``int``.  Graph weights are indices of finite
groups, so every matrix the engine builds lies in Z[u], and so do its
determinant and every reduced zeta function; nothing here touches floating
point, and nothing here divides except exactly.

A :class:`Poly` is a dense polynomial in one variable ``u``, stored as an
ascending tuple of ints with no trailing zeros (the zero polynomial is the
empty tuple); a coefficient that is not an ``int`` is a ``ValueError``.
``p / d`` is the exact quotient in Z[u] (:func:`_zquo`), ``p + r`` the sum;
an inexact quotient is an ``ArithmeticError``, an internal failure.  A
:class:`RatFunc` is a reduced rational function ``num/den`` with
``gcd(num, den) = 1`` and no common integer content, signed so that
``den(0) > 0`` (or the leading coefficient of ``den`` when ``den(0) = 0``),
which makes equality of rational functions a plain structural comparison;
for a zeta function that means ``den(0) = 1``.  A truncated Taylor
expansion is a plain tuple of its coefficients, of length order + 1, found
by a division-free recurrence (Newton's identities for u P'/P) once
``den(0) = +-1``.

Determinants of polynomial matrices use Bareiss fraction-free elimination,
which avoids the coefficient blow-up of naive rational elimination.
Polynomial gcds use the heuristic gcd: one integer gcd of the packed inputs,
read back and kept once it divides both (see :func:`_zgcd`).  Yun's
square-free split (:func:`square_free_parts`) and :func:`ratfunc_reduce` run
on the same primitive coefficient lists, so their derivatives, exact
divisions and gcds are int operations, as is :func:`divide_out_root`, which
divides out a rational root as often as it recurs.

Sparse rows, complete pivoting and the packing of each polynomial into one
integer (its value at u = 2^B) are described at :func:`poly_det`,
:func:`_pack` and :func:`_zgcd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import gcd as _int_gcd, prod
from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "RatFunc",
    "PolyMatrix",
    "poly_gcd",
    "square_free_parts",
    "divide_out_root",
    "poly_det",
    "ratfunc_reduce",
    "series_expand",
    "log_derivative_series",
]


class Poly:
    """Dense univariate polynomial over the integers.

    Coefficients are stored ascending: ``coeffs[i]`` multiplies ``u**i``.
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"polynomial coefficient {c!r} is not an integer")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[int, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(map(sum, zip_longest(self._coeffs, other._coeffs, fillvalue=0)))

    def __mul__(self, other: Poly | int) -> Poly:
        """One packed product; its coefficients are at most ||a||_1 ||b||_1."""
        if isinstance(other, int):
            return Poly([c * other for c in self._coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly()
        width = (sum(map(abs, a)) * sum(map(abs, b))).bit_length() + 1
        return Poly(_unpack(_pack(a, width) * _pack(b, width), width))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """One packed integer power; its coefficients are at most ||p||_1^n."""
        if n < 0:
            raise ValueError("negative polynomial power")
        width = (sum(map(abs, self._coeffs)) ** n).bit_length() + 2
        return Poly(_unpack(_pack(self._coeffs, width) ** n, width))

    def __truediv__(self, other: Poly) -> Poly:
        """The exact quotient in Z[u] (:func:`_zquo`); an ``ArithmeticError`` if inexact."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other._coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        return Poly(_zquo(self._coeffs, other._coeffs))

    def to_json(self) -> list[int]:
        return list(self._coeffs)

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
# Internals shared by the products, the determinant and the gcd routines.
# A polynomial here is a plain list or tuple of ints, ascending, trailing
# nonzero.
# ---------------------------------------------------------------------------


def _ztrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zprimitive(p: Sequence[int]) -> Sequence[int]:
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


def _zquo(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """a / b for integer polynomials when b divides a in Z[u]; else ArithmeticError.

    A primitive b that divides a over Q divides it in Z[u] (Gauss's lemma).
    """
    if len(b) == 1 and b[0] == 1:
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
        raise ArithmeticError("inexact polynomial division")
    return quot


def _pack(p: Sequence[int], width: int) -> int:
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


def _zgcd(f: Sequence[int], g: Sequence[int]) -> Sequence[int]:
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
        except ArithmeticError:
            width *= 2
        else:
            return h


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive greatest common divisor with a positive leading coefficient,
    by the heuristic gcd."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    return Poly(_zgcd(a.coeffs, b.coeffs))


def square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition p = c * prod part_m**m with pairwise coprime,
    square-free parts; only parts of positive degree are returned.

    Each part is a primitive polynomial with a positive leading
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
    f = _zprimitive(list(p.coeffs))
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


def divide_out_root(p: Poly, a: int, b: int) -> tuple[Poly, int]:
    """(p / (b u - a)^m, m), with m the multiplicity of the rational root a/b of p,
    for coprime a and b > 0.

    p vanishes at a/b iff b^n p(a/b) = sum c_k a^k b^(n-k) = 0, an int test;
    b u - a is then primitive and divides p over Q, so it divides p in Z[u]
    (Gauss's lemma).
    """
    coeffs, m = p.coeffs, 0
    while len(coeffs) > 1:
        value, power = 0, 1
        for c in reversed(coeffs):
            value, power = value * a + c * power, power * b
        if value:
            break
        coeffs, m = _zquo(coeffs, [-a, b]), m + 1
    return Poly(coeffs), m


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den in the canonical form of :func:`ratfunc_reduce`."""

    num: Poly
    den: Poly

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """Reduce num/den to lowest terms in Z[u], canonically.

    num and den are divided exactly by their primitive gcd and then by
    their common content, signed so that den(0) > 0, or den's leading
    coefficient when den(0) = 0 (never the case for zeta functions).
    Whenever num/den is a quotient in Z[u] whose den(0) is 1, as every zeta
    function is, the result has den(0) = 1 too.
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(ZERO, ONE)
    f, g = num.coeffs, den.coeffs
    h = _zgcd(f, g)
    f, g = _zquo(f, h), _zquo(g, h)
    content = _int_gcd(*f, *g)
    if (g[0] or g[-1]) < 0:
        content = -content
    return RatFunc(Poly(c // content for c in f), Poly(c // content for c in g))


def _recurrence(rhs: Sequence[int], den: Sequence[int], order: int) -> list[int]:
    """out_m = rhs_m - sum_{k=1}^{min(m, deg den)} den_k out_(m-k): rhs/den when den_0 = 1."""
    terms = [(k, d) for k, d in enumerate(den) if k and d]
    out: list[int] = []
    for m in range(order + 1):
        acc = rhs[m] if m < len(rhs) else 0
        for k, d in terms:
            if k > m:
                break
            acc -= d * out[m - k]
        out.append(acc)
    return out


def series_expand(f: RatFunc, order: int) -> tuple[int, ...]:
    """Taylor coefficients of f at 0 through ``order``; needs den(0) = +-1.

    num and den are divided once by den(0), so that d_0 = 1 and the recurrence
    out_m = n_m - sum_{k=1}^{min(m, deg den)} d_k out_(m-k) needs no division;
    the cost is O(order * deg den) int operations.  Another nonzero den(0)
    would make the coefficients non-integral, and is a ``ValueError``.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    d0 = f.den[0]
    if d0 == 0:
        raise ZeroDivisionError("series expansion at a pole of the function")
    if d0 not in (1, -1):
        raise ValueError(f"series expansion needs den(0) = +-1, got {d0}")
    num, den = ([d0 * c for c in p.coeffs] for p in (f.num, f.den))
    return tuple(_recurrence(num, den, order))


def log_derivative_series(z: RatFunc, order: int) -> tuple[int, ...]:
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
        cs = p.coeffs
        sums.append(_recurrence([k * c for k, c in enumerate(cs)], cs, order))
    return tuple(a - b for a, b in zip(*sums))


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

    Rows are stored as maps from column to nonzero entry, and every entry
    is packed into one integer, its value at u = 2^B (Kronecker
    substitution); the elimination below runs on those integers.  Every
    value it stores is a minor of the matrix, and its coefficients are
    bounded: by Cauchy's estimate each is
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

    on the stored values; a row that becomes the pivot row is brought up
    to date by P_{k-1} / P_{s-1} alone.  Pivoting is complete: step k
    pivots on the entry of the remaining rows (which hold only the columns
    not yet pivoted on) that is shortest once brought up to date.  Every
    row owes the same P_{k-1}, so the key is the entry's bit length less
    that of P_{s-1}, which a row's entries share: each row caches (key,
    column) of its shortest entry, refreshed only when the row is updated;
    ties go to the lowest column, then the highest row.  No row or column
    moves: the pivot row is used where it sits and leaves the remaining
    rows, so after n steps the last pivot P_{n-1} (P_{-1} = 1 when n = 0)
    is the determinant of the matrix with its rows and columns in pivot
    order, and the sign is the parity of the permutation taking each row to
    its pivot column.  Bareiss is exact for any order of nonzero pivots
    (Sylvester's identity): every entry of an up-to-date row is a minor of
    the row- and column-permuted matrix, and a stale row times
    P_{k-1} / P_{s-1} is that minor too, so each division is exact and the
    determinant is identical; a row left empty is a zero row of it, so the
    determinant is zero.  The update
    touches only columns where the row or the pivot row is nonzero.
    """
    n = matrix.n
    int_rows: list[dict[int, tuple[int, ...]]] = []
    row_sq, col_sq = [], [0] * n  # sums of squared 1-norms of the entries
    for row in matrix.rows:
        int_row = {j: p.coeffs for j, p in enumerate(row) if p.coeffs}
        row_sq.append(0)
        for j, p in int_row.items():
            square = sum(map(abs, p)) ** 2
            row_sq[-1] += square
            col_sq[j] += square
        int_rows.append(int_row)
    bound_sq = min(prod(max(1, s) for s in row_sq), prod(max(1, s) for s in col_sq))
    width = (bound_sq.bit_length() + 1) // 2 + 1  # least B with 4^(B-1) > H^2
    rows = {i: {j: _pack(p, width) for j, p in row.items()} for i, row in enumerate(int_rows)}
    if not all(rows.values()):
        return ZERO
    divisors = [1]  # divisors[k] = P_{k-1}, the divisor of step k
    step = [0] * n  # the step whose values each row holds
    shortest = {i: min((v.bit_length() - 1, j) for j, v in row.items()) for i, row in rows.items()}
    pivot_cols = [0] * n  # the column each row pivots in
    for k in range(n):
        r = min(reversed(shortest), key=shortest.__getitem__)  # ties to the highest row
        col = pivot_cols[r] = shortest.pop(r)[1]
        top, up, down = rows.pop(r), divisors[k], divisors[step[r]]
        if up != down:
            top = {j: v * up // down for j, v in top.items()}
        pivot = top.pop(col)
        pivot_bits = pivot.bit_length()
        for i, row in rows.items():
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
    sign = 1
    for k in range(n):  # sort the row-to-column permutation by swaps, each flipping the sign
        while pivot_cols[k] != k:
            j = pivot_cols[k]
            pivot_cols[k], pivot_cols[j], sign = pivot_cols[j], j, -sign
    return Poly(_unpack(divisors[n] * sign, width))
