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
over integer polynomials (rows are cleared of denominators first), and
polynomial gcds use the subresultant pseudo-remainder sequence; both avoid
the coefficient blow-up of naive rational elimination.  Before that
sequence, :func:`poly_gcd` tries a certificate: a unit gcd modulo the prime
2**61 - 1 proves the gcd over Q is 1, which is the common case (reduced
zeta functions, square-free denominators).

The elimination keeps rows sparse and skips every row whose pivot-column
entry is zero, since Bareiss would only rescale it by P_k / P_{k-1} (P_k
the pivot of step k).  A skipped row remembers the step its values belong
to; the factors it missed telescope to one quotient of two pivots, which
is folded into the row's next update, or applied when the row becomes the
pivot row or the last row.  An up-to-date entry is then the same minor of
the matrix as in dense Bareiss, so every division stays exact and the
determinant is unchanged; on the banded edge-side matrices of the loop
family most rows sit out most steps, and the work drops accordingly.

Inside the elimination each integer polynomial entry is one integer, its
value at u = 2^B (Kronecker substitution), so every product and exact
division is a single big-integer operation in CPython's C code.  B comes
from a proven bound on the coefficients of every minor the elimination
stores (Hadamard's inequality on |u| = 1 with Cauchy's estimate), so
packing is injective on them: zero tests, pivots and quotients are those
over Z[u], and the determinant is read back as balanced base-2^B digits
with masks and shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm, prod
from typing import Iterable, Union

Scalar = Union[int, Fraction]

CERTIFICATE_PRIME = 2**61 - 1

__all__ = [
    "Poly",
    "RatFunc",
    "PolyMatrix",
    "poly_gcd",
    "poly_det",
    "ratfunc_reduce",
    "ratfunc_pow",
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

    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self._coeffs])

    def __add__(self, other: Poly | Scalar) -> Poly:
        other = _as_poly(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Poly | Scalar) -> Poly:
        return _as_poly(other) + (-self)

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

    def __divmod__(self, other: Poly | Scalar) -> tuple[Poly, Poly]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self._coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.leading()
        quot = [Fraction(0)] * max(dd - dv + 1, 0)
        for k in range(dd - dv, -1, -1):
            q = rem[dv + k] / lead
            quot[k] = q
            if q:
                for j, c in enumerate(other._coeffs):
                    rem[k + j] -= q * c
        return Poly(quot), Poly(rem[:dv] if dv > 0 else [])

    def __floordiv__(self, other: Poly | Scalar) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly | Scalar) -> Poly:
        return divmod(self, other)[1]

    def __truediv__(self, other: Poly | Scalar) -> Poly:
        """Exact division; raises if the division leaves a remainder."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Poly([c / other for c in self._coeffs])
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def __call__(self, x):
        """Evaluate by Horner's rule; exact when ``x`` is int or Fraction."""
        acc = x * 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self / self.leading()

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


def _as_poly(value: Poly | Scalar) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly([value])


# ---------------------------------------------------------------------------
# Integer-coefficient internals shared by the determinant and gcd routines.
# An integer polynomial is a plain list of ints, ascending, trailing nonzero.
# ---------------------------------------------------------------------------


def _ztrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zcontent(p: list[int]) -> int:
    g = 0
    for c in p:
        g = _int_gcd(g, abs(c))
    return g


def _zprimitive(p: list[int]) -> list[int]:
    g = _zcontent(p)
    if g <= 1:
        return list(p)
    return [c // g for c in p]


def _to_int_polys(polys: list[Poly]) -> tuple[list[list[int]], int]:
    """Clear denominators: (integer coefficient lists, their common multiplier)."""
    mult = lcm(*(c.denominator for p in polys for c in p.coeffs))
    if mult == 1:
        return [[c.numerator for c in p.coeffs] for p in polys], 1
    return [[c.numerator * (mult // c.denominator) for c in p.coeffs] for p in polys], mult


def _zprem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of lc(g)**(deg f - deg g + 1) * f modulo g."""
    dg, lg = len(g) - 1, g[-1]
    rem = list(f)
    steps = len(f) - len(g) + 1
    while rem and len(rem) - 1 >= dg:
        lr, dr = rem[-1], len(rem) - 1
        rem = [lg * c for c in rem]
        for j, y in enumerate(g):
            rem[dr - dg + j] -= lr * y
        _ztrim(rem)
        steps -= 1
    if steps > 0:
        scale = lg**steps
        rem = [scale * c for c in rem]
    return rem


def _gf_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a modulo b over GF(P), ascending coefficients, b nonzero."""
    rem = list(a)
    db = len(b) - 1
    inverse = pow(b[-1], -1, CERTIFICATE_PRIME)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * inverse % CERTIFICATE_PRIME
        if c:
            for j in range(db):
                rem[k + j] = (rem[k + j] - c * b[j]) % CERTIFICATE_PRIME
    return _ztrim(rem[:db])


def _coprime_mod_prime(f: list[int], g: list[int]) -> bool:
    """True proves f and g coprime over Q; False proves nothing.

    The primitive gcd h of f and g over Z divides both, so when the prime P
    does not divide lc(f), or else lc(g), it does not divide lc(h) either:
    h keeps its degree modulo P, where it divides gcd(f, g) over GF(P).  A
    unit gcd over GF(P) therefore forces deg h = 0.
    """
    if f[-1] % CERTIFICATE_PRIME == 0 and g[-1] % CERTIFICATE_PRIME == 0:
        return False
    a = _ztrim([c % CERTIFICATE_PRIME for c in f])
    b = _ztrim([c % CERTIFICATE_PRIME for c in g])
    while b:
        if len(b) == 1:
            return True
        a, b = b, _gf_rem(a, b)
    return False


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor: a certificate modulo a prime, else the
    subresultant remainder sequence."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return ONE
    (f, g), _ = _to_int_polys([a, b])
    f, g = _zprimitive(f), _zprimitive(g)
    if _coprime_mod_prime(f, g):
        return ONE
    if len(f) < len(g):
        f, g = g, f
    gg, h = 1, 1
    while True:
        d = len(f) - len(g)
        rem = _zprem(f, g)
        if not rem:
            break
        if len(rem) == 1:
            return ONE
        divisor = gg * h**d
        f, g = g, [c // divisor for c in rem]
        gg = f[-1]
        h = h if d == 0 else (gg**d if d == 1 else gg**d // h ** (d - 1))
    return Poly(_zprimitive(g)).monic()


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den, canonical once den(0) is nonzero."""

    num: Poly
    den: Poly

    def is_one(self) -> bool:
        return self.num == ONE and self.den == ONE

    def __mul__(self, other: RatFunc) -> RatFunc:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return ratfunc_reduce(self.num * other.num, self.den * other.den)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """Reduce num/den to lowest terms and normalize so that den(0) = 1.

    When the denominator vanishes at 0 (never the case for zeta functions),
    the denominator is made monic instead, so reduction stays canonical.
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(ZERO, ONE)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num / g, den / g
    scale = den[0] or den.leading()
    if scale != 1:
        num, den = num / scale, den / scale
    return RatFunc(num, den)


def ratfunc_pow(f: RatFunc, c: int) -> RatFunc:
    """Exact c-th power of a reduced rational function, c >= 1.

    Powers preserve reducedness (gcd(num, den) = 1 implies the same for the
    powers), so no gcd is recomputed.
    """
    if c < 1:
        raise ValueError("exponent must be a positive integer")
    return RatFunc(f.num**c, f.den**c)


def _scalars(p: Poly, scale: Fraction | int = 1) -> list[Scalar]:
    """Coefficients of p / scale, each an ``int`` when it is integral."""
    cs = p.coeffs if scale == 1 else (p / scale).coeffs
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

    def __getitem__(self, ij: tuple[int, int]) -> Poly:
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def identity(cls, n: int) -> PolyMatrix:
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


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
    homomorphism, the pivots and row swaps are those over Z[u], every
    division is exact in the integers and its quotient is the packed minor.
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
    row, is brought up to date by P_{k-1} / P_{s-1} alone.  Zero tests do not
    care about the missing nonzero factor, so the pivots and row swaps are
    those of dense Bareiss.  Every entry of an up-to-date row is the same
    minor of the scaled matrix as in dense Bareiss, and a stale row times
    P_{k-1} / P_{s-1} is that minor too, so each division is exact and the
    determinant is identical.  The update touches only columns where the
    row or the pivot row is nonzero.
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
    rows: list[dict[int, int]] = []
    for int_row in int_rows:
        packed = {}
        for j, p in int_row.items():
            value = 0
            for c in reversed(p):
                value = (value << width) + c
            packed[j] = value
        rows.append(packed)
    divisors = [1]  # divisors[k] = P_{k-1}, the divisor of step k
    step = [0] * n  # the step whose values each row holds
    sign = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if k in rows[r]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            step[k], step[pivot_row] = step[pivot_row], step[k]
            sign = -sign
        top, up, down = rows[k], divisors[k], divisors[step[k]]
        if up != down:
            top = {j: v * up // down for j, v in top.items()}
        pivot = top.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            rik = row.pop(k, None)
            if rik is None:
                continue
            divisor = divisors[step[i]]
            for j in row.keys() | top.keys():
                value = (pivot * row.get(j, 0) - rik * top.get(j, 0)) // divisor
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
            step[i] = k + 1
        divisors.append(pivot)
    det = rows[n - 1].get(n - 1, 0) * divisors[n - 1] // divisors[step[n - 1]] * sign
    mask, half = (1 << width) - 1, 1 << (width - 1)
    coeffs = []
    while det:
        digit = det & mask
        det >>= width
        if digit >= half:
            digit -= 1 << width
            det += 1
        coeffs.append(digit)
    return Poly(coeffs) if scale == 1 else Poly(coeffs) / scale
