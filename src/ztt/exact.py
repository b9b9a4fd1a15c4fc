"""Exact arithmetic plumbing.

Rationals, dense polynomials in one variable, truncated power series, and the
small combinatorial number tables the rest of the package leans on.
_over_lcm is the package's one step from rationals to Python ints, scaled by
the lcm of the denominators; the integer routes start from it and build one
Fraction per output value, through _fraction_poly for a polynomial.  Nothing
in this module touches floats; callers convert at the edge when they need
numerics.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "parse_rational",
    "format_rational",
    "Poly",
    "Series",
    "binomial",
    "gen_binomial",
    "falling_factorial",
    "stirling_first_unsigned",
    "stirling_second",
    "bernoulli",
    "zeta_even_coeff",
    "bell_complete",
    "det_exact",
]

# Caps on a rational literal, checked before Fraction builds it: Fraction
# computes 10**exponent in full, so "1e10000000" alone takes seconds.
_MAX_LITERAL_DIGITS = 1000
_MAX_LITERAL_EXPONENT = 1000


def _require_int(name: str, value, minimum: int | None = None) -> None:
    """The one integer guard of the entry points: ValueError for anything
    but an int, and for an int below minimum when a minimum is given."""
    # bool is an int subclass, and a float would be floored by int(); refuse both
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"needs {name} >= {minimum}, got {value!r}")


def _validate_nk(n: int, k: int, kmin: int = 0, nmin: int = 1) -> None:
    _require_int("n", n, nmin)
    _require_int("k", k, kmin)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as '3', '-5/4', '0.25' or '1e-3' exactly.

    A literal with more than 1000 digits, or with an exponent beyond
    +-1000, is refused with ValueError before any big integer is built.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    literal = text.strip()
    digits = sum(c.isdigit() for c in literal)
    if digits > _MAX_LITERAL_DIGITS:
        raise ValueError(f"rational literal has {digits} digits; "
                         f"at most {_MAX_LITERAL_DIGITS} are accepted")
    _, marker, exponent = literal.lower().rpartition("e")
    if marker:
        try:
            power = int(exponent)
        except ValueError:
            power = 0  # malformed; Fraction reports it below
        if abs(power) > _MAX_LITERAL_EXPONENT:
            raise ValueError(f"rational literal exponent {power} is outside "
                             f"-{_MAX_LITERAL_EXPONENT}..{_MAX_LITERAL_EXPONENT}")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Render a rational as 'p/q', or just 'p' when the denominator is 1.

    str() refuses integers past the interpreter's digit limit (4300 by
    default), which exact laws reach at n, k of a few hundred; those are
    rendered through Decimal, which has no such limit.
    """
    q = Fraction(value)
    try:
        return str(q)
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


class Poly:
    """Dense univariate polynomial with exact coefficients.

    Coefficients are stored lowest power first with trailing zeros trimmed,
    so the zero polynomial has an empty tuple and degree -1.  Coefficients
    are usually Fraction but any commutative ring element with +, * and a
    false zero works (the graded pi-power values use this).  Arithmetic
    keeps the coefficient type: int coefficients in give int coefficients
    out.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, coeff, power: int) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((Fraction(0),) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return Poly(tuple(other * c for c in self.coeffs))

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return Fraction(0) if acc is None else acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return f"Poly({' + '.join(parts)})"


class Series:
    """Truncated power series in z over any commutative ring.

    A series of order K holds coefficients of z^0 .. z^K; multiplication
    truncates at order K and requires both operands to share the order.
    Missing coefficients are the zero of the first one's ring (else int 0),
    so a product of two series over int, Fraction or Poly stays in that
    ring; distributions.bernoulli_sum_pmf runs on it.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("too many series coefficients for the given order")
        cs += [cs[0] * 0 if cs else 0] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls(order, (1,))

    def coefficient(self, j: int):
        if not 0 <= j <= self.order:
            raise IndexError(f"series coefficient {j} outside order {self.order}")
        return self.coeffs[j]

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )
        k = self.order
        out = [self.coeffs[0] * 0] * (k + 1)
        # other's non-zero terms only, so a sparse factor such as 1 - p + p z costs O(k)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in terms:
                if i + j > k:
                    break
                out[i + j] = out[i + j] + a * b
        return Series(k, out)

    def __repr__(self) -> str:
        return f"Series(order={self.order}, coeffs={list(self.coeffs)!r})"


def binomial(n: int, k: int) -> int:
    """Binomial coefficient via falling factorials, valid for negative n."""
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValueError("binomial expects integer arguments")
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    # reflection: C(n, k) = (-1)^k C(k - n - 1, k) for n < 0
    return (-1) ** k * math.comb(k - n - 1, k)


def gen_binomial(x, j: int) -> Fraction:
    """Generalized binomial coefficient C(x, j) for rational x."""
    if not isinstance(j, int):
        raise ValueError("gen_binomial expects an integer lower index")
    if j < 0:
        return Fraction(0)
    return falling_factorial(Fraction(x), j) / math.factorial(j)


def falling_factorial(x, s: int):
    """x (x-1) ... (x-s+1); exact for int or Fraction x."""
    if s < 0:
        raise ValueError("falling factorial length must be >= 0")
    out = x - x + 1 if not isinstance(x, int) else 1
    for i in range(s):
        out = out * (x - i)
    return out


def _stirling_rows(n: int, width: int, second: bool = False):
    """Rows 0..n of the unsigned Stirling numbers of the first kind, or of
    the second kind when second, each cut to columns 0..width.

    Built bottom-up, each row from the one before it, by
    c(m+1, j) = c(m, j-1) + m c(m, j) and S(m+1, j) = S(m, j-1) + j S(m, j):
    about n * width products, no recursion, and only the last row is held.
    """
    row = [1]
    yield row
    for m in range(n):
        nxt = [0] * (min(m + 1, width) + 1)
        for j, v in enumerate(row):
            nxt[j] += (j if second else m) * v
            if j < width:
                nxt[j + 1] += v
        row = nxt
        yield row


def _stirling(n: int, k: int, second: bool) -> int:
    _require_int("n", n, 0)
    _require_int("k", k)
    if k < 0 or k > n:
        return 0
    for row in _stirling_rows(n, k, second):
        pass
    return row[k]


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    return _stirling(n, k, second=False)


def stirling_second(n: int, k: int) -> int:
    """Stirling numbers of the second kind (set partition counts)."""
    return _stirling(n, k, second=True)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2."""
    if m < 0:
        raise ValueError("bernoulli needs m >= 0")
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += binomial(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def zeta_even_coeff(j: int) -> Fraction:
    """Rational r with zeta(2j) = r * pi**(2j)."""
    if j < 1:
        raise ValueError("zeta_even_coeff needs j >= 1")
    sign = 1 if j % 2 else -1
    return sign * bernoulli(2 * j) * Fraction(2 ** (2 * j - 1)) / math.factorial(2 * j)


def bell_complete(xs: Sequence, k: int):
    """Complete Bell polynomial B_k(x_1, ..., x_k).

    Uses the convolution recurrence
        B_k = sum_{j=1}^{k} C(k-1, j-1) x_j B_{k-j},  B_0 = 1,
    and works verbatim over rationals, integers or Poly arguments; integer
    arguments give an integer result.
    """
    if k < 0:
        raise ValueError("bell_complete needs k >= 0")
    if len(xs) < k:
        raise ValueError(f"bell_complete needs at least {k} arguments, got {len(xs)}")
    bs = [1]
    for i in range(1, k + 1):
        total = None
        for j in range(1, i + 1):
            term = binomial(i - 1, j - 1) * (xs[j - 1] * bs[i - j])
            total = term if total is None else total + term
        bs.append(total)
    return bs[k]


def _over_lcm(values: Iterable) -> tuple[int, list[int]]:
    """D and the integers D*v for the rationals v in values, with D the lcm
    of their denominators: the one conversion from rationals to scaled
    integers, after which each caller builds one Fraction per output."""
    vs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in vs))
    return den, [v.numerator * (den // v.denominator) for v in vs]


def _fraction_poly(coeffs, denominator: int) -> Poly:
    """The polynomial with coefficients c / denominator, one Fraction each,
    for integer coefficients c (lowest power first): the other end of the
    integer routes that start from _over_lcm."""
    return Poly([Fraction(c, denominator) for c in coeffs])


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of rationals, as one Fraction.

    Each row is scaled by the lcm D_i of its denominators to integers, and
    fraction-free Bareiss elimination with row pivoting runs on them: every
    intermediate value is a minor of the integer matrix, so the division by
    the previous pivot (1 at the first step) is an exact //.  The result is
    det / prod D_i, about k^3/3 integer products for a k x k matrix.  The
    empty matrix has determinant 1.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("det_exact needs a square matrix")
    if k == 0:
        return Fraction(1)
    m = []
    scale = 1
    for row in rows:
        den, ints = _over_lcm(row)
        scale *= den
        m.append(ints)
    sign = 1
    prev = 1
    for r in range(k - 1):
        if not m[r][r]:
            for i in range(r + 1, k):
                if m[i][r]:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        piv = m[r][r]
        for i in range(r + 1, k):
            row_i = m[i]
            for j in range(r + 1, k):
                row_i[j] = (row_i[j] * piv - row_i[r] * m[r][j]) // prev
        prev = piv
    return Fraction(sign * m[k - 1][k - 1], scale)
