"""Exact dense integer-coefficient polynomial arithmetic.

Coefficients are arbitrary-precision Python ints stored low-to-high:
``coeffs[i]`` is the coefficient of x^i.  For a domination polynomial of an
n-vertex graph the degree is n, the leading coefficient is 1, the constant
term is 0, and the least nonzero index is the domination number.

Evaluation is exact at integer and rational points.  The complex solver
evaluates in its own fixed point, by default at 256 bits; double precision
is useless here because coefficient magnitudes reach binomial scale while
the interesting roots sit near the unit circle.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Union

if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION = 256  # bits
MIN_PRECISION = 53
_HEURISTIC_GCD_TRIES = 4

Scalar = Union[int, Fraction]


@contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on the digits of an int/str conversion (4300 by
    default, from 3.10.7 on) for the body of the `with`, and put the
    caller's limit back after it: exact coefficients convert at any size."""
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10.0 to 3.10.6
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class IntPolynomial:
    """Immutable dense polynomial over the integers.

    The zero polynomial is the empty coefficient tuple; trailing zero
    coefficients are always stripped on construction.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        items = list(coeffs)
        for c in items:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

    @classmethod
    def from_coeff_string(cls, text: str) -> "IntPolynomial":
        """Parse the serialization produced by :meth:`to_coeff_string`.

        Format: decimal coefficients low-to-high, comma-separated.  The
        empty string is the zero polynomial.
        """
        text = text.strip()
        if not text:
            return cls()
        try:
            with _unlimited_int_digits():
                return cls(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed coefficient list: {text!r}") from exc

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def valuation(self) -> int:
        """Least index with a nonzero coefficient; -1 for zero.

        For a domination polynomial this is the domination number.
        """
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int) and not isinstance(other, bool):
            return self == IntPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self) -> str:
        with _unlimited_int_digits():
            return f"IntPolynomial({list(self.coeffs)!r})"

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        """J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2, §4.7).

        With the base written as x^s·(p_0 + p_1·x + ... + p_d·x^d), p_0 ≠ 0,
        the power is x^(sn)·(q_0 + ... + q_(nd)·x^(nd)) where q_0 = p_0^n and

            k·p_0·q_k = Σ_{i=1..min(d,k)} ((n+1)·i - k)·p_i·q_(k-i),

        an exact integer division.  Only the nonzero p_i enter the sum, so
        the power costs O(n·d·t) big-integer operations for t terms; a
        two-term base reduces to the binomial update.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if self.is_zero:
            return IntPolynomial() if exponent else ONE
        s = self.valuation
        p = self.coeffs[s:]
        p0 = p[0]
        terms = [(i, c, (exponent + 1) * i) for i, c in enumerate(p) if i and c]
        q = [0] * (exponent * (len(p) - 1) + 1)
        q[0] = p0 ** exponent
        for k in range(1, len(q)):
            acc = 0
            for i, c, weight in terms:
                if i > k:
                    break
                acc += (weight - k) * c * q[k - i]
            q[k] = acc // (k * p0)
        return IntPolynomial([0] * (s * exponent) + q)

    # -- evaluation ----------------------------------------------------

    def eval_int(self, point: Scalar) -> Scalar:
        """Exact Horner evaluation at an integer or Fraction point."""
        return horner(self.coeffs, point)

    def eval_complex(self, z, precision: int | None = None) -> mpmath.mpc:
        """Horner evaluation at a complex point, at `precision` bits.

        Coefficients wider than the working precision raise it so the
        conversion stays exact.  It needs mpmath, from the `test` extra.
        Nothing in the package calls it, since the solver evaluates in its
        own fixed point; it stays because the tests use it and the
        benchmark's tracer looks it up by name.
        """
        import mpmath

        prec = _working_precision(self, precision)
        with mpmath.workprec(prec):
            return horner(self.coeffs, mpmath.mpc(z))

    # -- calculus / transforms ------------------------------------------

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def shift(self, c: int) -> "IntPolynomial":
        """Exact composition p(x + c)."""
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("shift amount must be an integer")
        return IntPolynomial(taylor_shift(self.coeffs, c))

    # -- content / primitive --------------------------------------------

    def content(self) -> int:
        """Non-negative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def content_and_primitive(self) -> tuple[int, "IntPolynomial"]:
        """Split into (content, primitive part); the primitive part keeps
        the sign of the leading coefficient."""
        g = self.content()
        if g == 0:
            return 0, IntPolynomial()
        return g, IntPolynomial(c // g for c in self.coeffs)

    # -- serialization ---------------------------------------------------

    def to_coeff_string(self) -> str:
        """Decimal coefficients low-to-high, comma-separated ('' for zero)."""
        with _unlimited_int_digits():
            return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        with _unlimited_int_digits():
            return terms_text(self.coeffs, [str(c) for c in self.coeffs])


def terms_text(coeffs, digits) -> str:
    """The `str` form of the polynomial with low-to-high `coeffs`, given
    their decimal strings `digits`, so a caller that also prints the
    coefficient list converts each coefficient once."""
    parts: list[str] = []
    for i, (c, text) in enumerate(zip(coeffs, digits)):
        if not c:
            continue
        mag = text[1:] if c < 0 else text
        if i == 0:
            body = mag
        elif i == 1:
            body = "x" if mag == "1" else f"{mag}x"
        else:
            body = f"x^{i}" if mag == "1" else f"{mag}x^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def horner(coeffs, z):
    """Value at z of the polynomial with low-to-high coefficients `coeffs`.

    Arithmetic is that of z's type: exact for int and Fraction points, in
    doubles for float and complex ones, and at the current mpmath precision
    for mpc points (`eval_complex`).  The zero polynomial evaluates to a
    zero of that type.
    """
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _coerce(value) -> "IntPolynomial":
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return IntPolynomial.constant(value)
    return NotImplemented


def _working_precision(p: IntPolynomial, precision: int | None) -> int:
    prec = DEFAULT_PRECISION if precision is None else precision
    if prec < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
    width = max((abs(c).bit_length() for c in p.coeffs), default=0)
    return max(prec, width + 32)


# Handy generators for formula code.
X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact gcd in Z[x], normalized to a positive leading coefficient.
    gcd(0, 0) = 0.

    The heuristic gcd answers almost always; the primitive remainder
    sequence is the fallback when it gives up."""
    if p.is_zero:
        return _positive_lead(q)
    if q.is_zero:
        return _positive_lead(p)
    cont = math.gcd(p.content(), q.content())
    _, a = p.content_and_primitive()
    _, b = q.content_and_primitive()
    g = _heuristic_gcd(a, b)
    if g is None:
        *_, g = _signed_prs(a, b)
    return cont * _positive_lead(g)


def _heuristic_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial | None:
    """GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989) for
    primitive nonzero a and b: the primitive part of the polynomial whose
    balanced base-2^k digits are gcd(a(2^k), b(2^k)).

    Once 2^k >= 2*min(|a|, |b|) + 2, a candidate that divides both a and b
    is their gcd, so each candidate is checked by exact division.  The
    width starts at two bits above the widest coefficient, which meets that
    bound, and doubles on each failure; None after the last."""
    height = max(abs(c) for c in a.coeffs + b.coeffs).bit_length()
    k = _digit_width(height + 2)
    for _ in range(_HEURISTIC_GCD_TRIES):
        value = math.gcd(_packed_value(a.coeffs, k), _packed_value(b.coeffs, k))
        digits = _balanced_digits(value, k, value.bit_length() // k + 2)
        _, g = IntPolynomial(digits).content_and_primitive()
        try:
            exact_div(a, g)
            exact_div(b, g)
        except ValueError:
            k *= 2
            continue
        return g
    return None


def _signed_prs(a: IntPolynomial, b: IntPolynomial) -> Iterator[IntPolynomial]:
    """Yield a, b, r_2, ..., r_k for primitive nonzero a and b, with r_i =
    -prim(pseudo_rem(r_(i-2), r_(i-1))) and r_k a primitive gcd of a and b.
    Only positive factors scale the members, so their signs are those of
    the signed remainder sequence over Q that Sturm's theorem uses."""
    yield a
    while not b.is_zero:
        yield b
        _, r = pseudo_rem(a, b).content_and_primitive()
        a, b = b, -r


def pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of |lead(b)|^(deg a - deg b + 1) * a divided by b.

    The scaling factor is strictly positive, so the result has the same
    sign pattern as the exact rational remainder — the property Sturm
    sequences need.  Returns a unchanged when deg a < deg b.
    """
    if b.is_zero:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    da, db = a.degree, b.degree
    if da < db:
        return a
    lb = b.lead
    r = list(a.coeffs)
    bc = b.coeffs
    for k in range(da - db, -1, -1):
        top = r[db + k]
        r = [lb * c for c in r]
        if top:
            for i, cb in enumerate(bc):
                r[i + k] -= top * cb
        del r[db + k:]
    if lb < 0 and (da - db + 1) % 2 == 1:
        # make the net scale factor |lb|^(da-db+1), i.e. positive
        r = [-c for c in r]
    return IntPolynomial(r)


def exact_div(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Exact quotient p / q in Z[x]; raises ValueError if not divisible."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return IntPolynomial()
    dq = q.degree
    if p.degree < dq:
        raise ValueError("not exactly divisible")
    rem = list(p.coeffs)
    qc = q.coeffs
    out = [0] * (p.degree - dq + 1)
    for k in range(p.degree - dq, -1, -1):
        coef, r = divmod(rem[dq + k], qc[-1])
        if r:
            raise ValueError("quotient is not integral")
        out[k] = coef
        if coef:
            for i, cb in enumerate(qc):
                rem[i + k] -= coef * cb
    if any(rem):
        raise ValueError("not exactly divisible")
    return IntPolynomial(out)


def _positive_lead(p: IntPolynomial) -> IntPolynomial:
    return -p if p.lead < 0 else p


# -- Kronecker substitution ------------------------------------------------------


def _digit_width(bits: int) -> int:
    """The least multiple of 8 that is >= bits, so digits are whole bytes."""
    return -(-bits // 8) * 8


def taylor_shift(coeffs, c: int) -> list[int]:
    """Low-to-high coefficients of p(x + c), for p with low-to-high `coeffs`,
    by one packed evaluation.

    Horner's rule at 2^k + c, each step (acc << k) + c*acc + a_i, gives
    the integer sum_j b_j*2^(kj) for the coefficients b_j of p(x + c).
    Since sum|b_j| <= sum|a_i|*(1 + |c|)^d < 2^(k-1), the b_j are its
    balanced base-2^k digits (Kronecker substitution).
    """
    if c == 0 or len(coeffs) < 2:
        return list(coeffs)
    norm = sum(abs(a) for a in coeffs)
    growth = (abs(c) + 1) ** (len(coeffs) - 1)
    k = _digit_width(norm.bit_length() + growth.bit_length() + 1)
    return _balanced_digits(_packed_value(coeffs, k, c), k, len(coeffs))


def _packed_value(coeffs, k: int, c: int = 0) -> int:
    """Value at 2^k + c of the polynomial with low-to-high `coeffs`."""
    acc = 0
    if c == 1:  # the Descartes shift; skipping the product saves a third
        for a in reversed(coeffs):
            acc = (acc << k) + acc + a
    else:
        for a in reversed(coeffs):
            acc = (acc << k) + c * acc + a
    return acc


def _balanced_digits(n: int, k: int, count: int) -> list[int]:
    """The digits b_0..b_(count-1), each in [-2^(k-1), 2^(k-1)), of
    n = sum_j b_j*2^(kj), for k a multiple of 8.

    Adding 2^(k-1) to every digit makes them the plain base-2^k digits of
    n + offset, which one byte conversion reads in linear time."""
    size = k // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = (n + offset).to_bytes(size * count, "little")
    half = 1 << (k - 1)
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, size * count, size)]
