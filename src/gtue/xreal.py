"""Extended real scalars with the arithmetic conventions the library relies on.

The whole point of this module is to pin down the non-obvious cases once:

* ``+inf`` dominates addition, in particular ``+inf + (-inf) = +inf``,
  so ``a - b >= 0`` whenever ``a >= b`` but not conversely;
* ``-inf`` absorbs any sum that contains no ``+inf``;
* ``0 * (+inf) = 0 * (-inf) = 0``;
* a positive factor preserves the sign of an infinity, a negative finite
  factor flips it, and ``(+inf) * a`` is only defined for ``a >= 0``.

Finite payloads may be ``int``, ``Fraction`` or ``float``.  Arithmetic
preserves exactness whenever both operands are exact, which is how the
library's rational mode works: feed Fractions in, get Fractions out.
NaN is rejected everywhere.  An infinite payload is always one of two
float objects, ``math.inf`` or this module's ``-math.inf``, so code that
works on raw payloads can test for an infinity by identity.

``payload`` is the one place a number is normalised: it turns an int,
Fraction, float, numeric text or ``XR`` into its raw payload.  The
``raw_*`` functions are the one body of each convention: ``raw_add``,
``raw_neg``, ``raw_scale``, ``raw_le_within`` and ``raw_close_within``
work on payloads.  ``XR`` boxes the scalars that leave the public API,
and ``add``, ``neg``, ``scale``, ``le_within`` and ``close_within`` are
the raw forms with their arguments unboxed and their result boxed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UndefinedProduct

_POS = math.inf
_NEG = -math.inf


class XR:
    """An immutable extended real: a finite number, ``+inf`` or ``-inf``."""

    __slots__ = ("v",)

    def __init__(self, value):
        # payload's int/Fraction fast path, inlined: cheaper than the call.
        kind = type(value)
        _set_payload(self, value if kind is int or kind is Fraction else payload(value))

    def __setattr__(self, name, value):
        raise AttributeError("XR is immutable")

    # -- classification -------------------------------------------------

    # Payloads are canonical, so an infinity is one of two objects.
    @property
    def is_finite(self) -> bool:
        return self.v is not _POS and self.v is not _NEG

    @property
    def is_pos_inf(self) -> bool:
        return self.v is _POS

    @property
    def is_neg_inf(self) -> bool:
        return self.v is _NEG

    # -- order ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v < other.v

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v <= other.v

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v > other.v

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.v >= other.v

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, xr(other))

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(xr(other)))

    # -- text -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialize: ``inf`` / ``-inf``, or a decimal literal.

        Fractions whose denominator is not of the form 2^a*5^b have no
        finite decimal expansion and are written as ``p/q`` instead; the
        parser accepts both, so round trips are exact.
        """
        if self.is_pos_inf:
            return "inf"
        if self.is_neg_inf:
            return "-inf"
        if isinstance(self.v, Fraction):
            return _fraction_text(self.v)
        return repr(self.v)

    def __repr__(self):
        return f"XR({self.to_text()})"


# The slot's own setter: __setattr__ is blocked to keep XR immutable.
_set_payload = XR.v.__set__


def payload(value):
    """The raw payload of a number, numeric text or XR; NaN is refused.

    Text is parsed exactly, and an infinity becomes the canonical _POS or
    _NEG object, so callers may test for it by identity.
    """
    kind = type(value)
    if kind is int or kind is Fraction:
        return value
    if isinstance(value, float):
        if value != value:
            raise ValueError("NaN is not an extended real")
        return _POS if value == _POS else _NEG if value == _NEG else value
    if isinstance(value, XR):
        return value.v
    if isinstance(value, str):
        text = value.strip()
        # "inf" and "Infinity", either signed; Fraction reads any other text.
        if text.lstrip("+-") in ("inf", "Infinity"):
            return payload(float(text))
        return Fraction(text)
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot build an extended real from {type(value).__name__}")
    return value


def raw_add(a, b):
    """Convention sum: any ``+inf`` operand wins, then any ``-inf``."""
    if a is _POS or b is _POS:
        return _POS
    if a is _NEG or b is _NEG:
        return _NEG
    # A float sum can overflow to an infinity that is not the canonical object.
    return payload(a + b)


def raw_neg(a):
    """Sign flip; total, with raw_neg(raw_neg(a)) = a."""
    if a is _POS:
        return _NEG
    if a is _NEG:
        return _POS
    return -a


def raw_scale(lam, a):
    """Convention product ``lam * a``.

    ``lam`` must be finite, or ``+inf`` with ``a >= 0``.  Zero times any
    infinity is zero; a positive factor keeps the sign of an infinity; a
    negative finite factor flips it.  ``(+inf) * a`` is ``0`` for ``a = 0``
    and ``+inf`` for ``a > 0``; everything else raises UndefinedProduct.
    """
    if lam is _NEG:
        raise UndefinedProduct("-inf is not an admissible factor")
    if lam is _POS:
        if a < 0:
            raise UndefinedProduct("(+inf) * a is undefined for a < 0")
        return 0 if a == 0 else _POS
    if lam == 0:
        return 0
    if a is _POS:
        return _POS if lam > 0 else _NEG
    if a is _NEG:
        return _NEG if lam > 0 else _POS
    return payload(lam * a)


def raw_le_within(a, b, tol) -> bool:
    """True iff a <= b + tol (order-based, safe at infinities)."""
    return not (a > raw_add(b, tol))


def raw_close_within(a, b, tol) -> bool:
    """True iff a and b agree within tol, treating equal infinities as equal."""
    if a == b:
        return True
    if a is _POS or a is _NEG or b is _POS or b is _NEG:
        return False
    return abs(a - b) <= tol


def _fraction_text(f: Fraction) -> str:
    den = f.denominator
    if den == 1:
        return str(f.numerator)
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}" if digits else f"{sign}{body}"


def _coerce(value):
    if isinstance(value, XR):
        return value
    if isinstance(value, (int, float, Fraction)):
        return XR(value)
    return NotImplemented


def xr(value) -> XR:
    """Coerce a number, string or XR to XR."""
    return value if isinstance(value, XR) else XR(value)


POS_INF = XR(_POS)
NEG_INF = XR(_NEG)


def add(a: XR, b: XR) -> XR:
    """``raw_add`` on XR."""
    return XR(raw_add(xr(a).v, xr(b).v))


def neg(a: XR) -> XR:
    """``raw_neg`` on XR."""
    return XR(raw_neg(xr(a).v))


def scale(lam, a: XR) -> XR:
    """``raw_scale`` on XR."""
    return XR(raw_scale(xr(lam).v, xr(a).v))


def le_within(a: XR, b: XR, tol) -> bool:
    """``raw_le_within`` on XR."""
    return raw_le_within(xr(a).v, xr(b).v, xr(tol).v)


def close_within(a: XR, b: XR, tol) -> bool:
    """``raw_close_within`` on XR (or any number ``payload`` reads)."""
    return raw_close_within(payload(a), payload(b), payload(tol))
