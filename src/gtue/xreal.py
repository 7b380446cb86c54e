"""Extended real scalars with the arithmetic conventions the library relies on.

The whole point of this module is to pin down the non-obvious cases once:

* ``+inf`` dominates addition, in particular ``+inf + (-inf) = +inf``,
  so ``a - b >= 0`` whenever ``a >= b`` but not conversely;
* ``-inf`` absorbs any sum that contains no ``+inf``;
* ``0 * (+inf) = 0 * (-inf) = 0``;
* a positive factor preserves the sign of an infinity, a negative finite
  factor flips it, and ``(+inf) * a`` is only defined for ``a >= 0``.

Every scalar is a raw payload: an ``int``, ``Fraction`` or ``float``.
Arithmetic preserves exactness whenever both operands are exact, which
is how the library's rational mode works: feed Fractions in, get
Fractions out.  NaN is rejected everywhere.  An infinite payload is
always one of two float objects, ``POS_INF`` (``math.inf``) or
``NEG_INF``, so code on payloads can test for an infinity by identity.

``payload`` is the one place a number is normalised: it turns an int,
Fraction, float or numeric text into its canonical payload, and
``payload_table`` does the same for a table of cells.  The
``raw_*`` functions are the one body of each convention and expect
canonical payloads.  The public forms ``add``, ``neg``, ``scale``,
``le_within`` and ``close_within`` take any number ``payload`` reads, so
a caller's own ``float("inf")`` gets the conventions too.  ``to_text``
writes a payload as text that ``payload`` reads back exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UndefinedProduct

# The canonical infinite payloads: payload() maps every infinity to one of
# these two objects, so code on payloads may test for an infinity by identity.
POS_INF = math.inf
NEG_INF = -math.inf


def payload(value):
    """The raw payload of a number or numeric text; NaN is refused.

    Text is parsed exactly, and an infinity becomes the canonical POS_INF or
    NEG_INF object, so callers may test for it by identity.
    """
    kind = type(value)
    if kind is int or kind is Fraction:
        return value
    if isinstance(value, float):
        if value != value:
            raise ValueError("NaN is not an extended real")
        return POS_INF if value == POS_INF else NEG_INF if value == NEG_INF else value
    if isinstance(value, str):
        text = value.strip()
        # "inf" and "Infinity", either signed; Fraction reads any other text.
        if text.lstrip("+-") in ("inf", "Infinity"):
            return POS_INF if float(text) > 0 else NEG_INF
        return Fraction(text)
    if isinstance(value, bool):
        return int(value)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot build an extended real from {type(value).__name__}")
    return value


class Payloads(tuple):
    """A tuple of canonical payloads, which ``payload_table`` keeps as it is."""

    __slots__ = ()


_PLAIN_KINDS = frozenset((int, float, Fraction, str))
_FLOAT_KINDS = frozenset((float, str))


def plain_payloads(values):
    """The cells as payloads, in C-level passes with no ``payload`` call, or None.

    Ints, Fractions and finite floats are payloads as they are, and the text
    "inf" is POS_INF.  A table of only these is checked by the set of its
    cell types, then the sum of its floats, which is finite only if every
    float is; where it has text, one pass finds it.  Any other cell gives
    None: a bool, a NaN or infinite float, other text or a non-number.
    (A float table whose sum overflows gives None too; payload keeps it.)
    """
    kinds = set(map(type, values))
    if not kinds <= _PLAIN_KINDS:
        return None
    cells = list(values)
    texts = [i for i, v in enumerate(cells) if type(v) is str] if str in kinds else ()
    for i in texts:
        if cells[i] != "inf":
            return None
        cells[i] = 0.0  # a finite stand-in while the floats are summed
    if float in kinds:
        floats = cells if kinds <= _FLOAT_KINDS else filter(float.__instancecheck__, cells)
        if not math.isfinite(sum(floats)):
            return None
    for i in texts:
        cells[i] = POS_INF
    return Payloads(cells)


def payload_table(cells) -> Payloads:
    """The one table normaliser: a ``Payloads`` is kept, else ``plain_payloads`` or ``payload``."""
    if type(cells) is Payloads:
        return cells
    cells = tuple(cells)
    return plain_payloads(cells) or Payloads(map(payload, cells))


def raw_add(a, b):
    """Convention sum: any ``+inf`` operand wins, then any ``-inf``."""
    if a is POS_INF or b is POS_INF:
        return POS_INF
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    # A float sum can overflow to an infinity that is not the canonical object.
    return payload(a + b)


def raw_neg(a):
    """Sign flip; total, with raw_neg(raw_neg(a)) = a."""
    if a is POS_INF:
        return NEG_INF
    if a is NEG_INF:
        return POS_INF
    return -a


def raw_scale(lam, a):
    """Convention product ``lam * a``.

    ``lam`` must be finite, or ``+inf`` with ``a >= 0``.  Zero times any
    infinity is zero; a positive factor keeps the sign of an infinity; a
    negative finite factor flips it.  ``(+inf) * a`` is ``0`` for ``a = 0``
    and ``+inf`` for ``a > 0``; everything else raises UndefinedProduct.
    """
    if lam is NEG_INF:
        raise UndefinedProduct("-inf is not an admissible factor")
    if lam is POS_INF:
        if a < 0:
            raise UndefinedProduct("(+inf) * a is undefined for a < 0")
        return 0 if a == 0 else POS_INF
    if lam == 0:
        return 0
    if a is POS_INF:
        return POS_INF if lam > 0 else NEG_INF
    if a is NEG_INF:
        return NEG_INF if lam > 0 else POS_INF
    return payload(lam * a)


def raw_le_within(a, b, tol) -> bool:
    """True iff a <= b + tol (order-based, safe at infinities)."""
    if not tol and type(tol) is not float:  # b + 0 is b; a float 0.0 would make an exact b inexact
        return not (a > b)
    return not (a > raw_add(b, tol))


def raw_close_within(a, b, tol) -> bool:
    """True iff a and b agree within tol, treating equal infinities as equal."""
    if a == b:
        return True
    if a is POS_INF or a is NEG_INF or b is POS_INF or b is NEG_INF:
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




def to_text(value) -> str:
    """Serialize a payload: ``inf`` / ``-inf``, or a decimal literal.

    Fractions whose denominator is not of the form 2^a*5^b have no
    finite decimal expansion and are written as ``p/q`` instead; the
    parser accepts both, so round trips are exact.
    """
    if value is POS_INF:
        return "inf"
    if value is NEG_INF:
        return "-inf"
    if isinstance(value, Fraction):
        return _fraction_text(value)
    return repr(value)


def add(a, b):
    """``raw_add`` on any numbers ``payload`` reads."""
    return raw_add(payload(a), payload(b))


def neg(a):
    """``raw_neg`` on any number ``payload`` reads."""
    return raw_neg(payload(a))


def scale(lam, a):
    """``raw_scale`` on any numbers ``payload`` reads."""
    return raw_scale(payload(lam), payload(a))


def le_within(a, b, tol) -> bool:
    """``raw_le_within`` on any numbers ``payload`` reads."""
    return raw_le_within(payload(a), payload(b), payload(tol))


def close_within(a, b, tol) -> bool:
    """``raw_close_within`` on any numbers ``payload`` reads."""
    return raw_close_within(payload(a), payload(b), payload(tol))
