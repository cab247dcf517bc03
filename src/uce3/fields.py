"""Exact ground fields: the rationals and prime fields GF(p).

Scalars are plain Python values. Over Q they are ``fractions.Fraction``
instances (always reduced, denominator positive); over GF(p) they are ints
in the canonical residue range [0, p). Field objects read, write, coerce
and draw scalars; all arithmetic runs on exact integer tensors (see
tensorops), never scalar by scalar.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ModulusTooLarge,
    NonPrimeModulus,
    SemanticError,
)

__all__ = [
    "Field",
    "Rationals",
    "PrimeField",
    "QQ",
    "field_of",
    "ensure_same_field",
]

_MODULUS_LIMIT = 2**31


def decimal_int(digits, error):
    """int(digits) for a string of ASCII decimal digits, with an optional
    sign. Past the interpreter's limit on digits read (4,300 by default on
    Python 3.11) int raises a plain ValueError; that is raised as error."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"an integer of {len(digits)} digits is too long to read")


def _is_prime(p):
    """Deterministic Miller-Rabin: the bases 2, 3, 5 and 7 decide every p
    below 3215031751, the least strong pseudoprime to all four, so every
    modulus below _MODULUS_LIMIT."""
    if p < 2:
        return False
    for a in (2, 3, 5, 7):
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class Field:
    """Common interface for the two scalar domains."""

    characteristic: int

    def coerce(self, x):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero

    def parse_scalar(self, s):
        raise NotImplementedError

    def scalar_str(self, a):
        raise NotImplementedError

    def random_scalar(self, rng):
        raise NotImplementedError

    def spec_str(self):
        raise NotImplementedError

    def __repr__(self):
        return self.spec_str()


class Rationals(Field):
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse_scalar(x)
        raise FieldMismatch(f"cannot read {x!r} as a rational scalar")

    def parse_scalar(self, s):
        m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s.strip())
        if not m:
            raise SemanticError(f"bad rational coefficient {s!r}")
        num = decimal_int(m.group(1), SemanticError)
        den = decimal_int(m.group(2), SemanticError) if m.group(2) else 1
        if den == 0:
            raise SemanticError(f"zero denominator in coefficient {s!r}")
        return Fraction(num, den)

    def scalar_str(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def random_scalar(self, rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def spec_str(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    def __init__(self, p):
        if not isinstance(p, int):
            raise NonPrimeModulus(f"modulus must be an integer, got {p!r}")
        if p >= _MODULUS_LIMIT:
            raise ModulusTooLarge(f"modulus {p} >= 2^31")
        if not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse_scalar(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise FieldMismatch(f"cannot read {x!r} as a GF({self.p}) scalar")

    def parse_scalar(self, s):
        m = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", s.strip())
        if not m:
            raise SemanticError(f"bad coefficient {s!r} for GF({self.p})")
        num = decimal_int(m.group(1), SemanticError)
        if m.group(2):
            den = decimal_int(m.group(2), SemanticError) % self.p
            if not den:
                raise DivisionByZero(f"inverse of 0 in GF({self.p})")
            num *= pow(den, -1, self.p)
        return num % self.p

    def scalar_str(self, a):
        return str(a % self.p)

    def random_scalar(self, rng):
        return rng.randrange(self.p)

    def spec_str(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()

_FIELD_RE = re.compile(r"GF\(([0-9]+)\)")


def field_of(spec):
    """Parse a field description: the literal ``Q`` or ``GF(<p>)``."""
    if isinstance(spec, Field):
        return spec
    if not isinstance(spec, str) or not spec.isascii():
        raise SemanticError(f"bad field description {spec!r}")
    s = spec.strip()
    if s == "Q":
        return QQ
    m = _FIELD_RE.fullmatch(s)
    if m:
        return PrimeField(decimal_int(m.group(1), SemanticError))
    raise SemanticError(f"unrecognized field {spec!r} (expected Q or GF(p))")


def ensure_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"fields differ: {a.spec_str()} vs {b.spec_str()}")
    return a
