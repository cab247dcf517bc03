import random
from fractions import Fraction

import pytest

from uce3 import (
    QQ,
    DivisionByZero,
    FieldMismatch,
    ModulusTooLarge,
    NonPrimeModulus,
    PrimeField,
    SemanticError,
    field_of,
)


def test_field_of_parsing():
    assert field_of("Q") is QQ
    assert field_of(" GF(7) ").p == 7
    assert field_of(QQ) is QQ
    # int() reads any Unicode digit, so the specs accept ASCII only
    for bad in ("GF(4)", "R", "GF(-3)", "gf(5) extras", "GF(\u0663)",
                "GF(\uff17)", "Q\u00a0", "\u2003GF(3)", "GF(" + "9" * 4301 + ")"):
        with pytest.raises((SemanticError, NonPrimeModulus)):
            field_of(bad)
    with pytest.raises(SemanticError):
        field_of(7)


def test_prime_field_constructor_guards():
    with pytest.raises(NonPrimeModulus):
        PrimeField(9)
    with pytest.raises(NonPrimeModulus):
        PrimeField(1)
    with pytest.raises(NonPrimeModulus):
        PrimeField("5")
    with pytest.raises(ModulusTooLarge):
        PrimeField(2**31)
    assert PrimeField(2) == PrimeField(2)
    assert PrimeField(3) != PrimeField(5)
    assert PrimeField(3) != QQ


def test_rational_arithmetic_and_parsing():
    assert QQ.parse_scalar("-3/6") == Fraction(-1, 2)
    assert QQ.scalar_str(Fraction(4, 2)) == "2"
    assert QQ.scalar_str(Fraction(-1, 3)) == "-1/3"
    assert QQ.coerce(5) == Fraction(5)
    with pytest.raises(SemanticError):
        QQ.parse_scalar("1/0")
    for bad in ("2.5", "\u0663", "1/\u0663"):
        with pytest.raises(SemanticError):
            QQ.parse_scalar(bad)
    with pytest.raises(FieldMismatch):
        QQ.coerce(0.5)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.parse_scalar("3/5") == 2  # 3 * 5^-1 = 3 * 3 mod 7
    for bad in ("\u0663", "3/\u0665"):
        with pytest.raises(SemanticError):
            f.parse_scalar(bad)
    with pytest.raises(DivisionByZero):
        f.coerce(Fraction(1, 7))
    with pytest.raises(DivisionByZero, match=r"inverse of 0 in GF\(7\)"):
        f.parse_scalar("1/14")
    with pytest.raises(FieldMismatch):
        f.coerce(1.0)


@pytest.mark.parametrize("spec", ["Q", "GF(2)", "GF(3)", "GF(101)"])
def test_scalar_string_round_trip_random(spec):
    f = field_of(spec)
    rng = random.Random(20260819)
    for _ in range(1000):
        a = f.random_scalar(rng)
        assert f.parse_scalar(f.scalar_str(a)) == a


def test_spec_str_round_trip():
    for spec in ("Q", "GF(2)", "GF(97)"):
        f = field_of(spec)
        assert field_of(f.spec_str()) == f


def test_characteristic_annihilates():
    for p in (2, 3, 5, 101):
        f = field_of(f"GF({p})")
        assert f.characteristic == p
        rng = random.Random(p)
        for _ in range(50):
            x = f.random_scalar(rng)
            # x added to itself p times
            assert f.is_zero(f.coerce(p * x))
    assert field_of("Q").characteristic == 0


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_test_is_exact_below_the_modulus_limit():
    from uce3.fields import _MODULUS_LIMIT, _is_prime

    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if _trial_division(n)
    ]
    # strong pseudoprimes to the bases {2}, {2, 3} and {2, 3, 5}
    for n in (2047, 1373653, 25326001):
        assert not _trial_division(n)
        assert not _is_prime(n)
        with pytest.raises(NonPrimeModulus):
            PrimeField(n)
    assert _is_prime(2**31 - 1)
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    # the least strong pseudoprime to all of 2, 3, 5 and 7 is out of range
    assert _MODULUS_LIMIT < 3215031751
