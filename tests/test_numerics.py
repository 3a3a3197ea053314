import random
from fractions import Fraction

import pytest

from blockdensity.numerics import (
    cantor_pair,
    cantor_unpair,
    enum_rationals_12,
    rat_make,
    rat_parse,
    rat_str,
)

from _oracles import (
    frac_add,
    frac_div,
    frac_mul,
    frac_norm,
    frac_sub,
    rationals_between_one_and_two,
)


def test_rat_make_examples():
    assert rat_make(3, 2) == Fraction(3, 2)
    assert rat_make(6, 4) == Fraction(3, 2)
    q = rat_make(5, -4)
    assert (q.numerator, q.denominator) == (-5, 4)


def test_rat_make_rejects_zero_denominator():
    with pytest.raises(ValueError):
        rat_make(1, 0)


def test_rat_serialization_round_trip():
    for num, den in [(3, 2), (-5, 4), (7, 1), (0, 9)]:
        q = rat_make(num, den)
        assert rat_parse(rat_str(q)) == q
    assert rat_str(rat_make(6, 4)) == "3/2"
    assert rat_parse("7") == Fraction(7)


def test_enum_rationals_examples():
    assert enum_rationals_12(0) == Fraction(3, 2)
    assert enum_rationals_12(1) == Fraction(4, 3)
    assert enum_rationals_12(3) == Fraction(5, 4)
    prefix = [enum_rationals_12(i) for i in range(5)]
    assert prefix == [Fraction(3, 2), Fraction(4, 3), Fraction(5, 3),
                      Fraction(5, 4), Fraction(7, 4)]
    with pytest.raises(ValueError, match="natural number"):
        enum_rationals_12(-1)


def test_enum_rationals_matches_brute_force_listing():
    expected = rationals_between_one_and_two(300)
    for i, (num, den) in enumerate(expected):
        q = enum_rationals_12(i)
        assert (q.numerator, q.denominator) == (num, den)


def test_enum_rationals_injective_and_in_range():
    seen = set()
    for i in range(10_001):
        q = enum_rationals_12(i)
        assert Fraction(1) < q < Fraction(2)
        assert q not in seen
        seen.add(q)


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    # Inverting by brute force over small pair codes.
    table = {}
    for x in range(4):
        for y in range(4):
            table[cantor_pair(x, y)] = (x, y)
    assert cantor_unpair(5) == table[5] == (0, 2)


def test_cantor_round_trip_exhaustive():
    for x in range(0, 1001, 7):
        for y in range(1001):
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)
    n = 0
    seen = set()
    for n in range(5000):
        pair = cantor_unpair(n)
        assert cantor_pair(*pair) == n
        assert pair not in seen
        seen.add(pair)


def test_rational_arithmetic_against_tuple_oracle():
    rng = random.Random(20260808)
    ops = {
        "+": (lambda a, b: a + b, frac_add),
        "-": (lambda a, b: a - b, frac_sub),
        "*": (lambda a, b: a * b, frac_mul),
        "/": (lambda a, b: a / b, frac_div),
    }
    for _ in range(10_000):
        num1, den1 = rng.randint(-50, 50), rng.randint(1, 50)
        num2, den2 = rng.randint(-50, 50), rng.randint(1, 50)
        name = rng.choice("+-*/")
        if name == "/" and num2 == 0:
            continue
        lhs, rhs = rat_make(num1, den1), rat_make(num2, den2)
        got = ops[name][0](lhs, rhs)
        want = ops[name][1](frac_norm(num1, den1), frac_norm(num2, den2))
        assert (got.numerator, got.denominator) == want
