import random
from fractions import Fraction
from itertools import count

import pytest

from blockdensity.posets import FinitePoset, UniversalPoset
from blockdensity.profiles import (
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
    two_adic_valuation,
)

from _oracles import (
    combined_formulas, constant_formulas, constant_value, gap_check, in_Z,
    oscillating_formulas, poset_formulas, poset_value, random_poset_matrix,
)

ALPHA = Fraction(5, 4)
BETA = Fraction(7, 4)


def chain_order(n):
    return FinitePoset.from_matrix([[a <= b for b in range(n)] for a in range(n)])


def test_in_Z_examples():
    assert in_Z(0, 5)
    assert in_Z(1, 6)
    assert not in_Z(1, 12)
    assert not in_Z(0, 0)


def test_valuation_classes_are_pairwise_disjoint():
    for k in range(1, 10_001):
        hits = [n for n in range(15) if in_Z(n, k)]
        assert len(hits) == 1
        assert hits[0] == two_adic_valuation(k)
    with pytest.raises(ValueError, match="positive argument"):
        two_adic_valuation(0)


def _assert_family_matches(family, cert, formulas):
    """family and cert agree with closed forms at every i, j < 16, k < 256
    and t < 16; first_past(i, j, F) is the least t with s(i, j, t) > F, and
    a pair that is not scheduled (such as a mixed pair of the combined
    family) has no gap, selector or first block. A negative index is refused."""
    value, in_d, delta, s = formulas
    for i, j in ((-1, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="natural indices"):
            cert.in_D(i, j)
    for i in range(16):
        assert [family.profile(i)(k) for k in range(256)] == [value(i, k) for k in range(256)]
        for j in range(16):
            assert cert.in_D(i, j) == in_d(i, j), (i, j)
            if not in_d(i, j):
                for refused in (lambda: cert.s(i, j, 0), lambda: cert.k0(i, j),
                                lambda: cert.first_past(i, j, -1)):
                    with pytest.raises(ValueError, match="no gap certificate"):
                        refused()
                continue
            assert cert.rule(i, j)[0] == delta(i, j), (i, j)
            assert [cert.s(i, j, t) for t in range(16)] == [
                s(i, j, t) for t in range(16)], (i, j)
            for frontier in (-1, 0, 1, 6, 63, 200):
                least = next(t for t in count() if s(i, j, t) > frontier)
                assert cert.first_past(i, j, frontier) == least, (i, j, frontier)


def test_constant_family_matches_closed_form():
    _assert_family_matches(*constant_family(), constant_formulas(16))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poset_family_matches_closed_form(seed):
    rel = random_poset_matrix(5, random.Random(seed))
    order = FinitePoset.from_matrix(rel)
    _assert_family_matches(*poset_family(order, ALPHA, BETA), poset_formulas(rel, ALPHA, BETA))


@pytest.mark.parametrize("alpha, beta", [(ALPHA, BETA), (Fraction(11, 10), Fraction(3, 2))])
def test_oscillating_family_matches_closed_form(alpha, beta):
    _assert_family_matches(*oscillating_family(alpha, beta), oscillating_formulas(alpha, beta))


@pytest.mark.parametrize("alpha, beta", [(ALPHA, BETA), (Fraction(11, 10), Fraction(3, 2))])
def test_combined_family_matches_closed_form(alpha, beta):
    _assert_family_matches(*combined_family(alpha, beta), combined_formulas(alpha, beta, 8))


def test_constant_family_examples():
    family, cert = constant_family()
    assert family.profile(0)(17) == Fraction(3, 2)
    assert cert.in_D(0, 1)
    assert cert.rule(0, 3)[0] == Fraction(1, 4)
    assert cert.s(0, 1, 7) == 7


def test_constant_family_is_constant_in_k():
    family, _ = constant_family()
    for i in range(8):
        base = family.profile(i)(0)
        assert all(family.profile(i)(k) == base for k in range(65))


def test_oscillating_family_examples():
    family, cert = oscillating_family(ALPHA, BETA)
    assert family.profile(1)(6) == BETA
    assert family.profile(1)(5) == ALPHA
    assert cert.s(0, 1, 2) == 5
    assert cert.rule(2, 5)[0] == BETA - ALPHA


def test_oscillating_family_rejects_bad_band():
    for alpha, beta in [(Fraction(7, 4), Fraction(5, 4)), (Fraction(1), Fraction(3, 2)),
                        (Fraction(3, 2), Fraction(2))]:
        with pytest.raises(ValueError):
            oscillating_family(alpha, beta)


def test_combined_family_examples():
    family, cert = combined_family(ALPHA, BETA)
    assert family.profile(0)(9) == Fraction(3, 2)
    assert family.profile(3)(6) == BETA
    assert not cert.in_D(0, 3)
    assert not cert.in_D(3, 0)
    assert cert.in_D(0, 2)
    assert cert.in_D(1, 3) and cert.in_D(3, 1)
    assert cert.s(1, 3, 0) == 1 and cert.s(3, 1, 0) == 2


def test_poset_family_examples():
    family, cert = poset_family(chain_order(2), ALPHA, BETA)
    assert family.profile(1)(2) == BETA
    assert family.profile(0)(2) == ALPHA
    assert cert.in_D(1, 0)
    assert not cert.in_D(0, 1)


def test_poset_family_rejects_non_poset():
    class Bogus:
        pass

    with pytest.raises(ValueError):
        poset_family(Bogus(), ALPHA, BETA)
    with pytest.raises(ValueError):
        FinitePoset.from_matrix([[1, 1], [1, 1]])


def test_poset_family_monotone_under_the_order():
    rng = random.Random(7)
    from _oracles import random_poset_matrix

    for _ in range(5):
        matrix = random_poset_matrix(5, rng)
        order = FinitePoset.from_matrix(matrix)
        family, _ = poset_family(order, ALPHA, BETA)
        for i in range(5):
            for j in range(5):
                if order.leq(i, j):
                    for k in range(1001):
                        assert family.profile(i)(k) <= family.profile(j)(k)


def test_all_families_stay_in_band():
    fams = [
        constant_family()[0],
        oscillating_family(ALPHA, BETA)[0],
        combined_family(ALPHA, BETA)[0],
        poset_family(chain_order(3), ALPHA, BETA)[0],
    ]
    for family in fams:
        for i in range(65):
            for k in range(65):
                assert Fraction(1) < family.profile(i)(k) < Fraction(2)


def test_gap_check_examples():
    family, cert = constant_family()
    assert gap_check(family, cert, 0, 1, 50)
    osc_family, osc_cert = oscillating_family(ALPHA, BETA)
    assert gap_check(osc_family, osc_cert, 0, 1, 50)
    pos_family, pos_cert = poset_family(chain_order(2), ALPHA, BETA)
    with pytest.raises(ValueError):
        gap_check(pos_family, pos_cert, 0, 1, 10)


def test_gap_check_random_pairs_all_families():
    rng = random.Random(20260808)
    family, cert = constant_family()
    for _ in range(50):
        i, j = rng.randint(0, 40), rng.randint(0, 40)
        if cert.in_D(i, j):
            assert gap_check(family, cert, i, j, 200)
    osc = oscillating_family(ALPHA, BETA)
    comb = combined_family(ALPHA, BETA)
    pos = poset_family(chain_order(4), ALPHA, BETA)
    for family, cert in (osc, comb, pos):
        checked = 0
        while checked < 50:
            i, j = rng.randint(0, 12), rng.randint(0, 12)
            if cert.in_D(i, j):
                assert gap_check(family, cert, i, j, 200)
                checked += 1


def test_certificate_decides_each_pair_once_and_still_refuses_the_rest():
    calls = []
    _, cert = poset_family(chain_order(3), ALPHA, BETA)
    inner = cert.rule

    def counted(i, j):
        calls.append((i, j))
        return inner(i, j)

    cert.rule = counted
    # Over a chain (2, 0) is scheduled and (0, 2) is not.
    for _ in range(3):
        assert [cert.s(2, 0, t) for t in range(4)] == [4, 12, 20, 28]
        assert cert.k0(2, 0) == 10
        assert cert.in_D(2, 0)
    assert calls == [(2, 0)]
    for _ in range(2):
        with pytest.raises(ValueError):
            cert.s(0, 2, 0)
        with pytest.raises(ValueError):
            cert.k0(0, 2)
        assert not cert.in_D(0, 2)
    assert calls == [(2, 0)] + [(0, 2)] * 6


class CountingOrder:
    """An order whose leq calls are counted per (a, b)."""

    def __init__(self, order):
        self.order = order
        self.calls = {}

    def leq(self, a, b):
        self.calls[a, b] = self.calls.get((a, b), 0) + 1
        return self.order.leq(a, b)


def _profile_cases():
    """(family, closed form u(i, k)) for every family kind, by name."""
    chain = chain_order(3)
    cases = {
        "constant": (constant_family()[0], constant_value),
        "oscillating": (oscillating_family(ALPHA, BETA)[0], oscillating_formulas(ALPHA, BETA)[0]),
        "combined": (combined_family(Fraction(6, 5), Fraction(9, 7))[0],
                     combined_formulas(Fraction(6, 5), Fraction(9, 7), 8)[0]),
        "poset": (poset_family(chain, ALPHA, BETA)[0], poset_value(chain.leq, ALPHA, BETA)),
        "universal": (poset_family(UniversalPoset(), ALPHA, BETA)[0],
                      poset_value(UniversalPoset().leq, ALPHA, BETA)),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("family, formula", _profile_cases())
def test_profile_closure_and_value_match_the_closed_form(family, formula):
    for i in range(16):
        u = family.profile(i)
        assert family.profile(i) is u
        for k in range(300):
            want = formula(i, k)
            assert u(k) == want, (i, k)


@pytest.mark.parametrize("order", [chain_order(4), UniversalPoset()], ids=["chain", "universal"])
def test_poset_profile_asks_the_order_once_per_valuation_class(order):
    counting = CountingOrder(order)
    family, _ = poset_family(counting, ALPHA, BETA)
    want = poset_value(order.leq, ALPHA, BETA)
    for _ in range(2):
        for i in range(12):
            for k in range(1, 2049):
                assert family.profile(i)(k) == want(i, k)
    # Blocks 1 .. 2048 meet the valuation classes 0 .. 11 of each index.
    assert sorted(counting.calls) == [(v, i) for v in range(12) for i in range(12)]
    assert set(counting.calls.values()) == {1}


def test_profile_refuses_negative_arguments():
    family, _ = constant_family()
    with pytest.raises(ValueError):
        family.profile(-1)
