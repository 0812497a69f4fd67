"""Root classification, Hensel ladders, and the multiple-root lift test.

Every ladder claim is rechecked by exhaustive enumeration of roots
modulo l^e, which stays cheap for l^e up to 10^4.  Root classes are
rechecked against plain sums over Python ints, not the residue kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.arith import max_exponent, primes_up_to
from sievelab import roots
from sievelab.poly import MonicPolynomial, SievePolynomial, algebraic_bound, eval_norm, rational_bound
from sievelab.roots import build_lift_tables, classify_roots

ENUM_LIMIT = 10**4
# u^2 >= ENUM_LIMIT, so every ladder reaches l^e = ENUM_LIMIT
LADDER_U = 100


@st.composite
def sieve_polys(draw, max_degree=5, max_m=20):
    d = draw(st.integers(min_value=2, max_value=max_degree))
    m = draw(st.integers(min_value=1, max_value=max_m))
    lower = tuple(draw(st.integers(min_value=-m, max_value=m)) for _ in range(d))
    return SievePolynomial(coefficients=lower + (1,), m=m)


def brute_roots(f, modulus):
    return {x for x in range(modulus) if value_at(f, x, modulus) == 0}


def value_at(f, x, modulus):
    """f(x) mod modulus as the plain sum of c_i x^i."""
    return sum(c * x**i for i, c in enumerate(f.coefficients)) % modulus


def slope_at(f, x, modulus):
    """f'(x) mod modulus as the plain sum of i c_i x^(i-1)."""
    return sum(i * c * x ** (i - 1) for i, c in enumerate(f.coefficients) if i) % modulus


def reference_classes(f, l):
    """(simple, multiple, liftable multiple) roots of f mod l, residue by residue."""
    found = [x for x in range(l) if value_at(f, x, l) == 0]
    simple = {x for x in found if slope_at(f, x, l) != 0}
    multiple = set(found) - simple
    return simple, multiple, {x for x in multiple if value_at(f, x, l * l) == 0}


def assert_matches_reference(f, l):
    rc = classify_roots(f, l)
    assert (rc.simple_roots, rc.multiple_roots, rc.liftable_multiple) == reference_classes(f, l)
    assert rc.slopes == {x: slope_at(f, x, l) for x in rc.simple_roots}


def test_classify_examples():
    rc = classify_roots(SievePolynomial((1, 0, 1), m=4), 5)
    assert rc.simple_roots == {2, 3} and rc.multiple_roots == frozenset()
    rc = classify_roots(SievePolynomial((0, 0, 1), m=3), 3)
    assert rc.simple_roots == frozenset() and rc.multiple_roots == {0}
    rc = classify_roots(SievePolynomial((1, 0, 1), m=4), 3)
    assert rc.simple_roots == frozenset() and rc.multiple_roots == frozenset()


@given(sieve_polys(), st.sampled_from(primes_up_to(50)))
def test_classify_matches_definition(f, l):
    rc = classify_roots(f, l)
    assert rc.simple_roots.isdisjoint(rc.multiple_roots)
    assert rc.liftable_multiple <= rc.multiple_roots
    assert len(rc.simple_roots | rc.multiple_roots) <= f.degree
    assert_matches_reference(f, l)


# past +-2^63 in either direction, and just inside it
HUGE = st.one_of(st.integers(-(2**100), 2**100), st.integers(2**63 - 2**10, 2**63 + 2**10).map(lambda c: c * (-1) ** (c % 2)))


@settings(deadline=None)
@given(st.lists(HUGE, min_size=1, max_size=6), st.sampled_from([2, 3, 5, 7, 31, 97, 3931]))
def test_classify_reduces_huge_coefficients_first(lower, l):
    f = MonicPolynomial((*lower, 1))
    assert_matches_reference(f, l)
    # the same classes as the polynomial reduced mod l^2
    reduced = classify_roots(MonicPolynomial(tuple(c % (l * l) for c in lower) + (1,)), l)
    assert reduced == classify_roots(f, l)


def test_classifications_with_other_slopes_differ():
    # (x - 1)(x - 2) and (x - 1)(x - 2)(x^2 + 1) have the roots 1 and 2 mod 3,
    # both simple, and x^2 + 1 has none; f'(1) and f'(2) swap between them
    quadratic = classify_roots(MonicPolynomial((2, -3, 1)), 3)
    quartic = classify_roots(MonicPolynomial((2, -3, 3, -3, 1)), 3)
    assert quadratic.simple_roots == quartic.simple_roots == {1, 2}
    assert (quadratic.slopes, quartic.slopes) == ({1: 2, 2: 1}, {1: 1, 2: 2})
    assert quadratic != quartic
    assert hash(quadratic) == hash(quartic)  # the slopes stay out of the hash


def test_classify_at_the_largest_prime_of_the_command_line():
    from sievelab.cli import MAX_Y

    l = primes_up_to(MAX_Y)[-1]
    assert l == 3931
    r, s = 1234, 3000
    square = MonicPolynomial(((r * r * -s), r * r + 2 * r * s, -2 * r - s, 1))  # (x - r)^2 (x - s)
    blocked = MonicPolynomial((r * r + l, -2 * r, 1))  # (x - r)^2 + l: r is multiple and does not lift
    for f in (square, blocked, MonicPolynomial((5, -(2**70), 17, 1))):
        assert_matches_reference(f, l)
    assert classify_roots(square, l).liftable_multiple == {r}
    assert classify_roots(blocked, l).multiple_roots == {r}
    assert classify_roots(blocked, l).liftable_multiple == frozenset()


def test_classify_and_tables_refuse_primes_past_the_int64_bound(monkeypatch):
    # l^3 >= 2^62 exactly from l = 1,664,511 on; the largest prime below it still scans
    assert 1664510**3 < 2**62 <= 1664511**3
    f = SievePolynomial((-4, 0, 1), m=4)
    assert classify_roots(f, 1664501).simple_roots == {2, 1664499}
    with pytest.raises(ValueError, match="int64"):
        classify_roots(f, 1664511)
    with pytest.raises(ValueError, match="int64"):
        classify_roots(f, 2**40)

    def refuse(*args):
        raise AssertionError("scanned a prime")

    monkeypatch.setattr(roots, "classify_roots", refuse)
    with pytest.raises(ValueError, match="int64"):
        build_lift_tables(f, 1, 1664543)  # the first prime past the bound


def test_hensel_examples():
    # the ladder over the root 2 of x^2 + 1 mod 5 reads 7 mod 25, 57 mod 125
    f = SievePolynomial((1, 0, 1), m=4)
    _, levels, _ = build_lift_tables(f, u=4, y=5).ladders[5].levels
    assert levels[0] == (2, 3)
    assert levels[1] == (7, 18)
    assert levels[2] == (57, 68)
    assert (57 * 57 + 1) % 125 == 0


@settings(deadline=None)
@given(sieve_polys(), st.sampled_from(primes_up_to(20)))
def test_hensel_agrees_with_exhaustive_enumeration(f, l):
    """Each simple root owns exactly one root mod l^e, the lifted one."""
    rc = classify_roots(f, l)
    _, levels, _ = build_lift_tables(f, LADDER_U, l).ladders[l].levels
    if not rc.simple_roots:
        assert levels == ()
        return
    e_top = max_exponent(l, ENUM_LIMIT)
    for e in range(2, e_top + 1):
        found = brute_roots(f, l**e)
        assert set(levels[e - 1]) == {x for x in found if x % l in rc.simple_roots}
        for root in rc.simple_roots:
            lifted = [x for x in levels[e - 1] if x % l == root]
            assert len(lifted) == 1
            assert lifted[0] % l ** (e - 1) in levels[e - 2]


def test_lift_multiple_examples():
    assert classify_roots(SievePolynomial((0, 0, 1), m=3), 2).liftable_multiple == {0}
    two = classify_roots(MonicPolynomial((2, 0, 1)), 2)  # x^2 + 2: f(0) = 2 mod 4
    assert two.multiple_roots == {0} and two.liftable_multiple == frozenset()
    f = SievePolynomial((1, 2, 1), m=2)
    assert classify_roots(f, 3).liftable_multiple == {2}
    assert value_at(f, 5, 9) == 0  # any class member decides alike


def test_lift_multiple_rejects_simple_roots():
    # x^2 + 1 = (x - 7)(x - 18) mod 25: its roots mod 5 lift, but they are simple
    rc = classify_roots(SievePolynomial((1, 0, 1), m=4), 5)
    assert rc.simple_roots == {2, 3}
    assert rc.multiple_roots == rc.liftable_multiple == frozenset()


def test_classify_slopes_examples():
    assert classify_roots(SievePolynomial((0, 0, 1), m=3), 3).multiple_roots == {0}  # f'(0) = 0
    assert classify_roots(SievePolynomial((1, 0, 1), m=4), 5).slopes == {2: 4, 3: 1}
    assert classify_roots(SievePolynomial((-1, 2, 0, 1), m=2), 2).slopes == {1: 1}  # f'(1) = 5


@given(sieve_polys(), st.sampled_from(primes_up_to(30)))
def test_lift_decision_is_constant_on_the_class(f, l):
    rc = classify_roots(f, l)
    for x in rc.multiple_roots:
        base = value_at(f, x, l * l)
        for k in range(l):
            assert value_at(f, x + k * l, l * l) == base
        assert (x in rc.liftable_multiple) == (base == 0)


def test_build_tables_worked_instance():
    f = SievePolynomial((1, 0, 1), m=4)
    tables = build_lift_tables(f, u=3, y=5)
    assert tuple(tables.ladders) == (2, 3, 5)
    rational, simple, multiple = tables.ladders[5].levels
    assert rational == ((4,),)  # 25 > 15 caps the ladder at e = 1
    assert simple == ((2, 3), (7, 18))
    assert len(simple) == max_exponent(5, 108) == 2
    assert multiple == ()
    assert tables.ladders[5].liftable_multiple == ()
    assert tables.ladders[2].levels[0] == ((0,), (0,), (4,))


def test_build_tables_pure_square():
    tables = build_lift_tables(SievePolynomial((0, 0, 1), m=3), u=2, y=2)
    ladder = tables.ladders[2]
    _, simple, multiple = ladder.levels
    assert multiple == ((0,),)
    assert ladder.liftable_multiple == (0,)
    assert simple == ()  # no simple root mod 2, so no level is stored


def test_lift_tables_of_different_polynomials_are_not_equal():
    # tables compare by identity: equal u and y say nothing about the ladders
    tables = build_lift_tables(SievePolynomial((1, 0, 1), m=3), u=3, y=5)
    assert tables != build_lift_tables(SievePolynomial((0, 0, 1), m=3), u=3, y=5)


def test_build_tables_counts_precompute_work():
    tables = build_lift_tables(SievePolynomial((1, 0, 1), m=4), u=3, y=5)
    stats = tables.stats
    # scans of 2+3+5 residues plus one derivative check per root found
    assert stats.root_scan_evaluations == 13
    assert stats.newton_lift_steps == 2
    assert stats.multiple_lift_tests == 1


@settings(deadline=None, max_examples=60)
@given(sieve_polys(max_degree=4, max_m=12), st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=20))
def test_ladder_levels_are_roots_and_chain(f, u, y):
    tables = build_lift_tables(f, u, y)
    for l, ladder in tables.ladders.items():
        rc = classify_roots(f, l)
        rational, simple, multiple = ladder.levels
        assert all(level for levels in ladder.levels for level in levels)  # no empty level is stored
        assert rational == tuple((f.m % l**e,) for e in range(1, max_exponent(l, rational_bound(f, u)) + 1))
        assert len(simple) == (max_exponent(l, algebraic_bound(f, u)) if rc.simple_roots else 0)
        modulus = 1
        for e, level in enumerate(simple, start=1):
            modulus *= l
            assert len(level) == len(rc.simple_roots)
            for x in level:
                assert value_at(f, x, modulus) == 0
                if e > 1:
                    assert x % (modulus // l) in simple[e - 2]
        assert multiple == ((tuple(sorted(rc.multiple_roots)),) if rc.multiple_roots else ())
        assert set(ladder.liftable_multiple) <= set(rc.multiple_roots)


def _root_sets_correspond(f, b, l, e):
    """Progression targets of the norm form are b times the roots of f."""
    modulus = l**e
    norm_side = {a % modulus for a in range(modulus) if eval_norm(f, a, b) % modulus == 0}
    poly_side = {b * x % modulus for x in brute_roots(f, modulus)}
    return norm_side == poly_side


@settings(deadline=None, max_examples=50)
@given(
    sieve_polys(max_degree=4, max_m=15),
    st.sampled_from(primes_up_to(20)),
    st.integers(min_value=1, max_value=60),
)
def test_norm_roots_are_scaled_poly_roots(f, l, b):
    if b % l == 0:
        b += 1
    for e in range(1, max_exponent(l, ENUM_LIMIT) + 1):
        assert _root_sets_correspond(f, b, l, e)


@given(sieve_polys(max_degree=4, max_m=15), st.sampled_from(primes_up_to(30)), st.integers(min_value=1, max_value=60))
def test_norm_root_classes_match_at_level_one(f, l, b):
    if b % l == 0:
        b += 1
    rc = classify_roots(f, l)
    for x in range(l):
        a = b * x % l
        hit = eval_norm(f, a, b) % l == 0
        assert hit == (x in rc.simple_roots or x in rc.multiple_roots)
