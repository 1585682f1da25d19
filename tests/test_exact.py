"""Cyclotomic arithmetic: worked examples, float-oracle checks, ring axioms."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from a6k3 import exact
from a6k3.exact import (
    CycloNum,
    _charpoly,
    _reduce,
    cyclotomic_polynomial,
    dot,
    euler_phi,
    galois_apply,
)


def evaluate(a: CycloNum) -> complex:
    # independent numeric oracle: plug in zeta_n = exp(2*pi*i/n)
    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(complex(c) * z**i for i, c in enumerate(a.coeffs))


def random_cyclo(rng: random.Random, order: int) -> CycloNum:
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(order))
    ]
    return CycloNum(order, coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert len(cyclotomic_polynomial(60)) - 1 == euler_phi(60) == 16


def test_add_examples():
    z4 = CycloNum.zeta(4)
    assert z4 + -z4 == 0

    total = CycloNum.one(5)
    for k in range(1, 5):
        total = total + CycloNum.zeta(5, k)
    assert total == 0  # the order-5 cyclotomic relation

    x = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
    y = CycloNum.zeta(5, 2) + CycloNum.zeta(5, 3)
    # oracle first: numerically x + y = -1 to 1e-12
    assert abs(evaluate(x) + evaluate(y) + 1) < 1e-12
    assert x + y == -1


def test_mul_examples():
    z4 = CycloNum.zeta(4)
    assert z4 * z4 == -1
    assert CycloNum.zeta(5, 1) * CycloNum.zeta(5, 4) == 1

    x = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
    # oracle: x is the golden-ratio conjugate, root of t^2 + t - 1
    assert abs(evaluate(x) ** 2 + evaluate(x) - 1) < 1e-12
    assert (x * x + x - 1) == 0


def test_is_rational():
    assert CycloNum.from_rational(3, 4).is_rational() == 3
    assert (CycloNum.from_rational(3, 4) + 9 * CycloNum.zeta(4)).is_rational() is None
    total = sum((CycloNum.zeta(5, k) for k in range(1, 5)), CycloNum.zero(5))
    assert total.is_rational() == -1


def test_galois_examples():
    z4 = CycloNum.zeta(4)
    assert galois_apply(z4, 3) == -z4  # complex conjugation
    x = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
    assert galois_apply(x, 2) == CycloNum.zeta(5, 2) + CycloNum.zeta(5, 3)
    assert galois_apply(CycloNum.from_rational(7), 1) == 7
    seven = CycloNum.from_rational(7, 12)
    for k in (1, 5, 7, 11):
        assert galois_apply(seven, k) == 7


def test_galois_rejects_non_coprime():
    with pytest.raises(ValueError):
        galois_apply(CycloNum.zeta(4), 2)
    with pytest.raises(ValueError):
        galois_apply(CycloNum.zeta(60), 15)


def test_embedding_round_trip():
    rng = random.Random(2024)
    for order, bigger in ((4, 12), (5, 60), (12, 60), (4, 60), (8, 120), (15, 120), (24, 120)):
        for _ in range(10):
            a = random_cyclo(rng, order)
            up = a.embed(bigger)
            assert up.order == bigger and up == a
            assert abs(evaluate(up) - evaluate(a)) < 1e-9
    with pytest.raises(ValueError):
        CycloNum.zeta(5).embed(12)


def test_cross_order_equality():
    half = Fraction(1, 2)
    x = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
    sqrt5 = 2 * x + 1
    gold = half * (1 + sqrt5)
    assert gold == gold.embed(60)
    assert gold.embed(60) == gold.embed(20)


def test_ring_axioms_randomized():
    rng = random.Random(60601)
    for order in (4, 5, 12, 60):
        for _ in range(25):
            a = random_cyclo(rng, order)
            b = random_cyclo(rng, order)
            c = random_cyclo(rng, order)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_galois_is_a_ring_homomorphism():
    rng = random.Random(60602)
    units = {4: (1, 3), 5: (1, 2, 3, 4), 12: (1, 5, 7, 11), 60: (7, 11, 13, 49)}
    for order in (4, 5, 12, 60):
        for _ in range(25):
            a = random_cyclo(rng, order)
            b = random_cyclo(rng, order)
            k = rng.choice(units[order])
            assert galois_apply(a + b, k) == galois_apply(a, k) + galois_apply(b, k)
            assert galois_apply(a * b, k) == galois_apply(a, k) * galois_apply(b, k)


def test_float_oracle_consistency():
    rng = random.Random(60603)
    for order in (4, 5, 12, 60):
        units = [k for k in range(1, order) if gcd(k, order) == 1]
        for _ in range(10):
            a = random_cyclo(rng, order)
            b = random_cyclo(rng, order)
            assert abs(evaluate(a * b) - evaluate(a) * evaluate(b)) < 1e-9
            assert abs(evaluate(a + b) - (evaluate(a) + evaluate(b))) < 1e-9
            k = rng.choice(units)
            zk = cmath.exp(2j * cmath.pi * k / order)
            at_zk = sum(complex(c) * zk**i for i, c in enumerate(a.coeffs))
            assert abs(evaluate(galois_apply(a, k)) - at_zk) < 1e-9


def test_mixed_order_arithmetic_matches_oracle():
    rng = random.Random(60604)
    for _ in range(10):
        a = random_cyclo(rng, 4)
        b = random_cyclo(rng, 5)
        s = a + b
        p = a * b
        assert s.order == 20 and p.order == 20
        assert abs(evaluate(s) - (evaluate(a) + evaluate(b))) < 1e-9
        assert abs(evaluate(p) - evaluate(a) * evaluate(b)) < 1e-9


def test_rendering_and_json():
    z5 = CycloNum.zeta(5)
    v = Fraction(1, 2) - Fraction(1, 2) * z5 + CycloNum.zeta(5, 3)
    assert v.render_text() == "1/2 - 1/2*z5 + z5^3"
    assert CycloNum.zero(5).render_text() == "0"


def test_coefficient_invariants():
    # stored reduced with positive denominator, length phi(order)
    v = CycloNum(12, [Fraction(2, 4), Fraction(-6, 3), 0, 1])
    assert v.coeffs[0] == Fraction(1, 2) and v.coeffs[0].denominator == 2
    assert v.coeffs[1] == -2 and v.coeffs[1].denominator == 1
    with pytest.raises(ValueError):
        CycloNum(12, [1, 2, 3])


def test_coefficient_rule():
    # ints and Fractions pass through; anything else goes through Fraction()
    v = CycloNum(4, [0.5, "1/3"])
    assert v.coeffs == (Fraction(1, 2), Fraction(1, 3))
    assert all(type(c) is Fraction for c in v.coeffs)
    assert [type(c) for c in CycloNum(4, [3, Fraction(1, 2)]).coeffs] == [int, Fraction]
    # integral values stay int through reduction, products, embedding and Galois
    z = CycloNum.zeta(60, 7)
    for w in (z, z * z + 3 * z, z.embed(120), galois_apply(z, 11), z - CycloNum.zeta(5)):
        assert all(type(c) is int for c in w.coeffs)
    half = Fraction(1, 2) * CycloNum.zeta(5)
    assert any(type(c) is Fraction for c in half.coeffs)


def random_sparse(rng: random.Random, order: int) -> CycloNum:
    # like a table value: mostly zero coefficients, ints or Fractions
    coeffs = [0] * euler_phi(order)
    for _ in range(rng.randint(0, 3)):
        value = rng.randint(-5, 5)
        coeffs[rng.randrange(len(coeffs))] = Fraction(value, rng.randint(1, 3)) if rng.random() < 0.3 else value
    return CycloNum(order, coeffs)


def test_dot_matches_the_termwise_sum():
    rng = random.Random(60605)
    for _ in range(200):
        field = rng.choice((12, 20, 60, 120))
        orders = [d for d in range(1, field + 1) if field % d == 0]
        n = rng.randint(0, 6)
        weights = [rng.choice((0, rng.randint(-50, 50), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))) for _ in range(n)]
        xs = [random_sparse(rng, rng.choice(orders)) for _ in range(n)]
        ys = [random_sparse(rng, rng.choice(orders)) for _ in range(n)]
        got = dot(field, weights, [x.terms(field) for x in xs], [y.terms(field) for y in ys])
        termwise = CycloNum.zero(field)
        for w, x, y in zip(weights, xs, ys):
            termwise = termwise + w * (x * y)
        assert got.order == field and got == termwise
        assert abs(evaluate(got) - sum(float(w) * evaluate(x) * evaluate(y) for w, x, y in zip(weights, xs, ys))) < 1e-6
        if all(type(c) is int for v in xs + ys for c in v.coeffs) and all(type(w) is int for w in weights):
            assert all(type(c) is int for c in got.coeffs)
    with pytest.raises(ValueError):
        dot(12, [1], [CycloNum.zeta(5).terms(12)], [CycloNum.one().terms(12)])  # 5 does not divide 12
    with pytest.raises(ValueError):
        dot(12, [1, 1], [CycloNum.one().terms(12)], [CycloNum.one().terms(12)])  # lengths differ


def full_width_reduce(order, dense):
    # the reduction over every lower coefficient of Phi_order, zeros included
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    cs = list(dense)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j in range(deg):
                cs[i - deg + j] -= c * phi[j]
    cs = cs[:deg]
    cs.extend([0] * (deg - len(cs)))
    return tuple(cs)


def test_reduce_matches_the_full_width_loop():
    rng = random.Random(60606)
    orders = [d for d in range(1, 121) if 120 % d == 0] + [7, 9, 16, 18, 21, 35, 36, 105]
    for order in orders:
        for _ in range(10):
            dense = [0] * rng.randint(1, 2 * order)
            for _ in range(rng.randint(0, 6)):
                value = rng.randint(-20, 20)
                dense[rng.randrange(len(dense))] = Fraction(value, rng.randint(1, 4)) if rng.random() < 0.3 else value
            got = _reduce(order, dense)
            assert got == full_width_reduce(order, dense)
            if all(type(d) is int for d in dense):
                assert all(type(c) is int for c in got)


def test_reduce_matches_the_full_width_loop_past_two_periods():
    # exponents of zeta_n beyond n reduce by their residue mod n
    rng = random.Random(60608)
    orders = [d for d in range(1, 121) if 120 % d == 0] + [7, 9, 16, 18, 21, 35, 36, 105]
    for order in orders:
        for _ in range(10):
            dense = [0] * rng.randint(2 * order, 3 * order)
            for _ in range(rng.randint(1, 8)):
                value = rng.randint(-20, 20)
                dense[rng.randrange(len(dense))] = Fraction(value, rng.randint(1, 4)) if rng.random() < 0.3 else value
            dense[-1] = rng.randint(1, 9)
            got = _reduce(order, dense)
            assert got == full_width_reduce(order, dense)
            if all(type(d) is int for d in dense):
                assert all(type(c) is int for c in got)


def test_power_rows_are_the_reduced_powers():
    # row s holds the nonzero terms of zeta_n^s, and no more than Phi_n has
    for order in (1, 2, 4, 5, 12, 60, 120):
        rows = exact._power_rows(order)
        deg = euler_phi(order)
        assert len(rows) == order
        for s, row in enumerate(rows):
            dense = [0] * deg
            for j, c in row:
                assert c != 0 and type(c) is int
                dense[j] = c
            assert tuple(dense) == full_width_reduce(order, [0] * s + [1])
    assert max(map(len, exact._power_rows(120))) == 6


def test_constructor_coercion_randomized():
    # ints, bools and Fractions pass unchanged; floats and strings go
    # through Fraction()
    rng = random.Random(60607)
    makers = (
        lambda: rng.randint(-9, 9),
        lambda: rng.choice((True, False)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        lambda: rng.randint(-40, 40) / 8,
        lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}",
    )
    for _ in range(200):
        order = rng.choice((1, 4, 5, 12))
        given = [rng.choice(makers)() for _ in range(euler_phi(order))]
        got = CycloNum(order, iter(given)).coeffs
        for g, c in zip(given, got, strict=True):
            if isinstance(g, (int, Fraction)):
                assert c is g
            else:
                assert type(c) is Fraction and c == Fraction(g)


@pytest.mark.parametrize("p", [7, 11, 13, 241])
def test_charpoly_over_z_reduces_to_the_charpoly_over_f_p(p):
    # Berkowitz's algorithm only adds and multiplies, so reducing det(x I - S)
    # over Z mod p gives the polynomial of S mod p, also for len(S) >= p
    rng = random.Random(8101 + p)
    for n in range(1, 17):
        for _ in range(3):
            S = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            over_z = _charpoly(S, 0)
            assert len(over_z) == n + 1 and over_z[0] == 1
            assert [c % p for c in over_z] == _charpoly([[v % p for v in row] for row in S], p)
