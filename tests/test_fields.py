import random

import pytest

from isodet.errors import CharTwoUnsupported, CompositeModulus, MalformedInput, ResidueIsSquare
from isodet.fields import (
    PrimeField,
    QuadraticExtensionField,
    RationalField,
    field_create,
    field_from_json,
    smallest_nonresidue,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def all_fields():
    return [
        field_create("prime", 5),
        field_create("prime", 7),
        field_create("quadratic-extension", 7),
        field_create("rationals"),
    ]


def test_field_create_examples():
    F5 = field_create("prime", 5)
    assert isinstance(F5, PrimeField) and F5.p == 5

    F49 = field_create("quadratic-extension", 7)
    assert isinstance(F49, QuadraticExtensionField)
    # oracle: exhaustive scan of squares mod 7
    squares = {pow(i, 2, 7) for i in range(7)}
    assert F49.d == min(d for d in range(2, 7) if d not in squares) == 3

    with pytest.raises(CompositeModulus):
        field_create("prime", 4)
    with pytest.raises(CharTwoUnsupported):
        field_create("prime", 2)
    with pytest.raises(ResidueIsSquare):
        field_create("quadratic-extension", 7, nonresidue=2)
    with pytest.raises(CompositeModulus):
        field_create("quadratic-extension", 15)


def test_descriptor_roundtrip():
    for F in all_fields():
        assert field_from_json(F.descriptor()) == F


@pytest.mark.parametrize("descriptor", [
    {"kind": "prime", "p": 5, "ext": 2},
    {"p": 5},
    {"kind": "rationals", "p": 5},
    {"kind": "prime", "p": 5, "nonresidue": 2},
    {"kind": "prime"},
    {"kind": "prime", "p": "5"},
    {"kind": "quadratic-extension", "p": 5, "nonresidue": 2.0},
    {"kind": "octonions", "p": 5},
    "p=5",
])
def test_descriptor_keys_are_field_create_parameters(descriptor):
    # a key field_create does not take, or one its kind does not use, is
    # refused, not ignored
    with pytest.raises(MalformedInput):
        field_from_json(descriptor)


def test_sqrt_examples():
    F5 = field_create("prime", 5)
    # oracle: 2*2 = 4 = -1 mod 5, and 2 < 3 of the two roots
    assert F5.sqrt(F5.neg(F5.one)) == 2
    assert F5.sqrt(0) == 0

    F7 = field_create("prime", 7)
    squares = {pow(i, 2, 7) for i in range(7)}
    assert 6 not in squares
    assert F7.sqrt(F7.neg(F7.one)) is None


def test_sqrt_consistency_and_residue_count():
    for p in SMALL_PRIMES:
        F = field_create("prime", p)
        with_root = 0
        for x in F.elements():
            r = F.sqrt(x)
            if r is not None:
                assert F.mul(r, r) == x
                if x != 0:
                    with_root += 1
            else:
                # oracle: exhaustive scan confirms absence
                assert all(F.mul(y, y) != x for y in F.elements())
        assert with_root == (p - 1) // 2


def test_sqrt_extension_field():
    F49 = field_create("quadratic-extension", 7)
    hits = 0
    for x in F49.elements():
        r = F49.sqrt(x)
        if r is not None:
            assert F49.mul(r, r) == x
            hits += 1
    # 0 plus half the nonzero elements
    assert hits == 1 + (49 - 1) // 2
    # -1 becomes a square after extending F_7
    assert F49.sqrt(F49.neg(F49.one)) is not None


def test_sqrt_matches_exhaustive_scan():
    # oracle: the first root in canonical element order, found by the scan
    # that Tonelli-Shanks plus min(r, -r) replaced; None when there is none
    def scan(F, x):
        return next((r for r in F.elements() if F.mul(r, r) == x), None)

    fields = [field_create("prime", p) for p in range(3, 200) if all(p % d for d in range(2, p))]
    fields += [field_create("quadratic-extension", p) for p in (3, 5, 7, 11, 13)]
    for F in fields:
        for x in F.elements():
            assert F.sqrt(x) == scan(F, x)


def test_sqrt_ladder_large_fields():
    F = field_create("prime", 1_000_003)
    rng = random.Random(1)
    for _ in range(20):
        a = F.random(rng)
        sq = F.mul(a, a)
        r = F.sqrt(sq)
        assert r is not None and F.mul(r, r) == sq
        assert r == min(a, F.neg(a))
    FE = field_create("quadratic-extension", 1009)
    rng = random.Random(2)
    for _ in range(5):
        a = FE.random(rng)
        sq = FE.mul(a, a)
        r = FE.sqrt(sq)
        assert r is not None and FE.mul(r, r) == sq


def test_rational_sqrt():
    Q = field_create("rationals")
    assert Q.sqrt(Q.parse("4/9")) == Q.parse("2/3")
    assert Q.sqrt(Q.parse("2")) is None
    assert Q.sqrt(Q.parse("-4")) is None
    assert Q.sqrt(Q.zero) == Q.zero


def test_field_axioms_random():
    for F in all_fields():
        rng = random.Random(42)
        for _ in range(1000):
            a, b, c = F.random(rng), F.random(rng), F.random(rng)
            assert F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c))
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one
            assert F.add(a, F.neg(a)) == F.zero
            assert F.sub(a, b) == F.add(a, F.neg(b))


def test_pow_matches_repeated_multiplication():
    for F in all_fields():
        rng = random.Random(3)
        for _ in range(50):
            a = F.random(rng)
            n = rng.randrange(0, 9)
            acc = F.one
            for _ in range(n):
                acc = F.mul(acc, a)
            assert F.pow(a, n) == acc


def test_parse_render_roundtrip_prime_exhaustive():
    for p in SMALL_PRIMES:
        F = field_create("prime", p)
        for x in F.elements():
            assert F.parse(F.render(x)) == x


def test_parse_render_roundtrip_extension_exhaustive():
    for p in (3, 5, 7, 11):
        F = field_create("quadratic-extension", p)
        for x in F.elements():
            assert F.parse(F.render(x)) == x


def test_parse_render_roundtrip_rationals():
    Q = field_create("rationals")
    rng = random.Random(5)
    for _ in range(1000):
        x = Q.random(rng)
        assert Q.parse(Q.render(x)) == x
    assert Q.render(Q.parse("4/3")) == "4/3"
    assert Q.render(Q.parse("7")) == "7"


def test_extension_rendering_forms():
    F = field_create("quadratic-extension", 7)
    assert F.render((3, 2)) == "3+2*w"
    assert F.render((0, 2)) == "2*w"
    assert F.render((3, 0)) == "3"
    assert F.parse("3+2*w") == (3, 2)
    assert F.parse("2*w") == (0, 2)
    assert F.mul(F.w, F.w) == F.from_int(F.d)


def test_smallest_nonresidue_is_nonresidue():
    for p in SMALL_PRIMES:
        d = smallest_nonresidue(p)
        assert pow(d, (p - 1) // 2, p) == p - 1
        for smaller in range(2, d):
            assert pow(smaller, (p - 1) // 2, p) == 1


def test_rationals_exactness():
    Q = RationalField()
    third = Q.parse("1/3")
    acc = Q.zero
    for _ in range(3):
        acc = Q.add(acc, third)
    assert acc == Q.one


@pytest.mark.parametrize(
    "field",
    # 2^61 - 1 is a Mersenne prime, built directly: field_create's trial
    # division would take minutes.  Its draws read two 32-bit words each
    [field_create("prime", 3), field_create("prime", 7), field_create("prime", 32003), PrimeField(2**61 - 1),
     field_create("quadratic-extension", 3), field_create("rationals")],
    ids=["F3", "F7", "F32003", "F2^61-1", "F9", "Q"],
)
def test_row_methods_match_their_scalar_definitions(field):
    # oracle: each row method written out from add and mul, entry by entry,
    # and random_row from random, which is rng.randrange(p) over F_p
    rng = random.Random(9)
    for n in (0, 1, 4, 7):
        for _ in range(20):
            u, v = [field.random(rng) for _ in range(n)], [field.random(rng) for _ in range(n)]
            a = field.random(rng)
            total = field.zero
            for x, y in zip(u, v):
                total = field.add(total, field.mul(x, y))
            assert field.dot(u, v) == total
            assert field.axpy(a, u, v) == [field.add(y, field.mul(a, x)) for x, y in zip(u, v)]
            assert field.scale_row(a, u) == [field.mul(a, x) for x in u]
            # lincomb: a zero coefficient, an all-zero combination, no rows
            rows, coeffs = [u, v, field.random_row(rng, n)], [a, field.zero, field.random(rng)]
            combo = [field.zero] * n
            for c, row in zip(coeffs, rows):
                combo = [field.add(y, field.mul(c, x)) for x, y in zip(row, combo)]
            assert field.lincomb(coeffs, rows, n) == combo
            assert field.lincomb([field.zero] * 3, rows, n) == [field.zero] * n
            assert field.lincomb([], [], n) == [field.zero] * n
            # matmul: row i of A B is sum_k a_ik (row k of B), entry by entry
            arows = [coeffs, [field.zero] * 3, [field.random(rng) for _ in range(3)]]
            product = [[field.zero] * n for _ in arows]
            for out, arow in zip(product, arows):
                for c, row in zip(arow, rows):
                    out[:] = [field.add(y, field.mul(c, x)) for x, y in zip(row, out)]
            assert field.matmul(arows, rows, n) == product
            assert field.matmul([], rows, n) == []
            assert field.matmul([[], []], [], n) == [[field.zero] * n] * 2
    # the long row meets redraws: at p = 32003 one draw in 43 is redrawn
    for n in (0, 1, 4, 7, 600):
        seeded, scalar = random.Random(n), random.Random(n)
        assert field.random_row(seeded, n) == [field.random(scalar) for _ in range(n)]
        assert seeded.getstate() == scalar.getstate()
