import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minorsum import (
    ZZ,
    QQ,
    ExponentLimitError,
    InexactDivisionError,
    Poly,
    PolynomialRing,
    RingMismatchError,
    ScalarParseError,
)
from minorsum.ring import EXPONENT_LIMIT, _pack, format_poly

R3 = PolynomialRing(("x", "y", "z"))
X, Y, Z = R3.gens()


def rand_poly(rng, ring, max_terms=3, max_exp=3, bound=9):
    nvars = len(ring.vars)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = c
    return Poly(ring.vars, terms)


@st.composite
def polys(draw, max_terms=4, max_exp=3, bound=8):
    terms = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, max_exp)] * 3)),
            st.integers(-bound, bound).filter(bool),
            max_size=max_terms,
        )
    )
    return Poly(R3.vars, terms)


# -- integers ------------------------------------------------------------


def test_integer_parse_and_format():
    assert ZZ.parse("12") == 12
    assert ZZ.parse(" -3 ") == -3
    assert ZZ.format(-7) == "-7"
    for bad in ("1.5", "x", "3/4", "", "1 2"):
        with pytest.raises(ScalarParseError):
            ZZ.parse(bad)


def test_integer_coerce_rejects_non_ints():
    with pytest.raises(RingMismatchError):
        ZZ.coerce(True)
    with pytest.raises(RingMismatchError):
        ZZ.coerce(1.0)
    assert ZZ.coerce(5) == 5


def test_integer_exact_divide():
    assert ZZ.exact_divide(6, 3) == 2
    assert ZZ.exact_divide(-6, 3) == -2
    with pytest.raises(InexactDivisionError):
        ZZ.exact_divide(7, 3)
    with pytest.raises(InexactDivisionError):
        ZZ.exact_divide(1, 0)


def test_integer_axioms_1000_triples():
    rng = random.Random(101)
    for _ in range(1000):
        x, y, z = (rng.randint(-999, 999) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ZZ.zero
        assert x * ZZ.one == x
        if x:
            assert ZZ.exact_divide(y * x, x) == y


# -- rationals -----------------------------------------------------------


def test_rational_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert QQ.format(Fraction(8, 4)) == "2"
    with pytest.raises(ScalarParseError):
        QQ.parse("1/0")
    with pytest.raises(ScalarParseError):
        QQ.parse("0.5")


def test_rational_exact_divide_is_total_off_zero():
    assert QQ.exact_divide(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)
    with pytest.raises(InexactDivisionError):
        QQ.exact_divide(Fraction(1), Fraction(0))


def test_rational_axioms_1000_triples():
    rng = random.Random(202)
    def r():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 30))
    for _ in range(1000):
        x, y, z = r(), r(), r()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert QQ.exact_divide(y, x) * x == y


# -- polynomials ---------------------------------------------------------


def test_poly_ring_rejects_bad_variables():
    with pytest.raises(ValueError):
        PolynomialRing(("x", "x"))
    with pytest.raises(ValueError):
        PolynomialRing(("2bad",))


def test_poly_canonical_drops_zero_terms():
    p = Poly(R3.vars, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert p.terms == {(0, 1, 0): 2}
    assert not Poly(R3.vars, {})
    assert not Poly.constant(R3.vars, 0)


def test_poly_format_conventions():
    assert format_poly(R3.zero) == "0"
    assert R3.format(X**2 * Y - 5) == "x^2*y - 5"
    assert R3.format(-X) == "-x"
    assert R3.format(X + 1) == "x + 1"
    assert R3.format(3 * X * Y**2 - 2 * Z) == "3*x*y^2 - 2*z"
    # graded-lex display order, highest total degree first
    assert R3.format(X + Y**3) == "y^3 + x"


def test_poly_parse_syntax():
    assert R3.parse("x^2*y - 5") == X**2 * Y - 5
    assert R3.parse("x**2") == X**2
    assert R3.parse("-(x - 1)*(x + 1)") == 1 - X**2
    assert R3.parse("2") == R3.coerce(2)
    # a unary minus inside a product negates the power, as at the start
    assert R3.parse("x*-y^2") == -X * Y**2
    assert R3.parse("x - -y^2") == X + Y**2
    assert R3.parse("-y^2") == -Y**2
    assert R3.parse("(-y)^2") == Y**2
    # surrounding whitespace is stripped, as ZZ and QQ strip it
    assert R3.parse("x ") == R3.parse(" x\n") == X
    # too deep a nesting is a parse error, not a RecursionError
    for bad in ("w + 1", "x +", "x ^ y", "1.5", "x$", "", " ",
                "(" * 400 + "x" + ")" * 400, "-" * 5000 + "x"):
        with pytest.raises(ScalarParseError):
            R3.parse(bad)


def test_poly_coerce_and_mismatch():
    other = PolynomialRing(("a", "b"))
    with pytest.raises(RingMismatchError):
        R3.coerce(other.gen("a"))
    with pytest.raises(RingMismatchError):
        R3.coerce(True)
    with pytest.raises(RingMismatchError):
        X + other.gen("a")
    assert R3.coerce(4) == Poly.constant(R3.vars, 4)


def test_poly_axioms_1000_triples():
    rng = random.Random(303)
    for _ in range(1000):
        p, q, r = (rand_poly(rng, R3) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == R3.zero
        assert p * R3.one == p


@settings(max_examples=200, deadline=None)
@given(polys())
def test_poly_parse_format_round_trip(p):
    assert R3.parse(R3.format(p)) == p


@settings(max_examples=200, deadline=None)
@given(polys(), polys())
def test_poly_exact_division_recovers_factor(p, q):
    if not q:
        with pytest.raises(InexactDivisionError):
            (p * q).exact_div(q)
    else:
        assert (p * q).exact_div(q) == p


def test_exact_div_fast_paths():
    p = X**2 * Y + 3 * X
    assert p.exact_div(R3.one) is p
    assert p.exact_div(X) == X * Y + 3
    assert (2 * p).exact_div(R3.coerce(2)) == p
    with pytest.raises(InexactDivisionError):
        p.exact_div(R3.coerce(2))
    with pytest.raises(InexactDivisionError):
        p.exact_div(Y)


def test_exact_div_general_quotient():
    assert (X**2 - 1).exact_div(X - 1) == X + 1
    num = (X + Y) * (X - Y) * (Z + 3)
    assert num.exact_div((X + Y) * (Z + 3)) == X - Y
    with pytest.raises(InexactDivisionError):
        (X**2 + 1).exact_div(X - 1)
    with pytest.raises(InexactDivisionError):
        X.exact_div(R3.zero)


def test_poly_misc_accessors():
    p = X**2 * Y - 4
    assert p.total_degree() == 3
    assert R3.zero.total_degree() == -1
    assert (X**3).terms == {(3, 0, 0): 1}
    assert R3.gen("y") == Y
    with pytest.raises(ValueError):
        R3.gen("nope")


def test_constant_poly_hashes_as_its_int():
    assert R3.coerce(3) == 3 and hash(R3.coerce(3)) == hash(3)
    assert R3.coerce(3) in {3}
    assert 3 in {R3.coerce(3)}
    assert R3.zero in {0} and hash(R3.zero) == hash(0)
    assert R3.coerce(-7) in {-7: "x"}
    assert {X * Y + 1: "p"}[R3.parse("1 + y*x")] == "p"


# -- packed monomials ----------------------------------------------------


def grlex_key(exps):
    # graded lexicographic: total degree first, then lex on the exponent tuple
    return (sum(exps), exps)


def exponent_tuples(nvars=3, high=EXPONENT_LIMIT // 3):
    return st.tuples(*([st.integers(0, high)] * nvars))


@settings(max_examples=300, deadline=None)
@given(st.one_of(exponent_tuples(), exponent_tuples(high=3)),
       st.one_of(exponent_tuples(), exponent_tuples(high=3)))
def test_packed_key_order_is_grlex_order(a, b):
    assert (_pack(a) < _pack(b)) == (grlex_key(a) < grlex_key(b))
    assert (_pack(a) == _pack(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(polys(max_exp=40))
def test_terms_round_trip_and_are_read_only(p):
    terms = p.terms
    assert Poly(R3.vars, terms) == p
    assert all(len(e) == 3 and c for e, c in terms.items())
    with pytest.raises(TypeError):
        terms[(0, 0, 0)] = 1
    with pytest.raises(AttributeError):
        p.terms = {}


def test_poly_rejects_exponent_tuples_of_the_wrong_length():
    with pytest.raises(ValueError):
        Poly(R3.vars, {(1, 0): 1})
    with pytest.raises(ValueError):
        Poly(R3.vars, {(1, -1, 0): 1})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, EXPONENT_LIMIT), st.integers(0, EXPONENT_LIMIT))
def test_exponent_limit_is_checked_not_carried(a, b):
    if a + b <= EXPONENT_LIMIT:
        assert (X**a * Y**b).terms == {(a, b, 0): 1}
        assert (X**a * X**b).terms == {(a + b, 0, 0): 1}
    else:
        with pytest.raises(ExponentLimitError):
            X**a * Y**b
        with pytest.raises(ExponentLimitError):
            (X**a + 1) * (Y**b - Z)


def test_exponent_limit_from_pow_parse_and_constructor():
    top = X**EXPONENT_LIMIT
    assert top.total_degree() == EXPONENT_LIMIT
    with pytest.raises(ExponentLimitError):
        X ** (EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentLimitError):
        top * Y
    with pytest.raises(ExponentLimitError):
        (Y + 1) * top * 2
    assert R3.parse(f"x^{EXPONENT_LIMIT}") == top
    with pytest.raises(ExponentLimitError):
        R3.parse(f"x^{EXPONENT_LIMIT + 1}")
    with pytest.raises(ExponentLimitError):
        R3.parse(f"(x*y)^{EXPONENT_LIMIT // 2 + 1}")
    with pytest.raises(ExponentLimitError):
        Poly(R3.vars, {(EXPONENT_LIMIT, 1, 0): 1})
    # constants carry no degree, so any power of one is fine
    assert R3.coerce(2) ** (EXPONENT_LIMIT + 1) == 2 ** (EXPONENT_LIMIT + 1)


def test_parsed_exponent_beyond_the_limit_fails_before_computing():
    # a constant's power has degree 0, so only the literal exponent can stop it
    with pytest.raises(ExponentLimitError):
        R3.parse("2^4000000000")
    with pytest.raises(ExponentLimitError):
        R3.parse(f"1^{EXPONENT_LIMIT + 1}")
    assert R3.parse(f"1^{EXPONENT_LIMIT}") == 1


@st.composite
def short_divisors(draw):
    """(r, d): exponent tuples where d exceeds r in exactly one field."""
    r = draw(exponent_tuples(high=30))
    i = draw(st.integers(0, 2))
    d = [draw(st.integers(0, r[j])) for j in range(3)]
    d[i] = r[i] + draw(st.integers(1, 30))
    return r, tuple(d)


@settings(max_examples=300, deadline=None)
@given(short_divisors(), st.integers(1, 5))
def test_exact_div_detects_a_single_short_field(rd, c):
    r, d = rd
    rem = Poly(R3.vars, {r: c})
    mono = Poly(R3.vars, {d: 1})
    with pytest.raises(InexactDivisionError):
        rem.exact_div(mono)  # monomial divisor
    with pytest.raises(InexactDivisionError):
        rem.exact_div(mono + 1)  # general long division
    with pytest.raises(InexactDivisionError):
        (rem * (X + 2)).exact_div(mono * (Y - 1))


def test_ring_json_tags():
    assert ZZ.to_json_tag() == "int"
    assert QQ.to_json_tag() == "rat"
    assert R3.to_json_tag() == {"poly": ["x", "y", "z"]}


# -- fused sum of products -----------------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=9)
R2 = PolynomialRing(("x", "z"))


def snapshot(values):
    return [dict(v._mons) if isinstance(v, Poly) else v for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99)), max_size=8))
def test_dot_is_the_sum_of_products_on_integers(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert ZZ.dot(xs, ys) == sum(x * y for x, y in pairs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fractions, fractions), max_size=8))
def test_dot_is_the_sum_of_products_on_rationals(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    total = QQ.dot(xs, ys)
    assert total == sum((x * y for x, y in pairs), Fraction(0))
    assert isinstance(total, Fraction)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(polys(), polys()), max_size=6), st.data())
def test_dot_is_the_sum_of_products_on_polys(pairs, data):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    # alias some inputs across the two sequences: xs[i] is ys[j]
    for i in range(len(xs)):
        if data.draw(st.booleans()):
            ys[data.draw(st.integers(0, len(ys) - 1))] = xs[i]
    before = snapshot(xs + ys)
    expected = R3.zero
    for x, y in zip(xs, ys):
        expected = expected + x * y
    total = R3.dot(xs, ys)
    assert total == expected
    assert total._mons == expected._mons and all(total._mons.values())
    assert snapshot(xs + ys) == before


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(polys(), polys()), min_size=1, max_size=5))
def test_dot_cancelling_to_zero_is_canonical_zero(pairs):
    # each product appears once with each sign
    xs = [x for x, _ in pairs] + [-x for x, _ in pairs]
    ys = [y for _, y in pairs] * 2
    before = snapshot(xs + ys)
    total = R3.dot(xs, ys)
    assert total._mons == {}
    assert total == 0 and total == R3.zero and not total
    assert hash(total) == hash(0)
    assert snapshot(xs + ys) == before


def test_dot_of_nothing_is_the_rings_zero():
    assert ZZ.dot([], []) == 0 and type(ZZ.dot([], [])) is int
    assert type(QQ.dot([], [])) is Fraction and QQ.dot([], []) == 0
    empty = R3.dot([], [])
    assert isinstance(empty, Poly) and empty == R3.zero and empty._mons == {}
    assert empty.vars is R3.vars


def test_dot_mixes_ints_with_polys_and_aliases_one_input():
    p = X + Y
    assert R3.dot([p, 2], [p, Z]) == p * p + 2 * Z
    assert R3.dot([p], [p]) == X * X + 2 * X * Y + Y * Y
    assert p._mons == (X + Y)._mons


def test_dot_checks_the_degree_of_every_pair():
    top = X**EXPONENT_LIMIT
    with pytest.raises(ExponentLimitError):
        R3.dot([Y, top], [Y, Y + 1])
    with pytest.raises(ExponentLimitError):
        R3.dot([top + 1], [X])
    assert R3.dot([top, Y], [1, Z]) == top + Y * Z


def test_dot_rejects_polys_over_other_variables():
    other = R2.gen("x")
    with pytest.raises(RingMismatchError):
        R3.dot([X, other], [Y, Y])
    with pytest.raises(RingMismatchError):
        R3.dot([X], [other])
    with pytest.raises(RingMismatchError):
        R3.dot([X], [Fraction(1, 2)])
