"""Ring construction, arithmetic, the text grammar, and JSON round trips."""

import math
import sys
from fractions import Fraction

import pytest

from veronese_gb.errors import (DimensionError, DomainError, ParseError,
                                RingMismatchError)
from veronese_gb.polyring import (MAX_EXPONENT, Polynomial, base_ring,
                                  format_polynomial, generic_ring, joint_ring,
                                  parse_polynomial, poly_from_json,
                                  poly_to_json, ring_from_json, ring_to_json,
                                  veronese_ring)


def test_ring_shapes():
    S = base_ring(3)
    assert S.names == ("y1", "y2", "y3")
    R = veronese_ring(3, 2)
    assert R.nvars == math.comb(2 + 3 - 1, 3 - 1) == 6
    assert all(sum(a) == 2 for a in R.indices)
    with pytest.raises(DomainError):
        base_ring(0)
    with pytest.raises(DomainError):
        joint_ring(S, S)  # name clash


def test_ring_size_cap():
    # one variable past the cap of 10,000 (veronese --s 40 --d 40 is
    # refused the same way, before its multi-indices are enumerated)
    names = [f"v{i}" for i in range(10_000)]
    for build in (lambda: base_ring(10_001),
                  lambda: veronese_ring(2, 10_000),  # 10,001 variables
                  lambda: veronese_ring(3, 140),     # binomial(142, 2)
                  lambda: generic_ring(names + ["w"]),
                  lambda: joint_ring(base_ring(1), generic_ring(names))):
        with pytest.raises(DomainError):
            build()
    assert base_ring(10_000).nvars == veronese_ring(2, 9_999).nvars == 10_000


def test_parse_examples():
    S = base_ring(3)
    f = parse_polynomial("y1^2*y2 - 3/2*y3", S)
    assert f.terms == {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)}

    R = veronese_ring(2, 2)
    g = parse_polynomial("x[2,0]*x[0,2] - x[1,1]^2", R)
    assert len(g.terms) == 2 and g.is_binomial_pm1()

    assert parse_polynomial("0", S) == S.zero
    assert parse_polynomial("- y1 + y1", S) == S.zero
    # every factor of a term multiplies in, and like terms add up
    h = parse_polynomial("2*y1*3/4*y1", S)
    assert h.terms == {(2, 0, 0): Fraction(3, 2)}
    assert type(h.terms[(2, 0, 0)]) is Fraction
    assert parse_polynomial("y1 - y1 + 2", S) == S.constant(2)
    assert parse_polynomial("-y1*0 + y2", S) == S.variable(1)


def test_parse_error_positions():
    S = base_ring(2)
    with pytest.raises(ParseError) as err:
        parse_polynomial("y1 + + y2", S)
    assert err.value.line == 1 and err.value.col == 6

    with pytest.raises(ParseError) as err:
        parse_polynomial("y1 + y9", S)
    assert err.value.col == 6

    with pytest.raises(ParseError) as err:
        parse_polynomial("y1^2\n - y2 $", S)
    assert err.value.line == 2 and err.value.col == 7

    with pytest.raises(ParseError):
        parse_polynomial(f"y1^{MAX_EXPONENT + 1}", S)
    with pytest.raises(ParseError):
        parse_polynomial("1/0*y1", S)

    R = veronese_ring(2, 2)
    with pytest.raises(ParseError, match="exponent overflow") as err:
        parse_polynomial(f"x[{MAX_EXPONENT + 1},0]", R)
    assert (err.value.line, err.value.col) == (1, 3)
    with pytest.raises(ParseError) as err:
        parse_polynomial("x[1,2", R)
    assert str(err.value) == "expected ']', found '' (line 1, column 6)"


def test_parse_reads_only_decimal_digits_as_integers():
    # superscript digits are digits to str.isdigit but not to int()
    S = base_ring(2)
    with pytest.raises(ParseError) as err:
        parse_polynomial("y1^\u00b2", S)
    assert "unexpected character" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(ParseError) as err:
        parse_polynomial("y2^\u2074", S)
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(ParseError) as err:
        parse_polynomial("y1\u00b2", S)
    assert "unknown variable" in str(err.value)
    # a decimal digit of another script is still a digit
    assert parse_polynomial("\u0663*y1", S) == parse_polynomial("3*y1", S)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on int() of a digit string")
def test_parse_refuses_a_digit_run_past_the_int_limit():
    # int() refuses a digit run past the interpreter's limit; each place an
    # integer is read reports it as a ParseError at the run's token
    S, R = base_ring(2), veronese_ring(2, 2)
    long = "9" * (sys.get_int_max_str_digits() + 1)
    for text, ring, col in ((f"y1 + {long}*y2", S, 6),
                            (f"y1 + 1/{long}*y2", S, 8),
                            (f"y1^{long}", S, 4),
                            (f"x[{long},0]", R, 3),
                            (f"x[2,0] - x[0,{long}]", R, 14)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ring)
        assert (err.value.line, err.value.col) == (1, col), text


def test_parse_exponent_sum_overflow():
    # a term whose coefficient is zero so far never overflows; a nonzero one
    # that does is out of the domain, not a syntax error
    S = base_ring(2)
    assert parse_polynomial(f"0*y1^{MAX_EXPONENT}*y1", S) == S.zero
    assert parse_polynomial(f"y1^{MAX_EXPONENT}*0*y1 + y2", S) == S.variable(1)
    assert parse_polynomial(f"y1^{MAX_EXPONENT}*y2", S).terms == {
        (MAX_EXPONENT, 1): Fraction(1)}
    for text in (f"y1^{MAX_EXPONENT}*y1", f"y2 + 3*y1*y1^{MAX_EXPONENT}"):
        with pytest.raises(DomainError, match="exponent overflow"):
            parse_polynomial(text, S)


def test_parse_does_no_polynomial_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial arithmetic while parsing")

    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    S = base_ring(3)
    f = parse_polynomial("-2*y1*y2^2 + 3/4*y2*y1*y3 - y1*5*y1 + y2*y1*7", S)
    assert f.terms == {(1, 2, 0): Fraction(-2), (1, 1, 1): Fraction(3, 4),
                       (2, 0, 0): Fraction(-5), (1, 1, 0): Fraction(7)}


def test_print_parse_round_trip():
    S = base_ring(3)
    R = veronese_ring(2, 3)
    samples = [
        parse_polynomial("y1^2*y2 - 3/2*y3 + 7", S),
        parse_polynomial("-y1 + y2^4", S),
        parse_polynomial("x[2,1]*x[0,3] - x[1,2]^2", R),
        S.zero,
    ]
    for f in samples:
        text = format_polynomial(f)
        assert parse_polynomial(text, f.ring) == f


def test_json_round_trip():
    R = veronese_ring(2, 2)
    f = parse_polynomial("x[2,0]*x[0,2] - 5/3*x[1,1]^2", R)
    obj = poly_to_json(f)
    assert obj["ring"]["kind"] == "Rd"
    assert obj["ring"]["index_table"] == [list(a) for a in R.indices]
    assert poly_from_json(obj) == f

    S = base_ring(2)
    g = parse_polynomial("y1 - y2", S)
    assert poly_from_json(poly_to_json(g)) == g

    ring2 = ring_from_json(ring_to_json(generic_ring(("t", "u"))))
    assert ring2.names == ("t", "u")


def test_json_integer_fields_reject_fractions():
    # a whole number and an integer string still name an integer
    assert ring_from_json({"kind": "S", "s": 2.0}) == base_ring(2)
    assert ring_from_json({"kind": "Rd", "s": "2", "d": 3}) == veronese_ring(2, 3)
    with pytest.raises(DomainError, match="ring.d"):
        ring_from_json({"kind": "Rd", "s": 2, "d": "1.5"})


def test_json_rejects_wrong_index_table():
    obj = ring_to_json(veronese_ring(2, 2))
    obj["index_table"][0] = [9, 9]
    with pytest.raises(DomainError):
        ring_from_json(obj)


def test_arithmetic_basics():
    S = base_ring(2)
    y1 = S.variable(0)
    y2 = S.variable(1)
    assert (y1 + y2) * (y1 - y2) == y1 * y1 - y2 * y2
    assert (y1 - y1) == S.zero
    assert y1 * 0 == S.zero
    assert (y1 * Fraction(2, 3)).terms == {(1, 0): Fraction(2, 3)}
    assert (y1 ** 3).terms == {(3, 0): Fraction(1)}


def test_ring_mismatch():
    a = base_ring(2).variable(0)
    b = base_ring(3).variable(0)
    with pytest.raises(RingMismatchError):
        a + b


def test_exponent_overflow_guard():
    S = base_ring(1)
    big = S.monomial((MAX_EXPONENT,))
    with pytest.raises(DomainError):
        big * S.variable(0)


def test_term_dimension_check():
    S = base_ring(2)
    with pytest.raises(DimensionError):
        S.monomial((1, 2, 3))


def test_homogeneity_predicate():
    S = base_ring(2)
    assert parse_polynomial("y1^2 - y1*y2", S).is_homogeneous()
    assert not parse_polynomial("y1^2 - y2", S).is_homogeneous()
    assert S.zero.is_homogeneous()


def test_ring_axioms_random(rng):
    S = base_ring(3)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = tuple(rng.randrange(3) for _ in range(3))
            terms[e] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return __import__("veronese_gb").Polynomial(S, terms)

    for _ in range(150):
        f, g, h = random_poly(), random_poly(), random_poly()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
