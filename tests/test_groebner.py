"""Division, Buchberger, elimination, initial ideals, and weight synthesis."""

from fractions import Fraction

import pytest

from veronese_gb.errors import BudgetExceededError, DomainError
from veronese_gb.groebner import (Budget, Ideal, MonomialIdeal, _reduce_basis,
                                  buchberger, eliminate, find_weight_vector,
                                  initial_ideal, is_groebner_basis,
                                  normal_form, s_polynomial)
from veronese_gb.orders import Block, GammaRevLex, GrevLex, Lex, Weighted
from veronese_gb.polyring import (Polynomial, base_ring, generic_ring,
                                  mono_divides, parse_polynomial,
                                  veronese_ring)
from veronese_gb.veronese import exchange_binomials


def _rd(s, d, text):
    return parse_polynomial(text, veronese_ring(s, d))


def test_normal_form_examples():
    order = GammaRevLex(2, 2)
    g = _rd(2, 2, "x[2,0]*x[0,2] - x[1,1]^2")
    f = _rd(2, 2, "x[1,1]^2")
    # the divisor's leading term does not divide f, so f survives untouched
    assert normal_form(f, [g], order) == f
    # members of a basis reduce to zero
    assert not normal_form(g, [g], order)
    assert not normal_form(g.ring.zero, [g], order)


def test_normal_form_is_deterministic_in_divisor_choice():
    S = base_ring(2)
    order = GrevLex(2)
    f = parse_polynomial("y1^2*y2", S)
    g1 = parse_polynomial("y1*y2 - y2", S)
    g2 = parse_polynomial("y1^2 - y1", S)
    # both leading terms divide; the ascending-leading-term rule picks g1
    r_onewway = normal_form(f, [g1, g2], order)
    r_other = normal_form(f, [g2, g1], order)
    assert r_onewway == r_other


def test_s_polynomial_examples():
    order = GammaRevLex(2, 3)
    G = list(exchange_binomials(2, 3))
    f = _rd(2, 3, "x[3,0]*x[1,2] - x[2,1]^2")
    g = _rd(2, 3, "x[1,2]^2 - x[2,1]*x[0,3]")
    s = s_polynomial(f, g, order)
    assert not normal_form(s, G, order)
    assert not s_polynomial(f, f, order)
    with pytest.raises(DomainError):
        s_polynomial(f, f.ring.zero, order)


def test_buchberger_trivial_cases():
    S = base_ring(2)
    assert buchberger([], GrevLex(2)) == ()
    f = parse_polynomial("2*y1^2*y2 - 2*y2", S)
    (g,) = buchberger([f], GrevLex(2))
    assert g == parse_polynomial("y1^2*y2 - y2", S)


def test_buchberger_elimination_curve():
    ring = generic_ring(("t", "y1", "y2"))
    gens = [parse_polynomial("y1 - t", ring),
            parse_polynomial("y2 - t^2", ring)]
    order = Block(1, GrevLex(1), GrevLex(2))
    gb = buchberger(gens, order)
    texts = sorted(str(g) for g in gb)
    assert texts == ["t - y1", "y1^2 - y2"]

    back = generic_ring(("y1", "y2"))
    elim = eliminate(gens, 1, back, GrevLex(2))
    assert [str(g) for g in elim] == ["y1^2 - y2"]


def test_eliminate_zero_front_is_identity():
    S = base_ring(2)
    gens = [parse_polynomial("y1^2 - y2^2", S), parse_polynomial("y1*y2", S)]
    gb = buchberger(gens, GrevLex(2))
    assert eliminate(list(gb), 0, S, GrevLex(2)) == gb


def test_is_groebner_basis_certificates():
    order = GammaRevLex(2, 3)
    G = list(exchange_binomials(2, 3))
    assert is_groebner_basis(G, order).ok

    # a single element is always a basis of what it generates, whatever order
    single = _rd(2, 2, "x[2,0]*x[0,2] - x[1,1]^2")
    wrong = GrevLex(3)  # makes the square the leading term
    assert single.leading_term(wrong)[0] != single.leading_term(GammaRevLex(2, 2))[0]
    assert is_groebner_basis([single], wrong).ok

    S = base_ring(3)
    bad = [parse_polynomial("y1^2 - y2", S), parse_polynomial("y1*y2 - y3", S)]
    check = is_groebner_basis(bad, Lex(3))
    assert not check.ok
    assert check.pair is not None and check.remainder
    # the witness is the first failing pair's remainder by the whole list
    assert check.spairs == 1 and check.pair == (bad[0], bad[1])
    assert check.remainder == normal_form(
        s_polynomial(bad[0], bad[1], Lex(3)), bad, Lex(3))


def test_initial_ideal_examples():
    # leading-term ideal of the degree-3 kernel on two variables
    R = veronese_ring(2, 3)
    I = Ideal(R, list(exchange_binomials(2, 3)))
    init = I.initial_ideal(GammaRevLex(2, 3))
    names = {tuple(e) for e in init.gens}
    def mono(text):
        return next(iter(parse_polynomial(text, R).terms))
    assert names == {mono("x[3,0]*x[1,2]"), mono("x[3,0]*x[0,3]"),
                     mono("x[1,2]^2")}

    S = base_ring(3)
    J = Ideal(S, [parse_polynomial("y1^2 - y2*y3", S)])
    forms, monomial = initial_ideal(J, (2, 1, 1))
    assert monomial
    assert [str(f) for f in forms.generators] == ["y1^2"]

    assert Ideal(S, []).initial_ideal(GrevLex(3)).is_zero


def test_find_weight_vector_examples():
    S3 = base_ring(3)
    I = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    w = find_weight_vector(I, Lex(3))
    assert 2 * w[0] > w[1] + w[2] and all(x >= 1 for x in w)

    S2 = base_ring(2)
    J = Ideal(S2, [parse_polynomial("y1 - y2", S2)])
    w2 = find_weight_vector(J, Lex(2))
    assert w2[0] > w2[1]

    K = Ideal(S2, [parse_polynomial("y1^2*y2^2", S2)])
    w3 = find_weight_vector(K, GrevLex(2))
    assert all(x >= 1 for x in w3)

    assert find_weight_vector(Ideal(S2, []), GrevLex(2)) == (1, 1)


def _random_poly(rng, ring, terms=3, top=3):
    return Polynomial(ring, {
        tuple(rng.randrange(top) for _ in range(ring.nvars)):
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        for _ in range(terms)})


def _reduce_basis_reference(polys, order):
    """Minimalize, then divide each kept element by all the others."""
    def lt(p):
        return p.leading_term(order)[0]

    kept = []
    for p in sorted((p for p in polys if p), key=lambda p: order.key(lt(p))):
        if not any(mono_divides(lt(q), lt(p)) for q in kept):
            kept.append(p)
    out = [normal_form(p, kept[:i] + kept[i + 1:], order).monic(order)
           for i, p in enumerate(kept)]
    return tuple(sorted(out, key=lambda p: order.key(lt(p))))


ORDERS = pytest.mark.parametrize("order", [
    Lex(3), GrevLex(3), Weighted((1, 2, 3), GrevLex(3)),
    Block(1, GrevLex(1), GrevLex(2))], ids=["lex", "grevlex", "weighted",
                                            "block"])


def _dict_sum(*scaled):
    """Sum of coeff * x^shift * terms over (coeff, shift, terms) triples,
    as a plain dict; zero coefficients are dropped at the end."""
    out = {}
    for coeff, shift, terms in scaled:
        for e, c in terms.items():
            m = tuple(a + b for a, b in zip(e, shift))
            out[m] = out.get(m, 0) + coeff * c
    return {e: c for e, c in out.items() if c}


def _dict_spoly(f, g, order):
    ltf, ltg = max(f, key=order.key), max(g, key=order.key)
    lcm = tuple(max(a, b) for a, b in zip(ltf, ltg))
    return _dict_sum(
        (1 / f[ltf], tuple(a - b for a, b in zip(lcm, ltf)), f),
        (-1 / g[ltg], tuple(a - b for a, b in zip(lcm, ltg)), g))


def _dict_normal_form(f, divisors, order):
    """Division by the dividing element with the least leading term, the
    earliest one among equal leading terms."""
    divisors = sorted(((max(g, key=order.key), g) for g in divisors),
                      key=lambda t: order.key(t[0]))
    p, r = dict(f), {}
    while p:
        u = max(p, key=order.key)
        hit = next(((lt, g) for lt, g in divisors if mono_divides(lt, u)), None)
        if hit is None:
            r[u] = p.pop(u)
            continue
        lt, g = hit
        p = _dict_sum((1, (0,) * len(u), p),
                      (-p[u] / g[lt], tuple(a - b for a, b in zip(u, lt)), g))
    return r


@ORDERS
def test_term_primitives_match_dict_reference(order, rng):
    S = base_ring(3)
    zero = S.zero_exps
    for _ in range(30):
        f, g = _random_poly(rng, S, terms=4), _random_poly(rng, S, terms=4)
        assert (f + g).terms == _dict_sum((1, zero, f.terms),
                                          (1, zero, g.terms))
        assert (f - g).terms == _dict_sum((1, zero, f.terms),
                                          (-1, zero, g.terms))
        assert (f * g).terms == _dict_sum(*((c, e, g.terms)
                                            for e, c in f.terms.items()))
        # full cancellation leaves no zero terms behind
        assert (f - f).terms == (f + (-1) * f).terms == {}
        assert ((f + g) - g) == f
        if not f or not g:
            continue
        assert s_polynomial(f, g, order).terms == \
            _dict_spoly(f.terms, g.terms, order)
        divisors = [p for p in (_random_poly(rng, S, terms=2, top=2)
                                for _ in range(3)) if p]
        h = f * g + f
        assert normal_form(h, divisors, order).terms == \
            _dict_normal_form(h.terms, [d.terms for d in divisors], order)


@ORDERS
def test_reduce_basis_matches_division_by_the_others(order, rng):
    S = base_ring(3)
    for _ in range(8):
        gens = [p for p in (_random_poly(rng, S) for _ in range(2)) if p]
        gb = buchberger(gens, order)
        # redundant members of the ideal, unreduced and unnormalized
        extra = [g.mul_term(rng.randrange(1, 4), (rng.randrange(2), 0, 1))
                 + h * Fraction(rng.randrange(-3, 4)) for g in gb for h in gb]
        polys = list(gb) + extra
        rng.shuffle(polys)
        assert _reduce_basis(polys, order) == \
            _reduce_basis_reference(polys, order) == gb
        # also on lists that are not Gröbner bases
        loose = [p for p in (_random_poly(rng, S) for _ in range(5)) if p]
        assert _reduce_basis(loose, order) == \
            _reduce_basis_reference(loose, order)


def test_monomial_ideal_contains_matches_brute_force(rng):
    S = base_ring(4)
    ideals = [MonomialIdeal.from_exponents(S, []),
              MonomialIdeal.from_exponents(S, [(0, 0, 0, 0), (1, 2, 0, 0)])]
    for _ in range(20):
        ideals.append(MonomialIdeal.from_exponents(S, [
            tuple(rng.randrange(3) for _ in range(4))
            for _ in range(rng.randrange(1, 7))]))
    for M in ideals:
        for _ in range(60):
            e = tuple(rng.randrange(4) for _ in range(4))
            assert M.contains(e) == any(mono_divides(g, e) for g in M.gens)
    assert not ideals[0].contains((0, 0, 0, 0))
    assert ideals[1].contains((0, 0, 0, 0))

    a = MonomialIdeal.from_exponents(S, [(2, 0, 1, 0), (0, 1, 0, 0)])
    b = MonomialIdeal.from_exponents(S, [(0, 1, 0, 0), (2, 0, 1, 0)])
    assert a.contains((2, 0, 1, 3))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_coefficient_cap_covers_interreduction_and_ideal_normal_form():
    S = base_ring(2)
    gens = [parse_polynomial("y1 + 7*y2", S), parse_polynomial("y2", S)]
    # no S-pair reduction multiplies anything; only the final tail
    # reduction of y1 + 7*y2 by y2 does, by 7
    assert buchberger(gens, GrevLex(2), budget=Budget(coeff_bits=4))
    with pytest.raises(BudgetExceededError):
        buchberger(gens, GrevLex(2), budget=Budget(coeff_bits=3))

    I = Ideal(S, [parse_polynomial("y1^2 - y2", S)])
    f = parse_polynomial("5*y1^2", S)
    assert I.normal_form(f, GrevLex(2)) == parse_polynomial("5*y2", S)
    with pytest.raises(BudgetExceededError):
        I.normal_form(f, GrevLex(2), Budget(coeff_bits=2))


def test_monomial_ideal_basics():
    S = base_ring(2)
    M = MonomialIdeal.from_exponents(S, [(2, 2), (2, 3), (4, 0)])
    assert M.gens == ((2, 2), (4, 0))  # (2,3) is swallowed by (2,2)
    assert M.contains((3, 2)) and not M.contains((1, 5))
    assert M.max_total_degree() == 4
    assert M.max_exponent() == 4

    assert MonomialIdeal.from_exponents(S, [(0, 3), (1, 0)]).max_total_degree() == 3
    assert MonomialIdeal.from_exponents(S, [(1, 1)]).max_exponent() == 1
    with pytest.raises(DomainError):
        MonomialIdeal.from_exponents(S, []).max_exponent()


def test_budget_exceeded():
    S = base_ring(3)
    gens = [parse_polynomial("y1^2 - y2*y3", S),
            parse_polynomial("y2^2 - y1*y3", S),
            parse_polynomial("y3^2 - y1*y2", S)]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, GrevLex(3), budget=Budget(spair_cap=1))


def test_reduced_basis_unique_under_shuffle(rng):
    S = base_ring(3)
    gens = [parse_polynomial("y1^2 - y2*y3", S),
            parse_polynomial("y2^3 - y1*y3^2", S),
            parse_polynomial("2*y1*y2 - 2*y3^2", S)]
    reference = buchberger(gens, GrevLex(3))
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, GrevLex(3)) == reference


def test_membership_via_normal_form(rng):
    S = base_ring(3)
    gens = [parse_polynomial("y1^2 - y2*y3", S),
            parse_polynomial("y2^2 - y1*y3", S)]
    I = Ideal(S, gens)
    order = GrevLex(3)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(3) for _ in range(3))
            terms[e] = Fraction(rng.randrange(-3, 4))
        return __import__("veronese_gb").Polynomial(S, terms)

    for _ in range(40):
        member = gens[0] * random_poly() + gens[1] * random_poly()
        assert I.contains(member, order)
    # non-members under one order stay non-members under another
    for _ in range(40):
        f = random_poly()
        if not I.contains(f, order):
            assert not I.contains(f, Lex(3))


def test_weighted_initial_commutes_with_tiebreak():
    # leading terms after weighting match the weighted-order leading terms
    S = base_ring(3)
    I = Ideal(S, [parse_polynomial("y1^2 - y2*y3", S),
                  parse_polynomial("y2^3 - y3^3", S)])
    order = GrevLex(3)
    omega = find_weight_vector(I, order)
    forms, monomial = I.initial_forms(omega)
    assert monomial
    lhs = forms.initial_ideal(order)
    rhs = I.initial_ideal(Weighted(omega, order))
    assert lhs.gens == rhs.gens == I.initial_ideal(order).gens


def test_binomial_closure_of_binomial_input():
    R = veronese_ring(2, 4)
    gb = buchberger(list(exchange_binomials(2, 4)), GammaRevLex(2, 4))
    assert all(g.is_binomial_pm1() for g in gb)
