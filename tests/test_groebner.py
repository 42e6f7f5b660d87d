"""Division, Buchberger, elimination, initial ideals, and weight synthesis."""

import random
from fractions import Fraction

import pytest

from reference import monic, s_polynomial
from veronese_gb import groebner
from veronese_gb.errors import (BudgetExceededError, DimensionError,
                                DomainError, RingMismatchError)
from veronese_gb.groebner import (Budget, GBStats, Ideal, MonomialIdeal,
                                  _DivisorIndex, _ExponentIndex, _bits,
                                  _raised, _reduce_basis, _reduce_terms,
                                  buchberger, eliminate, elimination_order,
                                  find_weight_vector, is_groebner_basis,
                                  normal_form)
from veronese_gb.orders import Block, GammaRevLex, GrevLex, Lex, Weighted
from veronese_gb.polyring import (Polynomial, base_ring, generic_ring,
                                  mono_div, mono_divides, mono_lcm,
                                  parse_polynomial, veronese_ring)
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
    elim = eliminate(gens, order, back)
    assert [str(g) for g in elim] == ["y1^2 - y2"]


def test_buchberger_takes_a_grading():
    # the curve's ideal is homogeneous for deg t = deg y1 = 1, deg y2 = 2;
    # a grading changes the order pairs are taken in, not the basis
    ring = generic_ring(("t", "y1", "y2"))
    gens = [parse_polynomial("y1 - t", ring),
            parse_polynomial("y2 - t^2", ring)]
    order = Block(1, GrevLex(1), GrevLex(2))
    back = generic_ring(("y1", "y2"))
    assert buchberger(gens, order, grading=(1, 1, 2)) == \
        buchberger(gens, order)
    assert eliminate(gens, order, back, grading=(1, 1, 2)) == \
        eliminate(gens, order, back)


def test_equal_lcm_pops_see_the_element_added_between_them():
    # the three pairs share the lcm y1*y2*y3, and the first S-polynomial is
    # 1, which divides that lcm and is coprime to every element: the chain
    # criterion drops the other two pairs only if their pops read the
    # divisors of the lcm after the first pop added it
    S = base_ring(3)
    gens = [parse_polynomial(g, S) for g in ("y1*y2*y3 + 1", "y2*y3",
                                              "y1*y3")]
    stats = GBStats()
    assert buchberger(gens, GrevLex(3), stats=stats) == (S.monomial((0,) * 3),)
    assert (stats.spairs, stats.skipped_coprime, stats.skipped_chain,
            stats.basis_peak) == (1, 3, 2, 4)


@pytest.mark.parametrize("grading", [(1, 1), (1, 1, 2, 1)],
                         ids=["short", "long"])
def test_buchberger_refuses_a_grading_of_the_wrong_length(grading):
    ring = generic_ring(("t", "y1", "y2"))
    gens = [parse_polynomial("y1 - t", ring),
            parse_polynomial("y2 - t^2", ring)]
    with pytest.raises(DimensionError, match="3-variable"):
        buchberger(gens, GrevLex(3), grading=grading)
    with pytest.raises(DimensionError, match="3-variable"):
        eliminate(gens, elimination_order(1, GrevLex(2)),
                  generic_ring(("y1", "y2")), grading=grading)


def test_eliminate_refuses_a_seed_index_under_another_order():
    # the run takes a seed index's order, so an index under an order other
    # than the one eliminated under is refused, and one under an equal order
    # gives the unseeded basis
    ring = generic_ring(("t", "y1", "y2"))
    gens = [parse_polynomial("y1 - t", ring),
            parse_polynomial("y2 - t^2", ring)]
    back = generic_ring(("y1", "y2"))
    order = elimination_order(1, GrevLex(2))
    seed = buchberger(gens, order)
    equal = _DivisorIndex.of(seed, elimination_order(1, GrevLex(2)), ring)
    assert eliminate(gens, order, back, seed_gb=equal) == \
        eliminate(gens, order, back)
    other = _DivisorIndex.of(seed, elimination_order(1, Lex(2)), ring)
    with pytest.raises(DomainError, match="another order"):
        eliminate(gens, order, back, seed_gb=other)


def test_eliminate_zero_front_is_identity():
    S = base_ring(2)
    gens = [parse_polynomial("y1^2 - y2^2", S), parse_polynomial("y1*y2", S)]
    gb = buchberger(gens, GrevLex(2))
    assert eliminate(list(gb), elimination_order(0, GrevLex(2)), S) == gb


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
    forms, monomial = J.initial_forms((2, 1, 1))
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
    out = [monic(normal_form(p, kept[:i] + kept[i + 1:], order), order)
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


def _library_spoly(f, g, order):
    """The S-pair as Buchberger forms it, from divisor-index items."""
    index = _DivisorIndex(order)
    for p in (f, g):
        index.add(p, p.leading_term(order)[0])
    a, b = index.items
    return Polynomial(f.ring, groebner._exact(
        groebner._spoly(a, b, mono_lcm(a[2], b[2])), a[3] * b[3]),
        _clean=True)


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


def _fraction_coeffs(polys):
    """Whether every coefficient is a Fraction: dict equality cannot tell,
    since 1 == Fraction(1) == 1.0."""
    return all(type(c) is Fraction for g in polys for c in g.terms.values())


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
        spoly = _library_spoly(f, g, order)
        assert spoly.terms == s_polynomial(f, g, order).terms
        divisors = [p for p in (_random_poly(rng, S, terms=2, top=2)
                                for _ in range(3)) if p]
        h = f * g + f
        remainder = normal_form(h, divisors, order)
        assert remainder.terms == \
            _dict_normal_form(h.terms, [d.terms for d in divisors], order)
        # the kernel computes on ints where it can; what it returns is exact
        check = is_groebner_basis(divisors, order)
        if not check.ok:
            assert check.remainder == normal_form(
                s_polynomial(*check.pair, order), divisors, order)
        outputs = [spoly, remainder, *_reduce_basis(divisors, order),
                   Ideal(S, divisors).normal_form(h, order),
                   check.remainder or S.zero, *buchberger([f, g], order)]
        assert _fraction_coeffs(outputs)


@pytest.mark.parametrize("ring, order", [
    (base_ring(3), Lex(3)), (base_ring(3), GrevLex(3)),
    (base_ring(3), Weighted((1, 2, 3), GrevLex(3))),
    (base_ring(3), Block(1, GrevLex(1), GrevLex(2))),
    (veronese_ring(2, 2), GammaRevLex(2, 2))],
    ids=["lex", "grevlex", "weighted", "block", "gamma"])
def test_remainder_terms_descend(ring, order, rng, monkeypatch):
    # buchberger reads a remainder's leading term off its first key
    rescales = []
    rescale = groebner._rescale_content
    monkeypatch.setattr(groebner, "_rescale_content",
                        lambda p, r: rescales.append(1) or rescale(p, r))
    for _ in range(40):
        f = _random_poly(rng, ring, terms=4, top=4) * \
            _random_poly(rng, ring, terms=4, top=3)
        divisors = [p for p in (_random_poly(rng, ring, top=3)
                                for _ in range(3)) if p]
        index = _DivisorIndex.of(divisors, order, ring)
        for scale_ok in (False, True):
            r = _reduce_terms(f.terms, index, order, scale_ok=scale_ok)
            keys = [order.key(e) for e in r]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            if r:
                assert next(iter(r)) == \
                    Polynomial(ring, r, _clean=True).leading_term(order)[0]
    # some of the chains were long enough to have their content stripped
    assert rescales


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


def test_exponent_index_matches_brute_force(rng):
    """Divisors, coprime entries and the divisor index's pick against scans
    of the entries, on an empty index and after every entry; entries include
    the zero vector and repeats."""
    for trial in range(40):
        n = rng.randrange(1, 6)

        def draw():
            return tuple(rng.randrange(5) for _ in range(n))

        zero = (0,) * n
        pool = [draw() for _ in range(rng.randrange(1, 10))]
        pool += rng.sample(pool, rng.randrange(len(pool) + 1))
        if trial % 2:
            pool.append(zero)
        rng.shuffle(pool)
        queries = [draw() for _ in range(15)] + [zero] + pool
        ring = generic_ring(f"v{i}" for i in range(n))
        order = (Lex(n), GrevLex(n))[trial % 2]
        index, lead = _ExponentIndex(), _DivisorIndex(order)
        entries = []
        for e in [None] + pool:
            if e is not None:
                entries.append(e)
                index.add(e)
                lead.add(ring.monomial(e), e)
            for u in queries:
                dividing = [k for k, g in enumerate(entries)
                            if mono_divides(g, u)]
                assert list(_bits(index.divisors(u))) == dividing
                assert list(_bits(index.coprime(u))) == [
                    k for k, g in enumerate(entries)
                    if all(not x or not y for x, y in zip(g, u))]
                hit = lead.find(u)
                least = min(((order.key(entries[k]), k) for k in dividing),
                            default=None)
                assert (hit and hit[:2]) == least


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

    # here only the pair loop multiplies: its one S-pair reduces
    # -y1*y2^2 + 3*y2^3 by the non-monic 3*y1*y2 - y2^2, by -1/3 (1 + 2 bits)
    gens = [parse_polynomial("3*y1*y2 - y2^2", S),
            parse_polynomial("y1^2 - y2^2", S)]
    assert buchberger(gens, GrevLex(2), budget=Budget(coeff_bits=3))
    with pytest.raises(BudgetExceededError):
        buchberger(gens, GrevLex(2), budget=Budget(coeff_bits=2))

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


@pytest.mark.parametrize("exps, error", [
    ([(1,)], DimensionError),
    ([(1, 2, 3)], DimensionError),
    ([(2, 0), (1,)], DimensionError),
    ([(-1, 2)], DomainError),
    ([(0, 1), (3, -2)], DomainError),
], ids=["short", "long", "short-second", "negative", "negative-second"])
def test_monomial_ideal_refuses_malformed_exponents(exps, error):
    with pytest.raises(error):
        MonomialIdeal.from_exponents(base_ring(2), exps)


def test_budget_exceeded():
    S = base_ring(3)
    gens = [parse_polynomial("y1^2 - y2*y3", S),
            parse_polynomial("y2^2 - y1*y3", S),
            parse_polynomial("y3^2 - y1*y2", S)]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, GrevLex(3), budget=Budget(spair_cap=1))


def test_negative_spair_cap_is_refused(monkeypatch):
    with pytest.raises(DomainError, match="-1"):
        Budget(spair_cap=-1)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "-1")
    with pytest.raises(DomainError, match="VERONESE_GB_BUDGET"):
        Budget()
    monkeypatch.setenv("VERONESE_GB_BUDGET", "0")
    assert Budget().spair_cap == Budget(spair_cap=0).spair_cap == 0


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


def test_ideal_keeps_one_divisor_index_per_order(monkeypatch):
    R = veronese_ring(3, 3)
    order = GammaRevLex(3, 3)
    I = Ideal(R, exchange_binomials(3, 3))
    gb = I.groebner_basis(order)
    rng = random.Random(7)
    fs = [Polynomial(R, {tuple(rng.randrange(3) for _ in range(R.nvars)):
                         Fraction(rng.randrange(1, 5)) for _ in range(3)})
          for _ in range(50)]
    fs += [g.mul_term(rng.randrange(1, 5),
                      tuple(rng.randrange(2) for _ in range(R.nvars))) + h
           for g, h in zip(rng.choices(gb, k=50), rng.choices(gb, k=50))]
    expected = [normal_form(f, gb, order) for f in fs]
    assert any(expected) and not all(expected)

    builds = []
    of = _DivisorIndex.of.__func__

    def counting_of(cls, *args):
        builds.append(args)
        return of(cls, *args)

    monkeypatch.setattr(_DivisorIndex, "of", classmethod(counting_of))
    assert [I.contains(f, order) for f in fs] == [not r for r in expected]
    assert [I.normal_form(f, order) for f in fs] == expected
    assert len(builds) == 1
    # a second order gets an index of its own
    I.normal_form(fs[0], GrevLex(R.nvars))
    assert len(builds) == 2
    with pytest.raises(RingMismatchError):
        I.normal_form(base_ring(2).one, order)


def test_mono_helpers_match_zip_references():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(8)
        a = tuple(rng.randrange(4) for _ in range(n))
        b = tuple(rng.randrange(4) for _ in range(n))
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        assert mono_lcm(a, b) == lcm
        # buchberger's lcm: a raised at the support of b
        assert _raised(a, [(v, y) for v, y in enumerate(b) if y]) == lcm
        assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
        assert mono_divides(a, lcm) and mono_divides(b, lcm)
        assert mono_div(lcm, a) == tuple(x - y for x, y in zip(lcm, a))
        coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
        index = _ExponentIndex()
        index.add(a)
        assert index.coprime(b) == (1 if coprime else 0)
        assert index.divisors(b) == (1 if mono_divides(a, b) else 0)
