"""The Veronese map, kernel bases, pullbacks, and the degree bounds."""

from fractions import Fraction

import pytest

from veronese_gb.errors import (DomainError, InternalCheckError,
                                NonMonomialInitialError)
from veronese_gb.groebner import (Ideal, MonomialIdeal, buchberger,
                                  find_weight_vector)
from veronese_gb.orders import GammaRevLex, GrevLex, multi_indices
from veronese_gb.polyring import base_ring, parse_polynomial, veronese_ring
from veronese_gb.toric import toric_groebner_basis
from veronese_gb.veronese import (VeroneseMap, degree_bounds,
                                  exchange_binomials, kernel_groebner_basis,
                                  kernel_initial, kernel_oracle_basis,
                                  monomial_pullback_generators,
                                  preimage_oracle, pullback_homogeneous_ideal,
                                  pullback_monomial_ideal,
                                  quadratic_pullback_bound, standard_monomials,
                                  verify_exchange_basis, weight_pullback)


def _mono(ring, text):
    return next(iter(parse_polynomial(text, ring).terms))


def test_image_examples():
    v = VeroneseMap(2, 4)
    u = _mono(v.ring, "x[3,1]*x[1,3]")
    assert v.image_exps(u) == (4, 4)
    assert v.image_exps(v.ring.zero_exps) == (0, 0)
    v3 = VeroneseMap(3, 3)
    assert v3.image_exps(_mono(v3.ring, "x[1,1,1]^2")) == (2, 2, 2)


def test_image_is_multiplicative(rng):
    v = VeroneseMap(3, 2)
    n = v.ring.nvars
    for _ in range(100):
        a = tuple(rng.randrange(3) for _ in range(n))
        b = tuple(rng.randrange(3) for _ in range(n))
        ab = tuple(x + y for x, y in zip(a, b))
        assert v.image_exps(ab) == tuple(
            x + y for x, y in zip(v.image_exps(a), v.image_exps(b)))


def test_min_divisor_variable_examples():
    v = VeroneseMap(2, 4)
    assert v.min_divisor_variable(_mono(v.ring, "x[3,1]*x[1,3]")) == (2, 2)
    assert v.min_divisor_variable(_mono(v.ring, "x[0,4]")) == (0, 4)
    v3 = VeroneseMap(2, 3)
    assert v3.min_divisor_variable(_mono(v3.ring, "x[2,1]^2")) == (2, 1)
    with pytest.raises(DomainError):
        v.min_divisor_variable(v.ring.zero_exps)


def test_min_preimage_is_standard(rng):
    v = VeroneseMap(3, 3)
    init = kernel_initial(3, 3)
    for _ in range(60):
        c = tuple(rng.randrange(4) for _ in range(3))
        total = sum(c)
        pad = (-total) % 3
        c = (c[0] + pad, c[1], c[2])
        u = v.min_preimage(c)
        assert v.image_exps(u) == c
        assert not init.contains(u)
    with pytest.raises(DomainError):
        v.min_preimage((1, 0, 0))


def test_exchange_binomials_small():
    one = exchange_binomials(2, 2)
    assert len(one) == 1
    assert str(one[0]) == "x[2,0]*x[0,2] - x[1,1]^2"

    assert exchange_binomials(1, 4) == ()

    three = exchange_binomials(2, 3)
    assert sorted(str(g) for g in three) == [
        "x[1,2]*x[3,0] - x[2,1]^2",
        "x[1,2]^2 - x[2,1]*x[0,3]",
        "x[3,0]*x[0,3] - x[2,1]*x[1,2]",
    ]
    order = GammaRevLex(2, 3)
    assert all(g.leading_term(order)[1] == 1 for g in three)
    assert all(g.is_binomial_pm1() for g in three)


def test_exchange_binomials_land_in_kernel():
    for s, d in ((2, 2), (2, 3), (3, 2)):
        v = VeroneseMap(s, d)
        assert all(not v.image(g) for g in exchange_binomials(s, d))


def test_verify_exchange_basis_small():
    for s, d in ((1, 7), (2, 2), (3, 2)):
        cert = verify_exchange_basis(s, d)
        assert cert.ok, (s, d)


def test_kernel_matches_oracle():
    for s, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        vmap = VeroneseMap(s, d)
        # the kernel is the toric ideal of the degree-d multi-indices
        toric = toric_groebner_basis(multi_indices(s, d), ring=vmap.ring,
                                     order=vmap.order)
        assert kernel_groebner_basis(s, d) == kernel_oracle_basis(s, d) \
            == toric, (s, d)


def test_kernel_size_matches_dimension_count():
    # quadratic leads <-> non-standard quadratics; standard quadratics
    # biject with base monomials of degree 2d, so the reduced basis has
    # C(N+1, 2) - C(2d+s-1, s-1) elements, N the variable count
    import math
    for s, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        n = math.comb(d + s - 1, s - 1)
        expected = math.comb(n + 1, 2) - math.comb(2 * d + s - 1, s - 1)
        assert len(kernel_groebner_basis(s, d)) == expected, (s, d)
        assert all(g.total_degree() == 2 for g in kernel_groebner_basis(s, d))


def _brute_force_min_preimage(vmap, c, order=None):
    """Smallest preimage by exhaustive splitting into degree-d blocks."""
    order = order or vmap.order
    best = [None]

    def walk(rem, partial):
        if not any(rem):
            exps = [0] * vmap.ring.nvars
            for pos in partial:
                exps[pos] += 1
            exps = tuple(exps)
            if best[0] is None or order.key(exps) < order.key(best[0]):
                best[0] = exps
            return
        for pos, a in enumerate(vmap.ring.indices):
            if partial and pos < partial[-1]:
                continue
            if all(x <= y for x, y in zip(a, rem)):
                walk(tuple(x - y for x, y in zip(rem, a)), partial + [pos])

    walk(tuple(c), [])
    return best[0]


def test_min_preimage_matches_brute_force(rng):
    # the peel-smallest-divisor recursion really finds the order minimum
    for s, d in ((2, 3), (3, 2)):
        vmap = VeroneseMap(s, d)
        for _ in range(25):
            k = rng.randrange(1, 4)
            c = [0] * s
            for _ in range(k * d):
                c[rng.randrange(s)] += 1
            c = tuple(c)
            assert vmap.min_preimage(c) == _brute_force_min_preimage(vmap, c)


def test_standard_monomial_generators_examples():
    S2 = base_ring(2)

    # square of a square at degree three
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    gens, complete = monomial_pullback_generators(M, 3)
    R = veronese_ring(2, 3)
    assert complete
    assert set(gens) == {_mono(R, "x[2,1]^2"), _mono(R, "x[2,1]*x[1,2]"),
                         _mono(R, "x[2,1]*x[0,3]")}

    # a single variable at degree two
    M1 = MonomialIdeal.from_exponents(S2, [(1, 0)])
    gens1, complete1 = monomial_pullback_generators(M1, 2)
    R2 = veronese_ring(2, 2)
    assert complete1
    assert set(gens1) == {_mono(R2, "x[2,0]"), _mono(R2, "x[1,1]")}

    # the maximal ideal pulls back to every variable
    S3 = base_ring(3)
    Mmax = MonomialIdeal.from_exponents(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gens_max, _ = monomial_pullback_generators(Mmax, 2)
    assert len(gens_max) == veronese_ring(3, 2).nvars
    assert all(sum(e) == 1 for e in gens_max)


def test_pullback_monomial_examples():
    S2 = base_ring(2)

    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    res = pullback_monomial_ideal(M, 3)
    assert res.max_degree == 2
    assert res.certificate["meets_bound"] and res.certificate["complete"]
    assert res.certificate["members_in_target"]
    exchange = set(exchange_binomials(2, 3))
    assert exchange <= set(res.groebner_basis)
    assert res.reduced == preimage_oracle(
        Ideal(S2, M.polynomials()), VeroneseMap(2, 3))

    M1 = MonomialIdeal.from_exponents(S2, [(1, 0)])
    res1 = pullback_monomial_ideal(M1, 2)
    assert res1.max_degree == 2
    R2 = veronese_ring(2, 2)
    assert set(res1.reduced) == {parse_polynomial("x[2,0]", R2),
                                 parse_polynomial("x[1,1]", R2)}

    for method in ("constructive", "oracle", "both"):
        zero = pullback_monomial_ideal(MonomialIdeal(S2, ()), 3, method=method)
        assert zero.groebner_basis == exchange_binomials(2, 3)
        assert zero.reduced == kernel_groebner_basis(2, 3)
        assert zero.method == "constructive"


def test_pullback_monomial_below_bound_uses_oracle():
    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])  # bound is 3
    res = pullback_monomial_ideal(M, 2)
    assert not res.certificate["meets_bound"]
    assert res.certificate["complete"]
    assert res.certificate["matches_oracle"]
    # an honest partial result when the oracle is disabled and the cap is low
    res_partial = pullback_monomial_ideal(M, 2, degree_cap=1, use_oracle=False)
    assert res_partial.certificate["complete"] is False


def test_pullback_monomial_oracle_method():
    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    res = pullback_monomial_ideal(M, 2, method="oracle")
    oracle = preimage_oracle(Ideal(S2, M.polynomials()), VeroneseMap(2, 2))
    assert res.groebner_basis == res.reduced == oracle
    assert res.method == "elimination-oracle"
    assert res.certificate == {}
    assert res.max_degree == max(g.total_degree() for g in oracle)


def test_pullback_monomial_both_runs_the_oracle_once(monkeypatch):
    from veronese_gb import veronese
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return preimage_oracle(*args, **kwargs)

    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])  # bound is 3
    monkeypatch.setattr(veronese, "preimage_oracle", counting)
    res = pullback_monomial_ideal(M, 2, method="both")
    assert len(calls) == 1
    assert res.method == "constructive"
    assert res.certificate["complete"] and res.certificate["matches_oracle"]

    monkeypatch.setattr(veronese, "preimage_oracle", lambda *a, **k: ())
    with pytest.raises(InternalCheckError, match="disagree"):
        pullback_monomial_ideal(M, 3, method="both")


def test_pullback_monomial_verify_spairs():
    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    res = pullback_monomial_ideal(M, 3, verify=True)
    assert res.certificate["is_groebner"]


def test_weight_pullback_examples():
    v = VeroneseMap(2, 2)
    assert weight_pullback((2, 1), v) == tuple(
        2 * a + b for a, b in v.ring.indices)
    assert weight_pullback((1, 1), v) == (2, 2, 2)
    assert weight_pullback((0, 0), v) == (0, 0, 0)
    assert set(weight_pullback((1, 1), VeroneseMap(2, 5))) == {5}


def test_pullback_homogeneous_rejects_bad_inputs():
    S3 = base_ring(3)
    I = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    with pytest.raises(NonMonomialInitialError):
        pullback_homogeneous_ideal(I, 2, (1, 1, 1))
    J = Ideal(S3, [parse_polynomial("y1^2 - y2", S3)])
    with pytest.raises(DomainError):
        pullback_homogeneous_ideal(J, 2, (2, 1, 1))


def test_pullback_homogeneous_monomial_input_agrees():
    S3 = base_ring(3)
    I = Ideal(S3, [parse_polynomial("y1^2", S3)])
    res = pullback_homogeneous_ideal(I, 2, (2, 1, 1))
    mono = pullback_monomial_ideal(
        MonomialIdeal.from_exponents(S3, [(2, 0, 0)]), 2)
    # same reduced basis, each sorted under its own order
    assert set(res.reduced) == set(mono.reduced)
    assert res.certificate["initial_matches_monomial_pullback"]


def test_pullback_homogeneous_zero_ideal():
    S3 = base_ring(3)
    res = pullback_homogeneous_ideal(Ideal(S3, []), 2, (1, 1, 1))
    assert tuple(res.reduced) == tuple(kernel_groebner_basis(3, 2))


def test_pullback_homogeneous_ci_variant():
    S2 = base_ring(2)
    I = Ideal(S2, [parse_polynomial("y1^2 - y2^2", S2)])
    res = pullback_homogeneous_ideal(I, 3, (2, 1), method="both")
    assert res.max_degree <= 2
    assert res.certificate["meets_bound"]
    assert res.certificate["initial_matches_monomial_pullback"]
    assert res.certificate["members_in_target"]
    R = veronese_ring(2, 3)
    lts = {g.leading_term(res.order)[0] for g in res.reduced}
    assert lts == {_mono(R, "x[3,0]"), _mono(R, "x[2,1]"), _mono(R, "x[1,2]^2")}


def test_pullback_oracle_equivalence_small():
    S3 = base_ring(3)
    I = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    for d in (2, 3):
        res = pullback_homogeneous_ideal(I, d, (2, 1, 1), method="both")
        assert res.max_degree <= 2


def test_initial_pullback_identity_small():
    # weight-initial of the preimage equals the preimage of the weight-initial
    S3 = base_ring(3)
    I = Ideal(S3, [parse_polynomial("y1^2 - y2*y3 + y3^2", S3)])
    order = GrevLex(3)
    omega = find_weight_vector(I, order)
    v = VeroneseMap(3, 2)
    weights = weight_pullback(omega, v)

    from veronese_gb.veronese import pullback_order
    up = preimage_oracle(I, v, pullback_order(v, omega))
    forms = [g.initial_form(weights) for g in up]
    lhs = buchberger(forms, v.order)

    init, monomial = I.initial_forms(omega)
    assert monomial
    rhs = preimage_oracle(Ideal(S3, init.generators), v)
    assert tuple(lhs) == tuple(rhs)


def test_quadratic_bound_and_degree_bounds():
    assert quadratic_pullback_bound(2, 2) == 3
    assert quadratic_pullback_bound(3, 2) == 5
    assert quadratic_pullback_bound(2, 1) == 2

    S2 = base_ring(2)
    rep = degree_bounds(MonomialIdeal.from_exponents(S2, [(2, 2)]))
    assert (rep.bound, rep.bound_raw) == (3, 3)
    assert rep.rival_rough == Fraction(7, 2)
    assert rep.rival_stated == 4
    assert rep.below_rough and rep.threshold

    rep1 = degree_bounds(MonomialIdeal.from_exponents(S2, [(1, 0)]))
    assert rep1.bound == 2
    assert rep1.rival_rough == Fraction(1, 2)
    assert rep1.rival_stated == 2
    assert not rep1.below_rough and not rep1.threshold

    S3 = base_ring(3)
    rep2 = degree_bounds(MonomialIdeal.from_exponents(S3, [(1, 1, 1)]))
    assert rep2.bound == 3
    assert rep2.rival_rough == Fraction(7, 2)
    assert rep2.below_rough and rep2.threshold

    with pytest.raises(DomainError):
        degree_bounds(MonomialIdeal(S2, ()))


def test_standard_monomials_enumeration():
    # degree-2 standard monomials at (2,3): ten quadratics minus three leads
    mons = list(standard_monomials(2, 3, 2))
    assert len(mons) == 7
    init = kernel_initial(2, 3)
    assert all(not init.contains(e) for e in mons)
