"""The Veronese map, kernel bases, pullbacks, and the degree bounds."""

import gc
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import suites
from reference import least_preimage, min_divisor_variable
from veronese_gb import cli, groebner, veronese
from veronese_gb.errors import (BudgetExceededError, DomainError,
                                InternalCheckError, NonMonomialInitialError,
                                RingMismatchError)
from veronese_gb.groebner import (Budget, GBStats, Ideal, MonomialIdeal,
                                  _reduce_basis, buchberger, eliminate,
                                  elimination_order, find_weight_vector,
                                  graph_ideal, is_groebner_basis)
from veronese_gb.orders import (Block, GammaRevLex, GrevLex, Weighted,
                                multi_indices)
from veronese_gb.polyring import (base_ring, generic_ring, parse_polynomial,
                                  veronese_ring)
from veronese_gb.toric import (Configuration, certify_grading,
                               toric_groebner_basis, veronese_layer)
from veronese_gb.veronese import (VeroneseMap, _constructive_pullback,
                                  _joint_graph_gb, _record_groebner_check,
                                  bound_certificate, degree_bounds,
                                  exchange_binomials,
                                  homogeneous_pullback_generators,
                                  kernel_groebner_basis, kernel_initial,
                                  kernel_oracle_basis,
                                  monomial_pullback_generators,
                                  preimage_oracle, pullback_homogeneous_ideal,
                                  pullback_monomial_ideal, pullback_order,
                                  quadratic_pullback_bound, standard_monomials,
                                  verify_exchange_basis, weight_pullback)


def _mono(ring, text):
    return next(iter(parse_polynomial(text, ring).terms))


def _conic():
    S3 = base_ring(3)
    return Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])


def _fraction_coeffs(polys):
    """Whether every coefficient is a Fraction (1 == Fraction(1) hides an
    int from dict equality)."""
    return all(type(c) is Fraction for g in polys for c in g.terms.values())


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
    assert min_divisor_variable(v, _mono(v.ring, "x[3,1]*x[1,3]")) == (2, 2)
    assert min_divisor_variable(v, _mono(v.ring, "x[0,4]")) == (0, 4)
    v3 = VeroneseMap(2, 3)
    assert min_divisor_variable(v3, _mono(v3.ring, "x[2,1]^2")) == (2, 1)
    with pytest.raises(DomainError):
        min_divisor_variable(v, v.ring.zero_exps)


def test_min_preimage_is_standard(rng):
    # the lift of a monomial is the standard monomial of its fiber
    v = VeroneseMap(3, 3)
    init = kernel_initial(3, 3)
    for _ in range(60):
        c = tuple(rng.randrange(4) for _ in range(3))
        total = sum(c)
        pad = (-total) % 3
        c = (c[0] + pad, c[1], c[2])
        u = least_preimage(v, c)
        assert v.image_exps(u) == c
        assert not init.contains(u)


def test_lift_refuses_another_ring_and_a_degree_off_d():
    # a polynomial of another ring is refused as image() refuses one, not
    # lifted by its exponents, and so is a term whose degree d does not
    # divide, also next to a term that lifts
    vmap = VeroneseMap(2, 2)
    assert vmap.lift(parse_polynomial("y1^2 - 2*y1*y2", vmap.base)) == \
        parse_polynomial("x[2,0] - 2*x[1,1]", vmap.ring)
    for ring, text in ((base_ring(3), "y1*y2"),
                       (generic_ring(("a", "b")), "a^2 - b^2"),
                       (base_ring(1), "y1^2")):
        with pytest.raises(RingMismatchError, match="base ring"):
            vmap.lift(parse_polynomial(text, ring))
    for text in ("y1", "y1^2 + y2^3", "y1^3*y2^2"):
        with pytest.raises(DomainError, match="multiple of d"):
            vmap.lift(parse_polynomial(text, vmap.base))
    with pytest.raises(DomainError, match="multiple of d"):
        VeroneseMap(3, 3).lift(parse_polynomial("y1", base_ring(3)))


def test_lift_far_past_the_table_bound_from_a_cold_table():
    # degree 2000 is far past the table's STANDARD_TABLE_SIZE keys; the
    # lower degrees are read first, in ascending order, so no table build
    # recurses more than one degree, where a read of degree 2000 alone
    # would recurse through every degree below it
    vmap = VeroneseMap(1, 2)
    veronese._standard_table.cache_clear()
    assert vmap.lift(parse_polynomial("y1^4000", vmap.base)) == \
        parse_polynomial("x[2]^2000", vmap.ring)


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

    # 10^4 candidate pairs over 101 variables, under MAX_EXCHANGE_WORK
    assert len(exchange_binomials(2, 100)) == 4950


def test_exchange_binomials_land_in_kernel():
    for s, d in ((2, 2), (2, 3), (3, 2)):
        v = VeroneseMap(s, d)
        assert all(not v.image(g) for g in exchange_binomials(s, d))


def test_verify_exchange_basis_small():
    for s, d in ((1, 7), (2, 2), (3, 2)):
        cert = verify_exchange_basis(s, d)
        assert cert["ok"], (s, d)


def test_kernel_matches_oracle():
    for s, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        vmap = VeroneseMap(s, d)
        # the kernel is the toric ideal of the degree-d multi-indices
        toric = toric_groebner_basis(multi_indices(s, d), ring=vmap.ring,
                                     order=vmap.order)
        assert kernel_groebner_basis(s, d) == kernel_oracle_basis(s, d) \
            == toric, (s, d)
        assert _fraction_coeffs(toric)


def test_kernel_basis_is_the_interreduced_exchange_set():
    # every shape up to (6, 6) that the exchange cap admits, an empty kernel
    # at s = 1 and at d = 1 included: the table's basis is the exchange
    # binomials' interreduction, element by element and term by term.  The
    # undecorated functions, so that no unbounded cache keeps the large
    # shapes for the tests after this one.
    admitted, refused = 0, []
    for s in range(1, 7):
        for d in range(1, 7):
            try:
                got = kernel_groebner_basis.__wrapped__(s, d)
            except DomainError:
                with pytest.raises(DomainError):
                    exchange_binomials.__wrapped__(s, d)
                refused.append((s, d))
                continue
            order = VeroneseMap(s, d).order
            want = _reduce_basis(list(exchange_binomials.__wrapped__(s, d)),
                                 order)
            assert got == want, (s, d)
            assert [list(g.terms.items()) for g in got] == \
                [list(g.terms.items()) for g in want], (s, d)
            assert _fraction_coeffs(got), (s, d)
            assert (got == ()) == (s == 1 or d == 1), (s, d)
            admitted += 1
    assert admitted == 33 and refused == [(5, 6), (6, 5), (6, 6)]


def test_kernel_basis_refuses_what_the_exchange_cap_refuses(monkeypatch):
    # (2, 300) has 301 variables and 90,000 candidate exchange pairs; the
    # cap refuses it before any standard-monomial table is read
    def no_table(*key):
        raise AssertionError(f"table {key} read past the cap")

    monkeypatch.setattr(veronese, "_standard_table", no_table)
    with pytest.raises(DomainError, match="past the cap") as table_route:
        kernel_groebner_basis(2, 300)
    with pytest.raises(DomainError) as exchange_route:
        exchange_binomials(2, 300)
    assert str(table_route.value) == str(exchange_route.value)


@pytest.mark.parametrize("route", [
    lambda: VeroneseMap(2, 300),
    lambda: exchange_binomials(2, 300),
    lambda: kernel_oracle_basis(2, 300),
    lambda: _joint_graph_gb(2, 300),
    lambda: list(standard_monomials(2, 300, 2)),
    lambda: preimage_oracle(_base2_ideal("y1^3"), VeroneseMap(2, 300)),
], ids=["map", "exchange", "oracle-basis", "joint-graph", "standard-monomials",
        "preimage-oracle"])
def test_every_library_route_refuses_the_shape_past_the_exchange_cap(
        route, monkeypatch):
    # building the map is where a shape is admitted, so a library route
    # that no caller checks first is refused before any Groebner basis too
    def no_work(*_, **__):
        raise AssertionError("Buchberger started past the cap")

    for owner in (groebner, veronese):
        monkeypatch.setattr(owner, "buchberger", no_work)
    with pytest.raises(DomainError, match="past the cap"):
        route()


def test_weighted_and_toric_routes_refuse_the_shape_before_any_lift(
        monkeypatch):
    # (3, 120) has 7,381 variables, under the ring cap, and the exchange cap
    # refuses it; neither route lifts a padded multiple or computes a toric
    # kernel first
    from veronese_gb import toric

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the exchange cap refused")

    monkeypatch.setattr(VeroneseMap, "lift", no_work)
    monkeypatch.setattr(toric, "toric_ideal", no_work)
    with pytest.raises(DomainError, match="past the cap"):
        pullback_homogeneous_ideal(_conic(), 120, (2, 1, 1))
    with pytest.raises(DomainError, match="past the cap"):
        toric.verify_veronese_toric(
            Configuration.from_points([(1, 0), (1, 1), (1, 2)]), 120)


def test_exchange_certificate_compares_three_routes(monkeypatch):
    # the exchange set still passes the closure check, but a kernel basis
    # that lost an element disagrees with its interreduction and the oracle
    full = kernel_groebner_basis(3, 2)
    monkeypatch.setattr(veronese, "kernel_groebner_basis",
                        lambda s, d: full[1:])
    cert = verify_exchange_basis(3, 2)
    assert cert["in_kernel"] and cert["is_groebner"]
    assert not cert["matches_oracle"] and not cert["ok"]


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
    # the table's peel-smallest-divisor rule really finds the order minimum,
    # and lift reads it, one term at a time
    for s, d in ((2, 3), (3, 2)):
        vmap = VeroneseMap(s, d)
        for _ in range(25):
            k = rng.randrange(1, 4)
            c = [0] * s
            for _ in range(k * d):
                c[rng.randrange(s)] += 1
            c = tuple(c)
            assert least_preimage(vmap, c) == \
                _brute_force_min_preimage(vmap, c)


def test_standard_monomial_generators_examples():
    S2 = base_ring(2)

    # square of a square at degree three
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    gens = monomial_pullback_generators(M, 3)
    R = veronese_ring(2, 3)
    assert pullback_monomial_ideal(M, 3).certificate["complete"]
    assert set(gens) == {_mono(R, "x[2,1]^2"), _mono(R, "x[2,1]*x[1,2]"),
                         _mono(R, "x[2,1]*x[0,3]")}

    # a single variable at degree two
    M1 = MonomialIdeal.from_exponents(S2, [(1, 0)])
    gens1 = monomial_pullback_generators(M1, 2)
    R2 = veronese_ring(2, 2)
    assert pullback_monomial_ideal(M1, 2).certificate["complete"]
    assert set(gens1) == {_mono(R2, "x[2,0]"), _mono(R2, "x[1,1]")}

    # the maximal ideal pulls back to every variable
    S3 = base_ring(3)
    Mmax = MonomialIdeal.from_exponents(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    gens_max = monomial_pullback_generators(Mmax, 2)
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
    assert _fraction_coeffs(res.reduced)

    M1 = MonomialIdeal.from_exponents(S2, [(1, 0)])
    res1 = pullback_monomial_ideal(M1, 2)
    assert res1.max_degree == 2
    R2 = veronese_ring(2, 2)
    assert set(res1.reduced) == {parse_polynomial("x[2,0]", R2),
                                 parse_polynomial("x[1,1]", R2)}

    for s, d in ((2, 2), (2, 3), (3, 2)):
        for method in ("constructive", "both"):
            zero = pullback_monomial_ideal(MonomialIdeal(base_ring(s), ()), d,
                                           method=method)
            assert zero.groebner_basis == exchange_binomials(s, d)
            assert zero.reduced == kernel_groebner_basis(s, d)
            assert _fraction_coeffs(zero.reduced)
            # "both" compares the kernel with the oracle's preimage of zero
            assert zero.certificate.get("matches_oracle") is \
                (True if method == "both" else None)


def test_pullback_monomial_below_bound_uses_oracle():
    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])  # bound is 3
    res = pullback_monomial_ideal(M, 2)
    assert not res.certificate["meets_bound"]
    assert res.certificate["complete"]
    assert res.certificate["matches_oracle"]


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
    assert res.certificate["complete"] and res.certificate["matches_oracle"]

    monkeypatch.setattr(veronese, "preimage_oracle", lambda *a, **k: ())
    with pytest.raises(InternalCheckError, match="disagree"):
        pullback_monomial_ideal(M, 3, method="both")


@pytest.mark.parametrize("g, inside", [
    ("x[1,1]^2 - x[2,0]*x[0,2]", True),     # a kernel binomial: image zero
    ("x[2,0]", True),
    ("x[0,2]", False),
    ("x[2,0] + x[0,2]", False),
    ("x[1,1]*x[2,0] - x[1,1]^2", True),
    ("x[1,1]*x[0,2] - x[1,1]^2", False),
])
def test_maps_into_monomial(g, inside):
    vmap = VeroneseMap(2, 2)
    ideal = MonomialIdeal.from_exponents(vmap.base, [(2, 0)])
    assert veronese._maps_into_monomial(
        vmap, parse_polynomial(g, vmap.ring), ideal) is inside


def test_pullback_monomial_verify_spairs():
    S2 = base_ring(2)
    M = MonomialIdeal.from_exponents(S2, [(2, 2)])
    res = pullback_monomial_ideal(M, 3, verify=True)
    assert res.certificate["is_groebner"]
    # (y1^2*y2, y3^2) at (3,3): the S-pairs of the 19-element reduced basis,
    # where the 47-element union has 328
    M = MonomialIdeal.from_exponents(base_ring(3), [(2, 1, 0), (0, 0, 2)])
    res = pullback_monomial_ideal(M, 3, verify=True)
    assert res.certificate["is_groebner"]
    assert res.certificate["spairs_checked"] == 47


def _certify(basis, reduced, order):
    cert = {}
    _record_groebner_check(cert, basis, reduced, order, Budget())
    return cert["is_groebner"]


def test_groebner_check_needs_the_basis_inside_its_reduction():
    # y1^2 - y2^2 and y1^2 share a leading term, so minimalizing keeps only
    # the first, a Gröbner basis alone; y1^2 does not reduce to zero on it
    S2, order = base_ring(2), GrevLex(2)
    basis = [parse_polynomial(g, S2) for g in ("y1^2 - y2^2", "y1^2")]
    reduced = _reduce_basis(basis, order)
    assert reduced == (basis[0],)
    assert is_groebner_basis(reduced, order).ok
    assert not is_groebner_basis(basis, order).ok
    assert not _certify(basis, reduced, order)


def test_groebner_check_needs_the_reduction_leading_terms_from_the_basis():
    # every element reduces to zero on [1], a Gröbner basis, but the leading
    # term 1 is a multiple of no leading term of the basis
    S2, order = base_ring(2), GrevLex(2)
    basis = [parse_polynomial(g, S2) for g in ("y1^2 - y2^2", "y1^2")]
    assert not _certify(basis, [S2.monomial((0, 0))], order)


def test_groebner_check_of_its_own_reduction_needs_the_spair_test():
    # each element of the basis is an element of the reduction, so none is
    # reduced on it, and the verdict rests on the S-pair test, which fails:
    # y1^2 - y2 and y1*y2 - 1 leave y1 - y2^2
    S2, order = base_ring(2), GrevLex(2)
    basis = [parse_polynomial(g, S2) for g in ("y1^2 - y2", "y1*y2 - 1")]
    assert not is_groebner_basis(basis, order).ok
    assert not _certify(basis, basis, order)


def test_groebner_check_of_a_pullback_equals_the_union_check(rng):
    # each pullback's union, and the union of the exchange binomials with
    # the generators of degree at most 2, which below the bound can miss
    # generators and then need not be a Gröbner basis
    verdicts = []
    for s, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        vmap = VeroneseMap(s, d)
        for _ in range(6):
            gens = [tuple(rng.randint(0, 3) for _ in range(s))
                    for _ in range(rng.randint(1, 2))]
            M = MonomialIdeal.from_exponents(
                base_ring(s), [g for g in gens if any(g)] or [(1,) * s])
            res = pullback_monomial_ideal(M, d, verify=True)
            union = is_groebner_basis(res.groebner_basis, res.order).ok
            assert res.certificate["is_groebner"] == union, (M.gens, d)
            capped = exchange_binomials(s, d) + tuple(
                vmap.ring.monomial(e)
                for e in monomial_pullback_generators(M, d, 2))
            union = is_groebner_basis(capped, vmap.order).ok
            assert _certify(capped, _reduce_basis(list(capped), vmap.order),
                            vmap.order) == union, (M.gens, d)
            verdicts.append(union)
    assert False in verdicts


def _warm_shape_caches(s, d):
    """Fills the shape caches, which run on a budget of their own."""
    _joint_graph_gb(s, d)
    kernel_initial(s, d)


def test_one_default_budget_per_pullback_call(monkeypatch):
    # the oracle run takes 25 S-pairs and the verification 7: a cap of 25
    # covers each step but not the call
    M = MonomialIdeal.from_exponents(base_ring(2), [(3, 1), (0, 3)])
    _warm_shape_caches(2, 2)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "25")
    with pytest.raises(BudgetExceededError):
        pullback_monomial_ideal(M, 2, verify=True)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "32")
    res = pullback_monomial_ideal(M, 2, verify=True)
    assert res.certificate["is_groebner"]


def test_one_default_budget_per_oracle_call(monkeypatch):
    # one elimination of 14 S-pairs, under the weighted block order
    S3 = base_ring(3)
    ideal = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    vmap = VeroneseMap(3, 2)
    _warm_shape_caches(3, 2)
    monkeypatch.setenv("VERONESE_GB_BUDGET", "13")
    with pytest.raises(BudgetExceededError):
        preimage_oracle(ideal, vmap, (2, 1, 1))
    monkeypatch.setenv("VERONESE_GB_BUDGET", "14")
    assert preimage_oracle(ideal, vmap, (2, 1, 1))


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


@pytest.mark.parametrize("method", ["constructive", "oracle", "both"])
def test_unit_ideal_pulls_back_to_the_unit_ideal(method):
    # the constant monomial's image, the origin, lies in <1>, so the
    # pullback is <1> on both routes and from the elimination oracle, and
    # the degree-0 standard monomial is the generator the monomial pullback
    # reads
    S2, vmap = base_ring(2), VeroneseMap(2, 2)
    R2 = vmap.ring
    unit = MonomialIdeal.from_exponents(S2, [(0, 0)])
    homogeneous = Ideal(S2, [parse_polynomial(g, S2) for g in ("y1 - y2", "1")])
    if method == "oracle":
        assert tuple(preimage_oracle(Ideal(S2, unit.polynomials()),
                                     vmap)) == (R2.one,)
        assert tuple(preimage_oracle(homogeneous, vmap, (1, 1))) == (R2.one,)
        return
    assert monomial_pullback_generators(unit, 2) == ((0, 0, 0),)
    res = pullback_monomial_ideal(unit, 2, verify=True, method=method)
    assert res.reduced == (R2.one,)
    assert res.certificate.get("matches_oracle", True)
    assert res.certificate["is_groebner"]
    res = pullback_homogeneous_ideal(homogeneous, 2, method=method,
                                     verify=True)
    assert tuple(res.reduced) == (R2.one,)
    assert res.certificate["initial_matches_monomial_pullback"]
    assert res.certificate["is_groebner"]


def test_pullback_homogeneous_derives_the_weights():
    # without omega the weights come from the default order, and the result
    # is the one those weights give when passed in
    S3 = base_ring(3)
    conic = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    derived = pullback_homogeneous_ideal(conic, 2)
    given = pullback_homogeneous_ideal(conic, 2, (2, 1, 1))
    assert derived.omega == given.omega == (2, 1, 1) == find_weight_vector(
        conic, S3.default_order())
    assert derived.reduced == given.reduced
    assert derived.certificate == given.certificate
    mono = MonomialIdeal.from_exponents(S3, [(2, 0, 0)])
    assert pullback_monomial_ideal(mono, 2).omega is None


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
    assert _fraction_coeffs(res.reduced)


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

    up = preimage_oracle(I, v, omega)
    forms = [g.initial_form(weights) for g in up]
    lhs = buchberger(forms, v.order)

    init, monomial = I.initial_forms(omega)
    assert monomial
    rhs = preimage_oracle(Ideal(S3, init.generators), v)
    assert tuple(lhs) == tuple(rhs)


# Below-bound monomial ideals by (s, d): the first generators' degrees are at
# most d, so each is padded to degree d exactly; the second's pullback has
# generators of degree 3 or more.
BELOW_BOUND_IDEALS = {
    (3, 2): ([(1, 0, 1)], [(0, 2, 1), (2, 0, 1)]),
    (3, 3): ([(2, 1, 0)], [(2, 3, 0), (1, 3, 3)]),
    (4, 2): ([(0, 1, 0, 1)], [(1, 2, 1, 0), (2, 1, 2, 2)]),
    (2, 4): ([(4, 0)], [(5, 4)]),
}


def _below_bound_draw(rng, s, d, top=None):
    """A seeded monomial ideal with one to three generators, with exponents
    up to ``top`` (5 - s // 2 by default), whose quadratic bound d does not
    meet."""
    top = 5 - s // 2 if top is None else top
    while True:
        gens = [tuple(rng.randint(0, top) for _ in range(s))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if gens:
            ideal = MonomialIdeal.from_exponents(base_ring(s), gens)
            if not bound_certificate(ideal, d)["meets_bound"]:
                return ideal


def test_constructive_step_pulls_back_below_bound_monomial_ideals(rng):
    # the kernel basis with the lifted padded multiples of the generators,
    # completed by Buchberger, is the reduced basis the elimination and the
    # oracle-capped monomial route give
    padded_once = above_quadratic = 0
    for (s, d), fixed in BELOW_BOUND_IDEALS.items():
        vmap = VeroneseMap(s, d)
        ideals = [MonomialIdeal.from_exponents(base_ring(s), gens)
                  for gens in fixed]
        ideals += [_below_bound_draw(rng, s, d) for _ in range(4)]
        for mono in ideals:
            assert not bound_certificate(mono, d)["meets_bound"]
            ideal = Ideal(mono.ring, mono.polynomials())
            got = _constructive_pullback(mono.polynomials(), vmap,
                                         vmap.order, Budget())
            assert got == preimage_oracle(ideal, vmap), (s, d, mono.gens)
            assert got == pullback_monomial_ideal(mono, d).reduced
            padded_once += mono.max_total_degree() <= d
            above_quadratic += max(g.total_degree() for g in got) > 2
    assert padded_once >= 4 and above_quadratic >= 4


def _table_pullback(mono, d, cap):
    """The kernel's leading-term ideal and the table's generators over a
    monomial ideal up to the degree cap."""
    s = mono.ring.s
    return MonomialIdeal.from_exponents(
        VeroneseMap(s, d).ring, kernel_initial(s, d).gens
        + monomial_pullback_generators(mono, d, degree_cap=cap))


def test_table_reads_below_bound_monomial_pullbacks(rng):
    # below the bound, the table's generators up to max(2, delta), delta the
    # largest degree of a minimal generator, give the leading-term ideal of
    # the pullback that the constructive step and the oracle compute, and
    # the certificate of the ideal pulled back as a homogeneous one holds
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
    for k in range(30):
        s, d = shapes[k % len(shapes)]
        mono = _below_bound_draw(rng, s, d, top=3)
        vmap, ideal = VeroneseMap(s, d), Ideal(mono.ring, mono.polynomials())
        table = _table_pullback(mono, d, max(2, mono.max_total_degree()))
        step = _constructive_pullback(mono.polynomials(), vmap, vmap.order,
                                      Budget())
        for basis in (step, preimage_oracle(ideal, vmap)):
            assert table == MonomialIdeal.of_leading_terms(
                vmap.ring, basis, vmap.order), (s, d, mono.gens)
        res = pullback_homogeneous_ideal(ideal, d, (1,) * s)
        assert res.certificate["initial_matches_monomial_pullback"]
    # y1^3 at d = 2: x11^3 maps to y1^3*y2^3 and is standard, and no
    # quadratic divisor of it maps into the ideal, so a cap of 2 misses it
    mono = MonomialIdeal.from_exponents(base_ring(2), [(3, 0)])
    assert not bound_certificate(mono, 2)["meets_bound"]
    low, table = _table_pullback(mono, 2, 2), _table_pullback(mono, 2, 3)
    assert low != table and all(table.contains(g) for g in low.gens)
    res = pullback_homogeneous_ideal(Ideal(mono.ring, mono.polynomials()), 2,
                                     (1, 1))
    assert res.certificate["initial_matches_monomial_pullback"]


def test_reduced_pullback_is_the_interreduced_union(rng):
    # the basis assembled from the kernel table is _reduce_basis of the
    # exchange binomials and the generators, at the cap the pullback takes:
    # 2 at and above the bound, max(2, delta) below it; the unit ideal's
    # degree-0 generator divides every kernel element's leading term
    meets = []
    for s, d in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
                 (4, 2)):
        vmap = VeroneseMap(s, d)
        ideals = [MonomialIdeal.from_exponents(base_ring(s), [(0,) * s])]
        while len(ideals) < 9:
            gens = [tuple(rng.randint(0, 3) for _ in range(s))
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if any(g)]
            if gens:
                ideals.append(MonomialIdeal.from_exponents(base_ring(s), gens))
        for mono in ideals:
            at_bound = bound_certificate(mono, d)["meets_bound"]
            cap = 2 if at_bound else max(2, mono.max_total_degree())
            gens = monomial_pullback_generators(mono, d, cap)
            monomials = tuple(vmap.ring.monomial(e) for e in gens)
            got = veronese._reduced_pullback(vmap, mono, gens, monomials)
            assert got == _reduce_basis(
                list(exchange_binomials(s, d) + monomials), vmap.order), \
                (s, d, mono.gens)
            assert _fraction_coeffs(got)
            if not any(mono.gens[0]):
                assert got == (vmap.ring.one,)
            if at_bound:
                # no oracle runs at the bound
                assert pullback_monomial_ideal(mono, d).reduced == got
            meets.append(at_bound)
    assert meets.count(False) >= 20 and meets.count(True) >= 20


def test_degree_bounds_odd_delta_verdict():
    # y1^2*y2: delta 3 is odd, and s(a+1)/2 = 3 <= s*ceil(delta/2) = 4
    rep = degree_bounds(MonomialIdeal.from_exponents(base_ring(2), [(2, 1)]))
    assert (rep.bound_raw, rep.rival_stated) == (3, 4)
    assert rep.verdicts == {"below_rough": False, "threshold_condition": False,
                            "odd_delta_not_above_stated": True}


@pytest.mark.parametrize("call", [
    lambda: VeroneseMap(0, 2),
    lambda: veronese_layer(Configuration.from_points([(1, 0), (0, 1)]), 0),
    lambda: certify_grading([(1, 0), (1,)]),
    lambda: toric_groebner_basis([(1, 0), (1, 1), (1, 2)], ring=base_ring(2)),
    lambda: pullback_homogeneous_ideal(
        Ideal(generic_ring(("a", "b")), []), 2, (1, 1)),
    lambda: pullback_homogeneous_ideal(
        Ideal(base_ring(2), [base_ring(2).monomial((1, 1))]), 2, (1,)),
    lambda: monomial_pullback_generators(MonomialIdeal(base_ring(2), ()), 2),
    lambda: monomial_pullback_generators(
        MonomialIdeal.from_exponents(base_ring(2), [(1, 1)]), 2, degree_cap=0),
    lambda: weight_pullback((1, 1, 1), VeroneseMap(2, 2)),
    lambda: pullback_homogeneous_ideal(
        Ideal(base_ring(2), [base_ring(2).monomial((1, 1))]), 2, (1, 1),
        method="bogus"),
    lambda: pullback_monomial_ideal(
        MonomialIdeal.from_exponents(base_ring(2), [(1, 1)]), 2,
        method="bogus"),
    lambda: pullback_monomial_ideal(
        MonomialIdeal.from_exponents(veronese_ring(2, 2), [(2, 0, 0)]), 6),
    lambda: pullback_monomial_ideal(
        MonomialIdeal.from_exponents(generic_ring(("a", "b")), [(2, 0)]), 2),
    lambda: monomial_pullback_generators(
        MonomialIdeal.from_exponents(veronese_ring(2, 2), [(2, 0, 0)]), 2),
    lambda: pullback_homogeneous_ideal(
        Ideal(veronese_ring(2, 2), [veronese_ring(2, 2).monomial((1, 1, 0))]),
        2, (1, 1)),
    lambda: pullback_homogeneous_ideal(_conic(), 2, (2.5, 1, 1)),
    lambda: preimage_oracle(_conic(), VeroneseMap(3, 2), (1, 1)),
    lambda: preimage_oracle(_conic(), VeroneseMap(3, 2), (2.5, 1, 1)),
    lambda: preimage_oracle(_conic(), VeroneseMap(3, 2), (-1, 1, 1)),
], ids=["veronese-map-s0", "layer-d0", "grading-unequal-dims",
        "toric-ring-mismatch", "homogeneous-non-base-ring",
        "homogeneous-omega-length", "generators-zero-ideal",
        "generators-cap-0", "weight-pullback-length",
        "homogeneous-unknown-method", "monomial-unknown-method",
        "monomial-veronese-ring", "monomial-generic-ring",
        "generators-veronese-ring", "homogeneous-veronese-ring",
        "homogeneous-omega-fraction", "oracle-omega-length",
        "oracle-omega-fraction", "oracle-omega-negative"])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("pullback", [
    lambda method: pullback_monomial_ideal(
        MonomialIdeal.from_exponents(base_ring(2), [(1, 1)]), 2, method=method),
    lambda method: pullback_homogeneous_ideal(
        Ideal(base_ring(2), [base_ring(2).monomial((1, 1))]), 2, (1, 1),
        method=method),
], ids=["monomial", "homogeneous"])
def test_pullbacks_refuse_the_oracle_method(pullback):
    # both return the constructive basis; "both" checks it against the
    # elimination oracle
    with pytest.raises(DomainError, match="constructive, both, got 'oracle'"):
        pullback("oracle")


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


def test_degree_bounds_count_the_variables_of_the_ideals_ring():
    # a cube in the three variables of R_2 at d = 2 has the bounds of a cube
    # in any three-variable ring, not those of the base ring's s = 2
    cube = [(3, 0, 0)]
    rd = degree_bounds(MonomialIdeal.from_exponents(veronese_ring(2, 2), cube))
    generic = degree_bounds(MonomialIdeal.from_exponents(
        generic_ring(["a", "b", "c"]), cube))
    assert (rd.s, rd.bound) == (3, 6)
    assert rd == generic


def test_standard_monomials_enumeration():
    # degree-2 standard monomials at (2,3): ten quadratics minus three leads
    mons = list(standard_monomials(2, 3, 2))
    assert len(mons) == 7
    init = kernel_initial(2, 3)
    assert all(not init.contains(e) for e in mons)
    with pytest.raises(DomainError):
        list(standard_monomials(2, 3, -1))


def test_standard_monomials_of_a_high_degree_called_directly():
    # every degree below is a table miss, and the degree-1200 table at s = 1
    # still takes well under a second; s = 2 recursed past the interpreter's
    # limit at the same degree
    from veronese_gb import veronese
    veronese._standard_table.cache_clear()
    assert list(standard_monomials(1, 3, 1200)) == [(1200,)]
    assert list(standard_monomials(1, 3, 2500)) == [(2500,)]


@lru_cache(maxsize=None)
def _exchange_initial_gens(s, d):
    """Leading terms of the interreduced exchange binomials: the kernel's
    initial ideal by a route that reads no standard-monomial table, which
    ``kernel_groebner_basis`` does."""
    order = VeroneseMap(s, d).order
    return tuple(g.leading_term(order)[0] for g in
                 _reduce_basis(list(exchange_binomials(s, d)), order))


def _standard_monomials_reference(s, d, degree):
    """Every degree-``degree`` monomial in ascending position order, kept
    when no minimal generator of the initial ideal divides it."""
    gens = _exchange_initial_gens(s, d)
    n = VeroneseMap(s, d).ring.nvars
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        if not any(all(x <= y for x, y in zip(g, e)) for g in gens):
            out.append(tuple(e))
    return out


def test_standard_monomials_match_exhaustive_filter():
    # up to the degrees that pullbacks below the quadratic bound reach; each
    # entry is the least monomial of its fiber
    from veronese_gb import veronese
    shapes = ((2, 3, 4), (2, 6, 6), (3, 3, 5), (4, 2, 7), (5, 2, 4))
    enumerations = multi_indices.cache_info().currsize
    for s, d, top in shapes:
        vmap = VeroneseMap(s, d)
        for degree in range(top + 1):
            table = veronese._standard_table(s, d, degree)
            mons, images = tuple(table.values()), tuple(table)
            assert list(standard_monomials(s, d, degree)) == list(mons) == \
                _standard_monomials_reference(s, d, degree), (s, d, degree)
            assert images == tuple(vmap.image_exps(e) for e in mons)
            # the brute force walks every monomial of each fiber, which at
            # (4, 2) past degree 5 would be most of the test's time
            assert degree > 5 or all(
                _brute_force_min_preimage(vmap, c) == e
                for e, c in zip(mons, images)), (s, d, degree)
    # the tables enumerate base monomials past multi_indices' unbounded
    # cache; only the shapes' own (s, d) and (s, d - 1) keys may land in it
    assert multi_indices.cache_info().currsize <= \
        enumerations + 2 * len(shapes)


def _pullback_generators_reference(ideal, d, cap):
    """Every monomial of degree 1..cap in ascending position order, dropped
    when in the kernel's initial ideal, kept when its image lies in the ideal
    and no kept monomial divides it."""
    s = ideal.ring.s
    vmap = VeroneseMap(s, d)
    kernel_gens = _exchange_initial_gens(s, d)
    kept = []
    for degree in range(1, cap + 1):
        for combo in combinations_with_replacement(range(vmap.ring.nvars),
                                                   degree):
            e = [0] * vmap.ring.nvars
            for i in combo:
                e[i] += 1
            e = tuple(e)
            if any(all(x <= y for x, y in zip(g, e))
                   for g in kernel_gens + tuple(kept)):
                continue
            if ideal.contains(vmap.image_exps(e)):
                kept.append(e)
    return tuple(kept)


# two monomial ideals per base ring, by their generators' exponents
PULLBACK_TABLE_IDEALS = {
    2: ([(2, 1)], [(0, 3), (1, 1)]),
    3: ([(2, 1, 0), (0, 0, 2)], [(1, 1, 1)]),
    4: ([(1, 0, 0, 2)], [(0, 3, 0, 0), (1, 0, 1, 0)]),
}


@pytest.mark.parametrize("s,d", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_pullback_generators_enumerate_each_shape_once(s, d):
    # a second pullback of the same shape and cap, with another ideal, reads
    # its standard monomials from the table the first one filled, so it
    # builds no table entry
    from veronese_gb import veronese
    table = veronese._standard_table
    first, second = (MonomialIdeal.from_exponents(base_ring(s), gens)
                     for gens in PULLBACK_TABLE_IDEALS[s])
    want = {(ideal, cap): _pullback_generators_reference(ideal, d, cap)
            for ideal in (first, second) for cap in range(1, 5)}
    for cap in range(1, 5):
        gens = monomial_pullback_generators(first, d, degree_cap=cap)
        assert gens == want[first, cap], cap
        misses = table.cache_info().misses
        gens = monomial_pullback_generators(second, d, degree_cap=cap)
        assert gens == want[second, cap], cap
        assert table.cache_info().misses == misses, cap


def test_standard_monomial_table_is_bounded():
    from veronese_gb import veronese
    table = veronese._standard_table
    table.cache_clear()
    size = table.cache_info().maxsize
    assert size == veronese.STANDARD_TABLE_SIZE
    keys = [(2, d, degree) for d in range(1, size) for degree in range(3)]
    keys = keys[:size + 5]
    assert len(keys) == size + 5
    for key in keys:
        list(standard_monomials(*key))
        assert table.cache_info().currsize <= size, key
    assert table.cache_info().currsize == size
    # the least recently used key was evicted and rebuilds on the next call
    misses = table.cache_info().misses
    assert list(standard_monomials(*keys[0])) == \
        _standard_monomials_reference(*keys[0])
    assert table.cache_info().misses == misses + 1


def _graph_run(s, d):
    """The unseeded elimination run behind the kernel oracle."""
    vmap = VeroneseMap(s, d)
    _, gens = graph_ideal(vmap.ring.indices, vmap.ring)
    return gens, Block(s, GrevLex(s), vmap.order), None


def _seeded_oracle_run(s, d, *base_gens):
    """The run ``preimage_oracle`` makes: the base generators embedded next
    to the graph generators, seeded with the graph ideal's basis."""
    vmap = VeroneseMap(s, d)
    joint, gens = graph_ideal(vmap.ring.indices, vmap.ring)
    position_map = list(range(s)) + [-1] * vmap.ring.nvars
    embedded = [parse_polynomial(g, vmap.base).map_positions(joint, position_map)
                for g in base_gens]
    return (embedded + gens, Block(s, GrevLex(s), vmap.order),
            list(_joint_graph_gb(s, d)))


def _seeded_weighted_run(d):
    """The constructive weighted pullback of a conic, seeded with the kernel
    basis."""
    vmap = VeroneseMap(3, d)
    conic = Ideal(vmap.base, [parse_polynomial("y1^2 - y2*y3", vmap.base)])
    omega = (2, 1, 1)
    source = conic.groebner_basis(Weighted(omega, vmap.base.default_order()))
    return (homogeneous_pullback_generators(source, vmap),
            pullback_order(vmap, omega), list(kernel_groebner_basis(3, d)))


def _weighted_oracle_run(s, d, omega, *base_gens):
    """The run ``preimage_oracle`` makes for base weights ``omega``: the
    seeded run under the pullback order's elimination order, graded by
    deg y = 1, deg x = d."""
    gens, _, seed = _seeded_oracle_run(s, d, *base_gens)
    vmap = VeroneseMap(s, d)
    return (gens, Block(s, GrevLex(s), pullback_order(vmap, omega)), seed,
            (1,) * s + (d,) * vmap.ring.nvars)


def _captured_run(call, *args):
    """The generators, order, seed and grading of the one Buchberger run
    that the call makes."""
    runs = []

    def capture(gens, order, **kwargs):
        runs.append((list(gens), order, kwargs["seed_gb"], kwargs["grading"]))
        return buchberger(gens, order, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "buchberger", capture)
        call(*args)
    (run,) = runs
    return run


def _cli_run(*argv):
    """The run behind a CLI command, on a file in tests/data."""
    args = cli.build_parser().parse_args(
        [str(Path(__file__).parent / "data" / a) if a.endswith(".json")
         else a for a in argv])
    return _captured_run(args.fn, args, Budget())


# (spairs, skipped_coprime, skipped_chain, basis_peak, output size) of the
# Buchberger runs behind the oracles and the weighted pullbacks; a change to
# pair selection, to either criterion or to the bookkeeping of seeded pairs
# moves them
BUCHBERGER_COUNTERS = {
    "2-3": (_graph_run, (2, 3), (31, 36, 24, 14, 10)),
    "2-6": (_graph_run, (2, 6), (412, 1181, 1488, 79, 28)),
    "3-3": (_graph_run, (3, 3), (1123, 10440, 11657, 216, 52)),
    "4-2": (_graph_run, (4, 2), (380, 3050, 1226, 97, 50)),
    # the cli-cold certification shapes
    "5-2": (_graph_run, (5, 2), (1387, 23831, 7935, 258, 105)),
    "2-8": (_graph_run, (2, 8), (1156, 5575, 6964, 166, 45)),
    "seeded-2-2": (_seeded_oracle_run, (2, 2, "y1^3"), (14, 23, 14, 12, 10)),
    "seeded-2-3": (_seeded_oracle_run, (2, 3, "y1^2*y2", "y2^3"),
                   (11, 31, 4, 14, 11)),
    "seeded-3-3": (_seeded_oracle_run, (3, 3, "y1^2*y2", "y3^3"),
                   (191, 1044, 140, 74, 63)),
    "seeded-4-2": (_seeded_oracle_run, (4, 2, "y1*y2*y3"),
                   (56, 649, 215, 66, 55)),
    "weighted-2": (_seeded_weighted_run, (2,), (9, 21, 0, 10, 7)),
    "weighted-3": (_seeded_weighted_run, (3,), (27, 144, 6, 33, 18)),
    # (81, 656, 82, 66, 27) without the grading
    "weighted-oracle-3-3": (_weighted_oracle_run,
                            (3, 3, (2, 1, 1), "y1^2", "y1*y3 - y2*y3"),
                            (58, 465, 42, 62, 27)),
    # the toric kernel's elimination and gbasis --eliminate, of whose
    # counters the digests pin only spairs_used; the output is the whole
    # basis in the joint ring
    "toric-curve": (_cli_run, ("toric", "curve_config.json"), (2, 4, 0, 4, 4)),
    "elim-curve-block-1": (_cli_run, ("gbasis", "elim_curve.json", "--order",
                                      "block:1", "--eliminate"),
                           (0, 1, 0, 2, 2)),
    # points with a negative coordinate are shifted before the elimination
    "toric-shifted": (_captured_run,
                      (toric_groebner_basis, ((1, -1, 2), (1, 0, 1),
                                              (1, 2, -1), (1, 1, 0),
                                              (1, 0, 0))),
                      (206, 606, 958, 60, 17)),
}


@pytest.mark.parametrize("case", BUCHBERGER_COUNTERS)
def test_graph_ideal_buchberger_counters(case):
    build, args, expected = BUCHBERGER_COUNTERS[case]
    # only the weighted oracle's run comes with a grading
    gens, order, seed, *grading = build(*args)
    grading = grading[0] if grading else None
    runs = [(order, seed)]
    if build in (_seeded_oracle_run, _weighted_oracle_run):
        # twice more from the oracle's context of the shape: the copied seed
        # index, and the second time every order key from the memo
        omega = args[2] if build is _weighted_oracle_run else None
        index = veronese._oracle_context(args[0], args[1], omega).index
        runs += [(index.order, index)] * 2
    bases = set()
    for order, seed in runs:
        stats = GBStats()
        gb = buchberger(gens, order, seed_gb=seed, stats=stats,
                        grading=grading)
        assert (stats.spairs, stats.skipped_coprime, stats.skipped_chain,
                stats.basis_peak, len(gb)) == expected
        bases.add(gb)
    assert len(bases) == 1


@pytest.mark.parametrize("s, d, gens, spairs", [
    (2, 2, ["y1^3"], 14),
    (2, 3, ["y1^2*y2", "y2^3"], 11),
    (3, 3, ["y1^2*y2", "y3^3"], 191),
    (4, 2, ["y1*y2*y3"], 56),
], ids=["2-2", "2-3", "3-3", "4-2"])
def test_seeded_preimage_oracle_spairs(s, d, gens, spairs):
    S = base_ring(s)
    ideal = Ideal(S, [parse_polynomial(g, S) for g in gens])
    cold, warm = Budget(), Budget()
    gb = preimage_oracle(ideal, VeroneseMap(s, d), budget=cold)
    assert cold.spairs == spairs
    # the same elimination again, from the context the first one left
    veronese._oracle_context(s, d, None).results.clear()
    assert preimage_oracle(ideal, VeroneseMap(s, d), budget=warm) == gb
    assert warm.spairs == spairs


def test_weighted_preimage_oracle_is_graded():
    # the weighted-oracle-3-3 row of BUCHBERGER_COUNTERS: 58 S-pairs graded,
    # 81 by plain lcm degree
    S3, vmap = base_ring(3), VeroneseMap(3, 3)
    ideal = Ideal(S3, [parse_polynomial(g, S3)
                       for g in ("y1^2", "y1*y3 - y2*y3")])
    graded, plain = Budget(), Budget()
    gb = preimage_oracle(ideal, vmap, (2, 1, 1), budget=graded)
    assert gb == _plain_degree_oracle(ideal, vmap, (2, 1, 1), plain)
    assert (graded.spairs, plain.spairs) == (58, 81)


def test_oracle_context_serves_no_stale_seed(monkeypatch):
    # a new cache for the graph basis, rather than an emptied one, so that
    # the other shapes stay cached for the tests after this one; the
    # context built from the old cache holds the basis the new one returns
    ideal, vmap = _base2_ideal("y1^3"), VeroneseMap(2, 2)
    first, second = Budget(), Budget()
    gb = preimage_oracle(ideal, vmap, budget=first)
    monkeypatch.setattr(veronese, "_joint_graph_gb",
                        lru_cache(maxsize=None)(_joint_graph_gb.__wrapped__))
    context = veronese._oracle_context(2, 2, None)
    context.results.clear()
    assert preimage_oracle(ideal, vmap, budget=second) == gb
    assert second.spairs == first.spairs == 14
    assert tuple(item[5] for item in context.index.items) == \
        veronese._joint_graph_gb(2, 2)


@pytest.mark.parametrize("omega", [None, (1, 2, 3)], ids=["chain", "weighted"])
def test_oracle_context_serves_each_ideal_as_a_new_one(omega):
    # a context that other runs left, their entries in its order's memo and
    # in the index they copied, gives each ideal the basis and the S-pairs
    # of a new context
    S3, vmap = base_ring(3), VeroneseMap(3, 3)
    ideals = [Ideal(S3, [parse_polynomial(g, S3) for g in gens]) for gens in
              (("y1^2*y2", "y3^3"), ("y1*y2*y3",), ("y2^4", "y1*y3"))]
    new = []
    for ideal in ideals:
        veronese._oracle_context.cache_clear()
        budget = Budget()
        new.append((preimage_oracle(ideal, vmap, omega, budget=budget),
                    budget.spairs))
    veronese._oracle_context(3, 3, omega).results.clear()
    for ideal, expected in zip(ideals, new):
        budget = Budget()
        assert (preimage_oracle(ideal, vmap, omega, budget=budget),
                budget.spairs) == expected


def test_oracle_contexts_stay_bounded():
    # more (s, d, omega) than contexts; last the (3,3) seeded case and one
    # more ideal at (3,3), whose keys would take its memo past the cap
    ideal = _base2_ideal("y1^3")
    for k in range(1, veronese.ORACLE_MEMO_SIZE + 1):
        preimage_oracle(ideal, VeroneseMap(2, 2), (k, 1))
    S3 = base_ring(3)
    for gens in (("y1^2*y2", "y3^3"), ("y1*y2*y3",)):
        preimage_oracle(Ideal(S3, [parse_polynomial(g, S3) for g in gens]),
                        VeroneseMap(3, 3))
    info = veronese._oracle_context.cache_info()
    assert info.currsize == info.maxsize == veronese.ORACLE_MEMO_SIZE
    # the latest keys are all hits, so they are the ones kept
    kept = [(2, 2, (k, 1)) for k in range(2, veronese.ORACLE_MEMO_SIZE + 1)]
    contexts = [veronese._oracle_context(*key) for key in kept + [(3, 3, None)]]
    after = veronese._oracle_context.cache_info()
    assert (after.hits - info.hits, after.misses) == (len(contexts), info.misses)
    assert [len(context.results) for context in contexts] == \
        [1] * len(kept) + [2]
    assert all(len(context.index.order._cache) <= veronese.ORACLE_KEY_MEMO_CAP
               for context in contexts)


def _two_step_oracle(ideal, vmap, order, budget):
    """The reference for the one-pass weighted oracle: elimination under the
    chain order, then a conversion to ``order`` seeded with the kernel
    basis."""
    joint, gens = graph_ideal(vmap.ring.indices, vmap.ring)
    position_map = list(range(vmap.s)) + [-1] * vmap.ring.nvars
    embedded = [g.map_positions(joint, position_map) for g in ideal.generators]
    gb = eliminate(embedded + gens, elimination_order(vmap.s, vmap.order),
                   vmap.ring, budget=budget,
                   seed_gb=list(_joint_graph_gb(vmap.s, vmap.d)))
    return buchberger(gb, order, budget=budget,
                      seed_gb=list(kernel_groebner_basis(vmap.s, vmap.d)))


def _weighted_oracle_cases(rng):
    """(ideal, d, omega): the conic at d = 2..5, the conic at d = 2 under
    weights on y3 alone, then seeded homogeneous ideals at (3,2), (3,3) and
    (4,2) with weights from find_weight_vector."""
    conic = _conic()
    for d in (2, 3, 4, 5):
        yield conic, d, (2, 1, 1)
    yield conic, 2, (0, 0, 5)
    for s, d in ((3, 2), (3, 3), (4, 2)):
        S = base_ring(s)
        for _ in range(3):
            gens = suites._random_homogeneous_ideal(rng, S, max_degree=2)
            ideal = Ideal(S, gens)
            yield ideal, d, find_weight_vector(ideal, S.default_order())


def _plain_degree_oracle(ideal, vmap, omega, budget):
    """The weighted oracle's seeded elimination from its context, with pairs
    taken by plain lcm degree instead of the grading deg y = 1, deg x = d."""
    context = veronese._oracle_context(vmap.s, vmap.d, omega)
    position_map = list(range(vmap.s)) + [-1] * vmap.ring.nvars
    embedded = [g.map_positions(context.joint, position_map)
                for g in ideal.generators]
    return eliminate(embedded + context.gens, context.index.order, vmap.ring,
                     budget=budget, seed_gb=context.index)


def test_weighted_oracle_equals_two_step_route(rng):
    checked = 0
    for ideal, d, omega in _weighted_oracle_cases(rng):
        vmap = VeroneseMap(ideal.ring.s, d)
        one, two, plain = Budget(), Budget(), Budget()
        got = preimage_oracle(ideal, vmap, omega, budget=one)
        assert got == _two_step_oracle(ideal, vmap,
                                       pullback_order(vmap, omega), two), \
            (d, omega, ideal.generators)
        assert one.spairs <= two.spairs
        # the grading changes which pairs are reduced, not the basis, and
        # reduces no more of them
        assert got == _plain_degree_oracle(ideal, vmap, omega, plain)
        assert 0 < one.spairs <= plain.spairs, (d, omega, ideal.generators)
        checked += 1
    assert checked == 14


@pytest.fixture
def eliminations(monkeypatch):
    """The (s, d) of each elimination ``preimage_oracle`` runs."""
    from veronese_gb import veronese
    calls, eliminate = [], veronese.eliminate

    def counting(generators, order, back_ring, *args, **kwargs):
        calls.append((back_ring.s, back_ring.d))
        return eliminate(generators, order, back_ring, *args, **kwargs)

    monkeypatch.setattr(veronese, "eliminate", counting)
    return calls


def _base2_ideal(*gens):
    S2 = base_ring(2)
    return Ideal(S2, [parse_polynomial(g, S2) for g in gens])


def test_oracle_memo_hit_charges_nothing(eliminations):
    ideal, vmap = _base2_ideal("y1^3"), VeroneseMap(2, 2)
    miss, hit = Budget(), Budget()
    gb = preimage_oracle(ideal, vmap, budget=miss)
    assert miss.spairs == 14 and eliminations == [(2, 2)]
    assert preimage_oracle(ideal, vmap, budget=hit) is gb
    assert preimage_oracle(_base2_ideal("y1^3"), vmap) is gb
    assert hit.spairs == 0 and eliminations == [(2, 2)]


def test_oracle_memo_keeps_no_capped_run(eliminations):
    ideal, vmap = _base2_ideal("y1^3"), VeroneseMap(2, 2)
    with pytest.raises(BudgetExceededError):
        preimage_oracle(ideal, vmap, budget=Budget(spair_cap=13))
    budget = Budget()
    preimage_oracle(ideal, vmap, budget=budget)
    assert budget.spairs == 14 and len(eliminations) == 2


def test_oracle_memo_key(eliminations):
    vmap = VeroneseMap(2, 2)
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), vmap)
    preimage_oracle(_base2_ideal("y2^2", "y1^3"), vmap)
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), VeroneseMap(2, 3))
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), vmap, (2, 1))
    assert eliminations == [(2, 2), (2, 2), (2, 3), (2, 2)]
    # an integer string is read as its integer, as pullback_homogeneous_ideal
    # reads it, so these weights are the ones above
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), vmap, ("2", 1))
    assert len(eliminations) == 4
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), vmap)
    assert len(eliminations) == 4


@pytest.mark.parametrize("omega", [None, (2, 1)], ids=["chain", "weighted"])
def test_oracle_memo_keeps_no_caller_order_alive(omega):
    # the memo is keyed by values, so the key memo of the caller's chain
    # order, the target or the tie of a weighted target, goes with the order
    vmap = VeroneseMap(2, 2)
    order = weakref.ref(vmap.order)
    preimage_oracle(_base2_ideal("y1^3", "y2^2"), vmap, omega)
    del vmap
    gc.collect()
    assert order() is None


def test_oracle_memo_evicts_the_least_recently_used(eliminations):
    from veronese_gb.veronese import ORACLE_MEMO_SIZE
    vmap = VeroneseMap(2, 2)
    ideals = [_base2_ideal(f"y1^{k}") for k in range(1, ORACLE_MEMO_SIZE + 2)]
    preimage_oracle(ideals[0], vmap)
    preimage_oracle(ideals[1], vmap)
    preimage_oracle(ideals[0], vmap)      # now ideals[1] is the oldest
    for ideal in ideals[2:]:
        preimage_oracle(ideal, vmap)
    assert len(eliminations) == ORACLE_MEMO_SIZE + 1
    preimage_oracle(ideals[0], vmap)
    assert len(eliminations) == ORACLE_MEMO_SIZE + 1
    preimage_oracle(ideals[1], vmap)
    assert len(eliminations) == ORACLE_MEMO_SIZE + 2


def test_pullback_then_oracle_eliminates_once(eliminations):
    M = MonomialIdeal.from_exponents(base_ring(2), [(2, 2)])  # bound is 3
    res = pullback_monomial_ideal(M, 2)
    assert res.certificate["matches_oracle"]
    oracle = preimage_oracle(Ideal(M.ring, M.polynomials()), VeroneseMap(2, 2))
    assert oracle == res.reduced
    assert eliminations == [(2, 2)]
