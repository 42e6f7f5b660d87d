"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  All checks are exact; there are no tolerances anywhere.
"""

import itertools
import json
from fractions import Fraction

import suites
from veronese_gb.groebner import (Ideal, MonomialIdeal, buchberger,
                                  find_weight_vector)
from veronese_gb.orders import GrevLex, Weighted, multi_indices
from veronese_gb.polyring import (Polynomial, base_ring, parse_polynomial,
                                  poly_to_json, ring_to_json)
from veronese_gb.toric import Configuration, toric_ideal, verify_veronese_toric
from veronese_gb.veronese import (VeroneseMap, degree_bounds,
                                  preimage_oracle, pullback_homogeneous_ideal,
                                  pullback_monomial_ideal,
                                  quadratic_pullback_bound, verify_exchange_basis,
                                  weight_pullback)


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_kernel_basis_instances():
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]
    failures = []
    for s, d in shapes:
        cert = verify_exchange_basis(s, d)
        if not (cert["in_kernel"] and cert["is_groebner"]
                and cert["matches_oracle"]):
            failures.append((s, d))
    _report(1, not failures,
            f"kernel exchange basis certified on {len(shapes)} instances "
            f"(all S-pairs to zero, oracle equality); failures: {failures}")


def test_criterion_2_variable_chains_verbatim():
    chain24 = multi_indices(2, 4)
    chain33 = multi_indices(3, 3)
    expected24 = ((2, 2), (3, 1), (1, 3), (4, 0), (0, 4))
    expected33 = ((1, 1, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2),
                  (0, 2, 1), (0, 1, 2), (3, 0, 0), (0, 3, 0), (0, 0, 3))
    rendered24 = " < ".join("x[%s]" % ",".join(map(str, a)) for a in chain24)
    ok = (chain24 == expected24 and chain33 == expected33
          and rendered24 == "x[2,2] < x[3,1] < x[1,3] < x[4,0] < x[0,4]")
    _report(2, ok, "both worked-example variable chains reproduced verbatim")


def _incomparable(e, f):
    return not (all(x <= y for x, y in zip(e, f)) or
                all(y <= x for x, y in zip(e, f)))


def _antichains(pool, max_size):
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(pool, size):
            if all(_incomparable(e, f)
                   for e, f in itertools.combinations(combo, 2)):
                yield combo


def _monomial_family():
    """Exhaustive family with entries <= 2 and degree <= 4.

    Antichains of up to three generators over the full pool on two variables
    and over the squarefree pool on three (those members run at d <= 3);
    every singleton over the full three-variable pool (max exponent 2 runs
    at d = 5, where the cached elimination oracle is still affordable).
    """
    family = []
    S2 = base_ring(2)
    pool2 = [e for e in itertools.product(range(3), repeat=2)
             if e != (0, 0) and sum(e) <= 4]
    for combo in _antichains(pool2, 3):
        family.append(MonomialIdeal.from_exponents(S2, combo))
    S3 = base_ring(3)
    pool3 = [e for e in itertools.product(range(3), repeat=3)
             if e != (0, 0, 0) and sum(e) <= 4]
    for e in pool3:
        family.append(MonomialIdeal.from_exponents(S3, [e]))
    squarefree = [e for e in pool3 if max(e) == 1]
    for combo in _antichains(squarefree, 3):
        if len(combo) > 1:
            family.append(MonomialIdeal.from_exponents(S3, combo))
    return family


def test_criterion_3_monomial_pullbacks_exhaustive():
    family = _monomial_family()
    assert len(family) >= 50
    checked = 0
    for ideal in family:
        s = ideal.ring.s
        d = quadratic_pullback_bound(s, ideal.max_exponent())
        vmap = VeroneseMap(s, d)
        small = vmap.ring.nvars <= 10
        res = pullback_monomial_ideal(ideal, d, verify=small)
        if small:
            assert res.certificate["is_groebner"], (ideal.gens, d)
        assert res.certificate["members_in_target"], (ideal.gens, d)
        assert res.certificate["complete"], (ideal.gens, d)
        assert max(g.total_degree() for g in res.reduced) <= 2, (ideal.gens, d)
        oracle = preimage_oracle(Ideal(ideal.ring, ideal.polynomials()), vmap)
        assert tuple(res.reduced) == tuple(oracle), (ideal.gens, d)
        checked += 1
    _report(3, checked >= 50,
            f"{checked} monomial ideals: quadratic reduced bases equal to the "
            "constructed union and to the elimination oracle")


def _random_homogeneous_ideals(rng, count, s=3, max_degree=3):
    S = base_ring(s)
    out = []
    while len(out) < count:
        gens = []
        for _ in range(rng.randrange(1, 3)):
            degree = rng.randrange(1, max_degree + 1)
            pool = [e for e in itertools.product(range(degree + 1), repeat=s)
                    if sum(e) == degree]
            terms = {}
            for _ in range(rng.randrange(2, 4)):
                terms[rng.choice(pool)] = Fraction(rng.choice([-2, -1, 1, 2]))
            poly = Polynomial(S, terms)
            if poly:
                gens.append(poly)
        if gens:
            out.append(Ideal(S, gens))
    return out


def test_criterion_4_weight_pullback_identity(rng):
    S3 = base_ring(3)
    order = GrevLex(3)
    ideals = _random_homogeneous_ideals(rng, 20)
    checked = 0
    for ideal in ideals:
        omega = find_weight_vector(ideal, order)
        forms, monomial = ideal.initial_forms(omega)
        assert monomial
        # weighted-order initial ideal equals the two-step initial ideal
        two_step = forms.initial_ideal(order)
        one_step = ideal.initial_ideal(Weighted(omega, order))
        assert two_step.gens == one_step.gens == ideal.initial_ideal(order).gens
        for d in (2, 3):
            vmap = VeroneseMap(3, d)
            weights = weight_pullback(omega, vmap)
            up = preimage_oracle(ideal, vmap, omega)
            lhs = buchberger([g.initial_form(weights) for g in up], vmap.order)
            rhs = preimage_oracle(Ideal(S3, forms.generators), vmap)
            assert tuple(lhs) == tuple(rhs)
            checked += 1
    _report(4, checked == 40,
            f"{checked} (ideal, d) pairs: weight-initial of the preimage equals "
            "the preimage of the weight-initial, plus the two-step identity")


def test_criterion_5_weighted_pullback_end_to_end():
    # budget-friendly variant: two variables at the bound
    S2 = base_ring(2)
    ci = Ideal(S2, [parse_polynomial("y1^2 - y2^2", S2)])
    res_ci = pullback_homogeneous_ideal(ci, 3, (2, 1), method="both")
    assert res_ci.max_degree <= 2
    assert res_ci.certificate["initial_matches_monomial_pullback"]

    # full variant: three variables, twenty-one Veronese coordinates
    S3 = base_ring(3)
    full = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
    assert quadratic_pullback_bound(3, 2) == 5
    res = pullback_homogeneous_ideal(full, 5, (2, 1, 1), method="both")
    ok = (res.max_degree <= 2
          and res.certificate["meets_bound"]
          and res.certificate["initial_matches_monomial_pullback"]
          and res.certificate["members_in_target"])
    _report(5, ok,
            f"weighted pullback quadratic at the bound: full variant "
            f"({len(res.reduced)} elements), budget variant "
            f"({len(res_ci.reduced)} elements)")


def test_criterion_6_toric_layer_at_the_bound():
    cfg = Configuration.from_points([(1, 0), (1, 1), (1, 2)])
    ideal = toric_ideal(cfg)
    S = base_ring(3)
    assert ideal.generators == (parse_polynomial("y2^2 - y1*y3", S),)
    omega = find_weight_vector(ideal, ideal.ring.default_order())
    init = ideal.initial_ideal(ideal.ring.default_order())
    d = quadratic_pullback_bound(cfg.size, init.max_exponent())
    cert = verify_veronese_toric(cfg, d)
    ok = (cert.pullback.certificate["meets_bound"] and cert.all_binomial
          and cert.pullback.max_degree <= 2 and cert.images_equal
          and cert.duplicates_linear)
    _report(6, ok,
            f"layer at d={d}: all-binomial quadratic basis with equal images "
            f"({len(cert.pullback.reduced)} elements)")


def test_criterion_7_bound_comparisons():
    rings = {s: base_ring(s) for s in (2, 3, 4)}
    below = above = 0
    for s in (2, 3, 4):
        for entries in itertools.product(range(3), repeat=s):
            if not any(entries) or sum(entries) > 6:
                continue
            ideal = MonomialIdeal.from_exponents(rings[s], [entries])
            rep = degree_bounds(ideal)
            assert rep.below_rough == rep.threshold, entries
            assert rep.below_rough == (
                rep.bound_raw < rep.rival_rough), entries
            if rep.threshold:
                above += 1
            else:
                below += 1
    _report(7, below >= 10 and above >= 10,
            f"bound comparison verdict matches the threshold condition on "
            f"{below} ideals below and {above} at-or-above the threshold")


def test_criterion_8_property_suites(rng):
    total = 0
    for suite in suites.ALL_SUITES:
        total += suite(rng)
    _report(8, total >= 10_000,
            f"{total} seeded property cases across {len(suites.ALL_SUITES)} "
            "suites, zero failures")


def _cli_report(capsys, *argv):
    from veronese_gb import cli
    assert cli.main(["--json", *argv]) == 0
    return json.loads(capsys.readouterr().out)["outputs"]


def test_criterion_9_homogeneous_pullbacks_derive_their_weights(
        rng, tmp_path, capsys):
    # s = 2 just below and at the bound of in_<(I); s = 3, generators of
    # degree <= 2, at d = 2 and 3.  No weights are passed: the pullback
    # derives them from the default order, so its bound is that of in_<(I).
    cases = []
    for ideal in _random_homogeneous_ideals(rng, 8, s=2):
        init = ideal.initial_ideal(ideal.ring.default_order())
        bound = degree_bounds(init).bound
        cases += [(ideal, bound - 1), (ideal, bound)]
    for ideal in _random_homogeneous_ideals(rng, 6, s=3, max_degree=2):
        cases += [(ideal, 2), (ideal, 3)]
    for i, (ideal, d) in enumerate(cases):
        order = ideal.ring.default_order()
        res = pullback_homogeneous_ideal(ideal, d, method="both")
        cert = res.certificate
        bound = degree_bounds(ideal.initial_ideal(order)).bound
        assert res.omega == find_weight_vector(ideal, order), (ideal, d)
        assert cert["initial_matches_monomial_pullback"], (ideal, d)
        assert cert["members_in_target"], (ideal, d)
        assert cert["bound"] == bound, (ideal, d)
        assert cert["meets_bound"] == (d >= bound), (ideal, d)
        if d >= bound:
            assert res.max_degree <= 2, (ideal, d)
        if i in (1, len(cases) - 1):
            path = tmp_path / f"ideal{i}.json"
            path.write_text(json.dumps({
                "ring": ring_to_json(ideal.ring),
                "generators": [poly_to_json(g) for g in ideal.generators]}))
            out = _cli_report(capsys, "pullback", str(path), "--d", str(d),
                              "--method", "both")
            assert out["certificate"] == cert, (ideal, d)
            assert out["reduced"]["polynomials"] == [
                poly_to_json(g, res.order) for g in res.reduced]
            assert _cli_report(capsys, "bounds", str(path))["bound"] == bound
    _report(9, True,
            f"{len(cases)} (ideal, d) pairs pulled back under derived weights, "
            "constructive equal to the oracle, initial ideals matching the "
            "monomial pullback at the bound of in_<(I); two through the CLI")
