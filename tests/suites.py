"""Seeded property suites shared by the unit tests and the acceptance gate.

Each suite returns the number of cases it checked and raises AssertionError
on the first violation.
"""

import itertools
from fractions import Fraction

from reference import (cmp, cmp_gamma_vars, least_preimage,
                       min_divisor_variable)
from veronese_gb.groebner import buchberger
from veronese_gb.orders import (Block, GammaRevLex, GrevLex, Lex, Weighted,
                                gamma_profile, multi_indices)
from veronese_gb.polyring import Polynomial, base_ring
from veronese_gb.toric import Configuration, toric_ideal
from veronese_gb.veronese import (VeroneseMap, kernel_initial,
                                  quadratic_pullback_bound)


def _random_exps(rng, n, bound=5):
    return tuple(rng.randrange(bound) for _ in range(n))


def suite_order_axioms(rng, triples=700):
    """Totality, antisymmetry, transitivity, minimality of 0, and
    multiplicativity for every order variant."""
    orders = [
        (Lex(4), 4),
        (Lex(4, (2, 0, 3, 1)), 4),
        (GrevLex(4), 4),
        (GrevLex(4, (3, 1, 0, 2)), 4),
        (GammaRevLex(2, 4), 5),
        (GammaRevLex(3, 3), 10),
        (Weighted((3, 1, 2, 1), GrevLex(4)), 4),
        (Block(2, GrevLex(2), GrevLex(2)), 4),
    ]
    cases = 0
    for order, n in orders:
        zero = (0,) * n
        for _ in range(triples):
            a = _random_exps(rng, n)
            b = _random_exps(rng, n)
            c = _random_exps(rng, n)
            cab, cba = cmp(order, a, b), cmp(order, b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)
            if cab <= 0 and cmp(order, b, c) <= 0:
                assert cmp(order, a, c) <= 0
            if a != zero:
                assert cmp(order, zero, a) == -1
            if cab == -1:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert cmp(order, ac, bc) == -1
            cases += 1
    return cases


def suite_profile_is_permutation_minimum(rng, samples=1500):
    """The ascending profile is the lex-least among all permutations."""
    cases = 0
    for _ in range(samples):
        s = rng.randrange(2, 6)
        a = _random_exps(rng, s, 6)
        best = min(tuple(a[i] for i in perm)
                   for perm in itertools.permutations(range(s)))
        assert gamma_profile(a) == best
        cases += 1
    return cases


def suite_support_comparison(rng, samples=800):
    """Wider support makes a strictly smaller Veronese variable."""
    pools = {(2, 4): multi_indices(2, 4), (3, 3): multi_indices(3, 3),
             (3, 4): multi_indices(3, 4), (4, 3): multi_indices(4, 3)}
    cases = 0
    while cases < samples:
        pool = pools[rng.choice(list(pools))]
        a = rng.choice(pool)
        b = rng.choice(pool)
        sa = sum(1 for x in a if x)
        sb = sum(1 for x in b if x)
        if sa <= sb:
            continue
        assert cmp_gamma_vars(a, b) == -1
        cases += 1
    return cases


def suite_rebalancing_moves(rng, samples=800):
    """Shifting a unit from a much larger entry always goes down; shifting
    from an entry exactly one larger goes down exactly when moving left."""
    pools = [multi_indices(2, 5), multi_indices(3, 4), multi_indices(4, 3)]
    big = small = 0
    cases = 0
    while cases < samples:
        pool = rng.choice(pools)
        a = rng.choice(pool)
        s = len(a)
        i, j = rng.randrange(s), rng.randrange(s)
        if i == j:
            continue
        gap = a[j] - a[i]
        if gap < 1:
            continue
        moved = list(a)
        moved[i] += 1
        moved[j] -= 1
        moved = tuple(moved)
        if gap >= 2:
            assert cmp_gamma_vars(moved, a) == -1
            big += 1
        else:
            assert (cmp_gamma_vars(moved, a) == -1) == (i < j)
            small += 1
        cases += 1
    assert big and small
    return cases


def _random_monomial(rng, vmap, degree):
    n = vmap.ring.nvars
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def suite_min_variable_degree_pin(rng, samples=600):
    """Where the least dividing variable is two short of another entry, the
    image degree in the short variable is pinned exactly."""
    maps = [VeroneseMap(2, 4), VeroneseMap(2, 5), VeroneseMap(3, 3)]
    cases = 0
    while cases < samples:
        vmap = rng.choice(maps)
        u = _random_monomial(rng, vmap, rng.randrange(1, 4))
        a = min_divisor_variable(vmap, u)
        image = vmap.image_exps(u)
        hits = [(i, j) for i in range(vmap.s) for j in range(vmap.s)
                if a[j] - a[i] >= 2]
        if not hits:
            continue
        for i, j in hits:
            assert image[i] == a[i]
        cases += 1
    return cases


def suite_standard_monomials_divisible_by_min_variable(rng, samples=800):
    """Standard monomials are divisible by their least dividing variable."""
    shapes = [(2, 3), (2, 4), (3, 2), (3, 3)]
    cases = 0
    while cases < samples:
        s, d = rng.choice(shapes)
        vmap = VeroneseMap(s, d)
        init = kernel_initial(s, d)
        u = _random_monomial(rng, vmap, rng.randrange(1, 4))
        if init.contains(u):
            continue
        a = min_divisor_variable(vmap, u)
        pos = vmap.ring.position["x[%s]" % ",".join(map(str, a))]
        assert u[pos] >= 1
        cases += 1
    return cases


def suite_quadratic_witness(rng, samples=600):
    """At or above the bound, the two least dividing variables of a standard
    monomial in the pullback of a power already land in that power."""
    cases = 0
    while cases < samples:
        s = rng.choice((2, 2, 3))
        if s == 2:
            target = tuple(rng.randrange(4) for _ in range(2))
        else:
            target = tuple(rng.randrange(2) for _ in range(3))
        if not any(target):
            continue
        d = quadratic_pullback_bound(s, max(target))
        vmap = VeroneseMap(s, d)
        k = rng.randrange(2, 4)
        c = list(target)
        for _ in range(k * d - sum(target)):
            c[rng.randrange(s)] += 1
        u = least_preimage(vmap, tuple(c))
        assert sum(u) == k
        b = min_divisor_variable(vmap, u)
        pos_b = vmap.ring.position["x[%s]" % ",".join(map(str, b))]
        rest = list(u)
        rest[pos_b] -= 1
        cvar = min_divisor_variable(vmap, tuple(rest))
        pair = tuple(x + y for x, y in zip(b, cvar))
        assert all(p >= t for p, t in zip(pair, target))
        cases += 1
    return cases


def suite_toric_binomial_closure(rng, configs=24):
    """Every reduced basis element of a toric kernel is a +-1 binomial whose
    two monomials share their image and their degree."""
    cases = 0
    for _ in range(configs):
        dim = rng.choice((2, 3))
        npts = rng.randrange(3, 5)
        pts = []
        for _ in range(npts):
            pts.append((1,) + tuple(rng.randrange(-2, 5)
                                    for _ in range(dim - 1)))
        cfg = Configuration.from_points(pts)
        gb = toric_ideal(cfg).generators
        cases += 1
        for g in gb:
            assert g.is_binomial_pm1()
            assert len({cfg.image_exps(e) for e in g.terms}) == 1
            assert len({sum(e) for e in g.terms}) == 1
            cases += 1
    return cases


def _random_homogeneous_ideal(rng, ring, ngens=2, max_degree=3):
    gens = []
    for _ in range(ngens):
        degree = rng.randrange(1, max_degree + 1)
        pool = [e for e in itertools.product(range(degree + 1),
                                             repeat=ring.nvars)
                if sum(e) == degree]
        terms = {}
        for _ in range(rng.randrange(2, 4)):
            coeff = rng.choice([-2, -1, 1, 2])
            terms[rng.choice(pool)] = Fraction(coeff)
        poly = Polynomial(ring, terms)
        if poly:
            gens.append(poly)
    return gens


def suite_reduced_basis_uniqueness(rng, ideals=12, shuffles=4):
    """Generator order never changes the reduced basis."""
    S = base_ring(3)
    order = GrevLex(3)
    cases = 0
    for _ in range(ideals):
        gens = _random_homogeneous_ideal(rng, S)
        if not gens:
            continue
        reference = buchberger(gens, order)
        for _ in range(shuffles):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled, order) == reference
            cases += 1
    return cases


ALL_SUITES = (
    suite_order_axioms,
    suite_profile_is_permutation_minimum,
    suite_support_comparison,
    suite_rebalancing_moves,
    suite_min_variable_degree_pin,
    suite_standard_monomials_divisible_by_min_variable,
    suite_quadratic_witness,
    suite_toric_binomial_closure,
    suite_reduced_basis_uniqueness,
)
