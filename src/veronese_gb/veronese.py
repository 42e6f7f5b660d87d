"""Veronese rings: the degree-d monomial substitution and ideal pullbacks.

The degree-d ring has one variable per multi-index of total degree d; the
substitution sends each variable to the matching base-ring monomial, so the
preimage of an ideal presents the degree-d piece of the base quotient.  The
substitution kernel carries an explicit quadratic binomial basis under the
chain revlex order, which this module constructs, certifies against an
elimination oracle, and extends to pullbacks of monomial and of general
homogeneous ideals, with the degree bound that keeps everything quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import (DomainError, InternalCheckError, NonMonomialInitialError,
                     RingMismatchError)
from .groebner import (Budget, Ideal, MonomialIdeal, _DivisorIndex,
                       _SupportBuckets, _front_free, _reduce_basis, buchberger,
                       eliminate, graph_ideal, is_groebner_basis)
from .orders import Block, GammaRevLex, GrevLex, Weighted, multi_indices
from .polyring import Polynomial, base_ring, mono_divides, veronese_ring


@dataclass(frozen=True)
class VeroneseMap:
    """The substitution sending each degree-d variable to its base monomial."""

    s: int
    d: int

    def __post_init__(self):
        if self.s < 1 or self.d < 1:
            raise DomainError(f"need s >= 1 and d >= 1, got s={self.s}, d={self.d}")
        object.__setattr__(self, "ring", veronese_ring(self.s, self.d))
        object.__setattr__(self, "base", base_ring(self.s))
        object.__setattr__(self, "order", GammaRevLex(self.s, self.d))

    def image_exps(self, u):
        """Exponent vector of the image monomial in the base ring."""
        c = [0] * self.s
        for pos, mult in enumerate(u):
            if mult:
                a = self.ring.indices[pos]
                for j in range(self.s):
                    c[j] += mult * a[j]
        return tuple(c)

    def image(self, poly):
        if poly.ring != self.ring:
            raise RingMismatchError("polynomial is not in the Veronese ring")
        terms = {}
        for e, coeff in poly.terms.items():
            c = self.image_exps(e)
            terms[c] = terms.get(c, 0) + coeff
        return Polynomial(self.base, terms)

    def min_divisor_variable(self, u):
        """Least variable whose image divides the image of the monomial u."""
        if not any(u):
            raise DomainError("the constant monomial has no dividing variable")
        return self.min_divisor_of_image(self.image_exps(u))

    def min_divisor_of_image(self, c):
        """Least variable whose image divides the base monomial c."""
        for a in self.ring.indices:
            if mono_divides(a, c):
                return a
        raise DomainError("no variable image divides the given monomial")

    def min_preimage(self, c):
        """The chain-least monomial of the Veronese ring mapping onto c.

        Peels off the least dividing variable one factor at a time, which for
        a revlex order is exactly the minimum preimage.
        """
        total = sum(c)
        if total % self.d:
            raise DomainError("degree must be a multiple of d to lift")
        rem = list(c)
        exps = [0] * self.ring.nvars
        pos_of = self.ring.position
        for _ in range(total // self.d):
            a = self.min_divisor_of_image(tuple(rem))
            exps[pos_of["x[%s]" % ",".join(map(str, a))]] += 1
            for j in range(self.s):
                rem[j] -= a[j]
        return tuple(exps)

    def lift(self, poly):
        """Termwise minimum preimage of a base polynomial of d-divisible degrees."""
        terms = {}
        for e, coeff in poly.terms.items():
            u = self.min_preimage(e)
            terms[u] = terms.get(u, 0) + coeff
        return Polynomial(self.ring, terms)


@lru_cache(maxsize=None)
def exchange_binomials(s, d):
    """All nonzero quadratic exchange binomials, deduplicated and oriented.

    For every pair of degree-(d-1) indices and positions i < j, the product
    of the two bumped variables equals the cross-bumped product in the base
    ring; the difference is normalized so its leading term has coefficient +1
    under the chain revlex order.
    """
    vmap = VeroneseMap(s, d)
    ring, order = vmap.ring, vmap.order
    pos_of = ring.position

    def bump(a, i):
        b = list(a)
        b[i] += 1
        return pos_of["x[%s]" % ",".join(map(str, b))]

    def pair_exps(p, q):
        e = [0] * ring.nvars
        e[p] += 1
        e[q] += 1
        return tuple(e)

    seen = set()
    out = []
    lower = multi_indices(s, d - 1) if d > 1 else ((0,) * s,)
    for a in lower:
        for b in lower:
            for i in range(s):
                for j in range(i + 1, s):
                    u = pair_exps(bump(a, i), bump(b, j))
                    v = pair_exps(bump(a, j), bump(b, i))
                    if u == v:
                        continue
                    mark = (u, v) if u < v else (v, u)
                    if mark in seen:
                        continue
                    seen.add(mark)
                    if order.key(u) < order.key(v):
                        u, v = v, u
                    out.append(Polynomial(ring, {u: Fraction(1), v: Fraction(-1)}))
    out.sort(key=lambda g: (order.key(g.leading_term(order)[0]),
                            sorted(g.terms)))
    return tuple(out)


@lru_cache(maxsize=None)
def kernel_groebner_basis(s, d):
    """Reduced basis of the substitution kernel under the chain revlex order.

    Interreduces the exchange binomials; that they form a Gröbner basis is
    certified separately by :func:`verify_exchange_basis`.
    """
    vmap = VeroneseMap(s, d)
    return _reduce_basis(list(exchange_binomials(s, d)), vmap.order)


@lru_cache(maxsize=None)
def kernel_initial(s, d):
    """Leading-term ideal of the kernel under the chain revlex order."""
    vmap = VeroneseMap(s, d)
    return MonomialIdeal.of_leading_terms(
        vmap.ring, kernel_groebner_basis(s, d), vmap.order)


# ---------------------------------------------------------------------------
# elimination oracle


@lru_cache(maxsize=None)
def _joint_graph_gb(s, d):
    """Reduced basis of the graph ideal under the elimination block order."""
    vmap = VeroneseMap(s, d)
    _, gens = graph_ideal(vmap.ring.indices, vmap.ring)
    return buchberger(gens, Block(s, GrevLex(s), vmap.order))


@lru_cache(maxsize=None)
def kernel_oracle_basis(s, d):
    """Kernel reduced basis recomputed by elimination, independent of the
    constructive route."""
    return _front_free(_joint_graph_gb(s, d), s, VeroneseMap(s, d).ring)


def preimage_oracle(ideal, vmap, order=None, budget=None):
    """Reduced basis of the full preimage of an ideal, computed by elimination.

    Joins the base ideal's generators to the substitution graph, eliminates
    the base variables, and (for a non-default target order) recomputes the
    reduced basis inside the Veronese ring.
    """
    if ideal.ring != vmap.base:
        raise RingMismatchError("ideal must live in the base ring")
    joint, gens = graph_ideal(vmap.ring.indices, vmap.ring)
    position_map = list(range(vmap.s)) + [-1] * vmap.ring.nvars
    embedded = [g.map_positions(joint, position_map) for g in ideal.generators]
    gb = eliminate(embedded + gens, vmap.s, vmap.ring, vmap.order,
                   budget=budget, seed_gb=list(_joint_graph_gb(vmap.s, vmap.d)))
    if order is None or order == vmap.order:
        return gb
    return buchberger(gb, order, budget=budget,
                      seed_gb=list(kernel_groebner_basis(vmap.s, vmap.d)))


# ---------------------------------------------------------------------------
# kernel certification


@dataclass
class KernelCertificate:
    s: int
    d: int
    basis_size: int
    reduced_size: int
    in_kernel: bool
    is_groebner: bool
    matches_oracle: bool
    spairs: int

    @property
    def ok(self):
        return self.in_kernel and self.is_groebner and self.matches_oracle


def verify_exchange_basis(s, d, budget=None):
    """Certify the exchange binomials: kernel membership, S-pair closure,
    and agreement with the elimination oracle."""
    vmap = VeroneseMap(s, d)
    basis = exchange_binomials(s, d)
    in_kernel = all(not vmap.image(g) for g in basis)
    check = is_groebner_basis(basis, vmap.order, budget=budget,
                              skip_coprime=False)
    reduced = kernel_groebner_basis(s, d)
    matches = tuple(reduced) == tuple(kernel_oracle_basis(s, d))
    return KernelCertificate(s, d, len(basis), len(reduced), in_kernel,
                             check.ok, matches, check.spairs)


# ---------------------------------------------------------------------------
# standard monomials and monomial-ideal pullbacks


def standard_monomials(s, d, degree, order=None):
    """Monomials of the Veronese ring of the given degree outside the kernel's
    leading-term ideal, in ascending position order."""
    init = _kernel_initial_for(s, d, order)
    n = VeroneseMap(s, d).ring.nvars
    for combo in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        e = tuple(e)
        if not init.contains(e):
            yield e


@lru_cache(maxsize=None)
def _kernel_initial_for(s, d, order=None):
    if order is None or order == GammaRevLex(s, d):
        return kernel_initial(s, d)
    return MonomialIdeal.of_leading_terms(
        VeroneseMap(s, d).ring, buchberger(exchange_binomials(s, d), order),
        order)


def quadratic_pullback_bound(s, a):
    """Least d certified to give a quadratic pullback basis: ceil(s(a+1)/2)."""
    return math.ceil(Fraction(s * (a + 1), 2))


def monomial_pullback_generators(ideal, d, degree_cap=2):
    """Minimal generators, up to the degree cap, of the ideal of standard
    monomials whose image lands in the given monomial ideal.

    Returns (generators, complete).  The result is complete when d meets the
    quadratic bound, in which case a cap of 2 suffices; otherwise the caller
    owns choosing a sufficient cap.
    """
    if ideal.is_zero:
        raise DomainError("the zero ideal has no pullback generators")
    if degree_cap < 1:
        raise DomainError("degree cap must be at least 1")
    s = ideal.ring.s
    vmap = VeroneseMap(s, d)
    accepted = []
    found = _SupportBuckets()
    for degree in range(1, degree_cap + 1):
        for e in standard_monomials(s, d, degree):
            if next(found.divisors(e), None) is not None:
                continue
            if ideal.contains(vmap.image_exps(e)):
                accepted.append(e)
                found.add(e, e)
    bound = quadratic_pullback_bound(s, ideal.max_exponent())
    complete = d >= bound and degree_cap >= 2
    return tuple(accepted), complete


@dataclass
class PullbackResult:
    """A Gröbner basis of a pullback ideal plus the checks behind it."""

    s: int
    d: int
    order: object
    groebner_basis: tuple
    reduced: tuple
    method: str
    certificate: dict

    @property
    def max_degree(self):
        return max((g.total_degree() for g in self.groebner_basis), default=0)


def pullback_monomial_ideal(ideal, d, degree_cap=2, verify=False, budget=None,
                            use_oracle=True, method="constructive"):
    """Pullback of a monomial ideal: exchange binomials plus the standard
    monomial generators form a Gröbner basis under the chain revlex order.

    Below the quadratic bound the degree cap is raised to the oracle's
    maximal generator degree so the construction stays complete; with
    ``use_oracle`` off the result is flagged partial instead.  With
    ``method="oracle"`` the elimination basis is returned; "both" builds the
    constructive basis, records in ``matches_oracle`` whether it equals the
    elimination basis, and raises :class:`InternalCheckError` when a
    complete one does not.  ``verify`` checks the S-pairs of the returned
    basis under every method.  The elimination runs at most once, and the
    zero ideal pulls back to the kernel under every method.
    """
    ring = ideal.ring
    s = ring.s
    vmap = VeroneseMap(s, d)
    order = vmap.order
    kernel = exchange_binomials(s, d)
    constructive = ideal.is_zero or method != "oracle"
    cert = {"method_note": "exchange binomials plus standard-monomial "
                           "generators"} if constructive else {}
    oracle_gb = None
    if ideal.is_zero:
        basis = tuple(kernel)
        reduced = kernel_groebner_basis(s, d)
        cert.update(bound=None, meets_bound=True, complete=True)
    else:
        bound = quadratic_pullback_bound(s, ideal.max_exponent())
        cap = degree_cap
        below = d < bound and use_oracle
        if below or method != "constructive":
            oracle_gb = preimage_oracle(Ideal(ring, ideal.polynomials()), vmap,
                                        budget=budget)
        if constructive:
            if below:
                cap = max(cap, max((g.total_degree() for g in oracle_gb),
                                   default=1))
            gens, complete = monomial_pullback_generators(ideal, d,
                                                          degree_cap=cap)
            basis = tuple(kernel) + tuple(vmap.ring.monomial(e) for e in gens)
            reduced = _reduce_basis(list(basis), order, budget)
            cert.update(bound=bound, meets_bound=d >= bound,
                        complete=complete or below, degree_cap=cap)
        else:
            basis = reduced = oracle_gb
    if constructive:
        cert["members_in_target"] = all(_maps_into_monomial(vmap, g, ideal)
                                        for g in basis)
    if verify:
        check = is_groebner_basis(basis, order, budget=budget)
        cert["is_groebner"] = check.ok
        cert["spairs_checked"] = check.spairs
    if constructive and oracle_gb is not None:
        cert["matches_oracle"] = tuple(reduced) == tuple(oracle_gb)
        if method == "both" and cert["complete"] and \
                not cert["matches_oracle"]:
            raise InternalCheckError("constructive and oracle pullbacks disagree")
    return PullbackResult(s, d, order, basis, reduced,
                          "constructive" if constructive else
                          "elimination-oracle", cert)


def _maps_into_monomial(vmap, g, ideal):
    image = vmap.image(g)
    if not image:
        return True
    return all(ideal.contains(e) for e in image.terms)


def weight_pullback(omega, vmap):
    """Weights on the Veronese variables induced by base weights."""
    if len(omega) != vmap.s:
        raise DomainError("weight vector length must match the base ring")
    return tuple(sum(w * a for w, a in zip(omega, idx))
                 for idx in vmap.ring.indices)


def pullback_order(vmap, omega):
    """Weighted order on the Veronese ring with the chain revlex tiebreak."""
    return Weighted(weight_pullback(tuple(omega), vmap), vmap.order)


def homogeneous_pullback_generators(ideal, vmap, omega, budget=None):
    """A generating set of the preimage ideal: the exchange binomials plus
    lifts of padded generator multiples.

    Every generator of degree e, multiplied by all monomials filling it up to
    the next multiple of d, lands in the image subring; lifting those
    multiples termwise and adding the kernel generators yields the preimage
    (the substitution is onto the subring spanned by d-divisible degrees).
    """
    if not ideal.is_homogeneous():
        raise DomainError("generators must be homogeneous")
    base = ideal.ring
    source = ideal.groebner_basis(Weighted(tuple(omega), base.default_order()),
                                  budget)
    lifts = []
    d = vmap.d
    for f in source:
        e = f.total_degree()
        pad = d * math.ceil(Fraction(e, d)) - e
        if pad == 0:
            lifts.append(vmap.lift(f))
            continue
        for combo in combinations_with_replacement(range(base.nvars), pad):
            m = [0] * base.nvars
            for i in combo:
                m[i] += 1
            lifts.append(vmap.lift(f.mul_term(1, tuple(m))))
    return list(exchange_binomials(vmap.s, vmap.d)) + lifts


def pullback_homogeneous_ideal(ideal, d, omega, method="constructive",
                               budget=None):
    """Pullback of a homogeneous ideal under a weight vector whose initial
    ideal is monomial, with the weighted chain revlex order.

    The certificate records the quadratic bound for the weight initial ideal
    and that the pullback's leading-term ideal agrees with the pullback of
    the weight initial ideal.
    """
    if budget is None:
        budget = Budget()
    base = ideal.ring
    s = base.s
    if s is None:
        raise DomainError("pullbacks need a base ring y1..ys")
    if not ideal.is_homogeneous():
        raise DomainError("ideal must be homogeneous in the standard grading")
    omega = tuple(int(w) for w in omega)
    if len(omega) != s or any(w < 0 for w in omega):
        raise DomainError("weight vector must be nonnegative of length s")
    vmap = VeroneseMap(s, d)

    forms_ideal, monomial = ideal.initial_forms(omega, budget=budget)
    if not monomial:
        raise NonMonomialInitialError(
            "the weight initial ideal is not monomial; derive the weights "
            "with find_weight_vector first")
    init = MonomialIdeal.of_leading_terms(base, forms_ideal.generators,
                                          base.default_order())

    order = pullback_order(vmap, omega)
    seed = list(kernel_groebner_basis(s, d))

    reduced_c = reduced_o = None
    if method in ("constructive", "both"):
        gens = homogeneous_pullback_generators(ideal, vmap, omega, budget)
        reduced_c = buchberger(gens, order, budget=budget, seed_gb=seed)
    if method in ("oracle", "both"):
        reduced_o = preimage_oracle(ideal, vmap, order, budget=budget)
    if method == "both" and tuple(reduced_c) != tuple(reduced_o):
        raise InternalCheckError("constructive and oracle pullbacks disagree")
    reduced = reduced_c if reduced_c is not None else reduced_o

    cert = {}
    if init.is_zero:
        cert.update(bound=None, meets_bound=True)
    else:
        bound = quadratic_pullback_bound(s, init.max_exponent())
        cert.update(bound=bound, meets_bound=d >= bound)
    lhs = MonomialIdeal.of_leading_terms(vmap.ring, reduced, order)
    if init.is_zero:
        rhs = kernel_initial(s, d)
    else:
        mono = pullback_monomial_ideal(init, d, budget=budget).reduced
        rhs = MonomialIdeal.of_leading_terms(vmap.ring, mono, vmap.order)
    cert["initial_matches_monomial_pullback"] = lhs == rhs
    base_order = base.default_order()
    base_index = _DivisorIndex.of(ideal.groebner_basis(base_order, budget),
                                  base_order, base)
    cert["members_in_target"] = all(
        not base_index.remainder(vmap.image(g), budget) for g in reduced)
    return PullbackResult(s, d, order, reduced, reduced, method, cert)


# ---------------------------------------------------------------------------
# degree bounds


@dataclass
class BoundsReport:
    """The quadratic-pullback degree bound next to the two rival bounds."""

    s: int
    max_exponent: int
    delta: int
    bound: int
    bound_raw: Fraction
    rival_rough: Fraction
    rival_stated: int

    @property
    def below_rough(self):
        return self.bound_raw < self.rival_rough

    @property
    def threshold(self):
        """The rough comparison flips exactly where max_exponent + 2 <= delta."""
        return self.max_exponent + 2 <= self.delta

    @property
    def verdicts(self):
        v = {"below_rough": self.below_rough,
             "threshold_condition": self.threshold}
        if self.delta % 2:
            v["odd_delta_not_above_stated"] = self.bound_raw <= self.rival_stated
        else:
            v["even_delta_above_stated_needs_max_ge_delta"] = (
                self.bound_raw <= self.rival_stated
                or self.max_exponent >= self.delta)
        return v


def degree_bounds(ideal, s=None):
    """Bounds for a monomial ideal: ours, the rough rival (s*delta - s + 1)/2,
    and the stated rival s*ceil(delta/2)."""
    if ideal.is_zero:
        raise DomainError("bounds are undefined for the zero ideal")
    if s is None:
        s = ideal.ring.s if ideal.ring.s else ideal.ring.nvars
    a = ideal.max_exponent()
    delta = ideal.max_total_degree()
    raw = Fraction(s * (a + 1), 2)
    return BoundsReport(
        s, a, delta, math.ceil(raw), raw,
        Fraction(s * delta - s + 1, 2), s * math.ceil(Fraction(delta, 2)))
