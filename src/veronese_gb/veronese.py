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
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

from .errors import (DomainError, InternalCheckError, NonMonomialInitialError,
                     RingMismatchError)
from .groebner import (Budget, Ideal, MonomialIdeal, _DivisorIndex,
                       _ExponentIndex, _front_free, _reduce_basis, buchberger,
                       eliminate, elimination_order, find_weight_vector,
                       graph_ideal, is_groebner_basis, monomial_image)
from .orders import GammaRevLex, Weighted, multi_indices
from .polyring import (Polynomial, as_integer, base_ring, mono_divides,
                       veronese_ring)
from .values import Record, Value, init_attr

# The pullback methods: the constructive basis, alone or checked against
# the elimination oracle's.
METHODS = ("constructive", "both")
# Largest count of candidate exchange pairs times ring variables of a shape
# that VeroneseMap admits; exchange_binomials enumerates each pair as two
# dense exponent tuples.  (2, 100) needs about 10^6; the largest shapes in
# use, (3, 6) and (4, 4), need 37,044 and 84,000.
MAX_EXCHANGE_WORK = 10**7


class VeroneseMap(Value):
    """The substitution sending each degree-d variable to its base monomial.

    Building the map is where a shape (s, d) is admitted: a shape whose
    candidate exchange pairs times ring variables exceed
    ``MAX_EXCHANGE_WORK`` is refused here, so every route through the map,
    the kernel bases, the standard-monomial table, the elimination oracle
    and both pullbacks, refuses it before any work.
    """

    _fields = ("s", "d")

    def __init__(self, s, d):
        if s < 1 or d < 1:
            raise DomainError(f"need s >= 1 and d >= 1, got s={s}, d={d}")
        super().__init__(s, d)
        init_attr(self, "ring", veronese_ring(s, d))
        candidates = math.comb(d + s - 2, s - 1) ** 2 * math.comb(s, 2)
        if candidates * self.ring.nvars > MAX_EXCHANGE_WORK:
            raise DomainError(
                f"the exchange binomials for s={s}, d={d} have {candidates} "
                f"candidate pairs over {self.ring.nvars} variables, past the "
                f"cap of {MAX_EXCHANGE_WORK} pairs times variables")
        init_attr(self, "base", base_ring(s))
        init_attr(self, "order", GammaRevLex(s, d))

    def image_exps(self, u):
        """Exponent vector of the image monomial in the base ring."""
        return monomial_image(self.ring.indices, u)

    def image(self, poly):
        if poly.ring != self.ring:
            raise RingMismatchError("polynomial is not in the Veronese ring")
        terms = {}
        for e, coeff in poly.terms.items():
            c = self.image_exps(e)
            terms[c] = terms.get(c, 0) + coeff
        # each sum is a Fraction and each key has s entries, so the terms
        # need only their zeros dropped
        return Polynomial(self.base, {c: v for c, v in terms.items() if v},
                          _clean=True)

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
        if len(c) != self.s:
            raise DomainError(f"need an image with {self.s} entries, "
                              f"got {len(c)}")
        total = sum(c)
        if total % self.d:
            raise DomainError("degree must be a multiple of d to lift")
        rem = list(c)
        exps = [0] * self.ring.nvars
        pos_of = self.ring.index_position
        for _ in range(total // self.d):
            a = self.min_divisor_of_image(tuple(rem))
            exps[pos_of[a]] += 1
            for j in range(self.s):
                rem[j] -= a[j]
        return tuple(exps)

    def lift(self, poly):
        """Termwise minimum preimage of a base polynomial of d-divisible
        degrees; distinct terms have distinct preimages, so none are summed."""
        if poly.ring != self.base:
            raise RingMismatchError("polynomial is not in the base ring")
        return Polynomial(self.ring, {self.min_preimage(e): coeff
                                      for e, coeff in poly.terms.items()},
                          _clean=True)


@lru_cache(maxsize=None)
def exchange_binomials(s, d):
    """All nonzero quadratic exchange binomials, deduplicated and oriented.

    For every pair of degree-(d-1) indices and positions i < j, the product
    of the two bumped variables equals the cross-bumped product in the base
    ring; the difference is normalized so its leading term has coefficient +1
    under the chain revlex order.  Shapes past ``MAX_EXCHANGE_WORK`` are
    refused by :class:`VeroneseMap` before enumerating.
    """
    vmap = VeroneseMap(s, d)
    ring, order = vmap.ring, vmap.order
    pos_of = ring.index_position

    def bump(a, i):
        b = list(a)
        b[i] += 1
        return pos_of[tuple(b)]

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
    """Reduced basis of the substitution kernel under the chain revlex order,
    ascending, read off the standard-monomial table of degree 2.

    The kernel is toric, so the normal form of a monomial is the least
    monomial of its fiber, and its reduced basis is quadratic (Sturmfels,
    *Gröbner Bases and Convex Polytopes*, ch. 4 and 14; Conti and Traverso,
    AAECC-9, 1991).  The kernel holds no linear form, so every quadratic
    monomial m that is not its fiber's minimum is a minimal leading term,
    and the basis is {m - min fiber(m)}; :func:`_standard_table` holds the
    minima.  A shape past ``MAX_EXCHANGE_WORK`` is refused by
    :class:`VeroneseMap` before the table is read.
    :func:`verify_exchange_basis` certifies that this basis is the
    interreduced exchange binomials and the oracle's.
    """
    vmap = VeroneseMap(s, d)
    ring, key = vmap.ring, vmap.order.key
    least = _standard_table(s, d, 2)
    indices = ring.indices
    n = ring.nvars
    out = []
    for p in range(n):
        for q in range(p, n):
            e = [0] * n
            e[p] += 1
            e[q] += 1
            m = tuple(e)
            low = least[tuple(map(add, indices[p], indices[q]))]
            if m != low:
                out.append((key(m), Polynomial(
                    ring, {m: Fraction(1), low: Fraction(-1)}, _clean=True)))
    out.sort(key=lambda item: item[0])
    return tuple(g for _, g in out)


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
    return buchberger(gens, elimination_order(s, vmap.order))


@lru_cache(maxsize=None)
def kernel_oracle_basis(s, d):
    """Kernel reduced basis recomputed by elimination, independent of the
    constructive route."""
    return _front_free(_joint_graph_gb(s, d), s, VeroneseMap(s, d).ring)


# How many (s, d, omega or None) contexts preimage_oracle keeps, and how many
# results each context keeps.
ORACLE_MEMO_SIZE = 8
# How many key-memo entries a context's order may keep from one run to the
# next.
ORACLE_KEY_MEMO_CAP = 500


class _OracleContext:
    """Where each seeded elimination of one shape under one target order
    starts, and what it found: the joint ring and the graph generators,
    ``index``, the divisor index over :func:`_joint_graph_gb` under the
    elimination order, which each run copies, and ``results``, the latest
    reduced bases, least recently used first, keyed by base generators."""

    __slots__ = ("joint", "gens", "index", "results")

    def __init__(self, s, d, omega):
        vmap = VeroneseMap(s, d)
        self.joint, self.gens = graph_ideal(vmap.ring.indices, vmap.ring)
        order = elimination_order(
            s, vmap.order if omega is None else pullback_order(vmap, omega))
        self.index = _DivisorIndex.of(_joint_graph_gb(s, d), order, self.joint)
        self.results = OrderedDict()


_oracle_context = lru_cache(maxsize=ORACLE_MEMO_SIZE)(_OracleContext)


def preimage_oracle(ideal, vmap, omega=None, budget=None):
    """Reduced basis of the full preimage of an ideal, computed by elimination.

    Joins the base ideal's generators to the substitution graph and
    eliminates the base variables under ``elimination_order(s, order)``,
    seeded with the graph ideal's basis, which :func:`_joint_graph_gb`
    computed under the chain order.  The graph generators go in although
    the seed holds them: when an embedded generator of degree below d
    divides z^a, the generator x_a - z^a reduces at once to a preimage
    element that S-pairs would otherwise have to find.

    The target order is the chain order, or ``pullback_order(vmap, omega)``
    for base weights ``omega``, read as :func:`pullback_homogeneous_ideal`
    reads them, and the seed is a Gröbner basis under the block order of
    either.  Each seed element is a binomial with coprime terms that keeps
    its leading term: when a term holds a base variable the front block
    decides, and when neither does it is a kernel binomial, whose terms
    have the same pulled-back weight, so the chain tie decides.
    The graph ideal is homogeneous for deg z = 1, deg x = d, so with the
    same leading terms both initial ideals have its Hilbert function, and
    one contains the other.  With ω the elimination takes pairs by their
    lcm's degree in that grading, in which the embedded generators are
    homogeneous too, and so reduces fewer S-pairs for the same basis;
    without ω it takes them by plain lcm degree.

    Each run starts from the context of (s, d, ω), one of the latest
    ``ORACLE_MEMO_SIZE``: the joint ring and graph generators, built once,
    an elimination order of its own, and the divisor index over the seed
    under it, which each run copies rather than rebuilds.  The context also
    remembers the results of its latest ``ORACLE_MEMO_SIZE`` distinct calls,
    keyed by the base generators in their given order.  A repeated call
    returns the remembered tuple and charges the budget nothing; a call
    stopped by a cap remembers nothing.  The keys are values, so no caller's
    order lives on in them.  After a run the context empties its order's key
    memo when it holds more than ``ORACLE_KEY_MEMO_CAP`` entries.  A
    memoized key equals a computed one and the copied index equals a rebuilt
    one, so a context changes no pair, criterion decision or basis.  The
    seed is a function of (s, d) alone, so a context built before
    :func:`_joint_graph_gb` was emptied still holds the basis it would
    return now.
    """
    if ideal.ring != vmap.base:
        raise RingMismatchError("ideal must live in the base ring")
    s, d = vmap.s, vmap.d
    if omega is not None:
        omega = _base_weights(omega, s)
    context = _oracle_context(s, d, omega)
    results, key = context.results, ideal.generators
    gb = results.get(key)
    if gb is not None:
        results.move_to_end(key)
        return gb
    if budget is None:
        budget = Budget()
    position_map = list(range(s)) + [-1] * vmap.ring.nvars
    embedded = [g.map_positions(context.joint, position_map)
                for g in ideal.generators]
    index = context.index
    # the chain case takes the same grading with the counter revision that
    # moves its pinned S-pair counts (ROADMAP item 2)
    grading = None if omega is None else (1,) * s + (d,) * vmap.ring.nvars
    try:
        gb = eliminate(embedded + context.gens, s, vmap.ring,
                       index.order.back_order, budget=budget, seed_gb=index,
                       grading=grading)
    finally:
        if len(index.order._cache) > ORACLE_KEY_MEMO_CAP:
            index.order._cache.clear()
    results[key] = gb
    if len(results) > ORACLE_MEMO_SIZE:
        results.popitem(last=False)
    return gb


# ---------------------------------------------------------------------------
# kernel certification


def verify_exchange_basis(s, d, budget=None):
    """Certify the exchange binomials: kernel membership, S-pair closure,
    and agreement with the elimination oracle.

    Returns the certificate that ``veronese --verify`` reports: the
    verdicts ``in_kernel``, ``is_groebner`` and ``matches_oracle``, the
    S-pairs of the closure check in ``spairs_checked``, the size of the
    interreduction in ``reduced_size``, and ``ok``, all three verdicts.
    The exchange binomials are interreduced here, so that the closure check
    proves they generate the kernel whose reduced basis is compared;
    ``matches_oracle`` holds only when that interreduction,
    :func:`kernel_groebner_basis` and :func:`kernel_oracle_basis` are one
    tuple.
    """
    vmap = VeroneseMap(s, d)
    basis = exchange_binomials(s, d)
    in_kernel = all(not vmap.image(g) for g in basis)
    check = is_groebner_basis(basis, vmap.order, budget=budget,
                              skip_coprime=False)
    reduced = _reduce_basis(list(basis), vmap.order)
    matches = reduced == kernel_groebner_basis(s, d) == \
        tuple(kernel_oracle_basis(s, d))
    return {"in_kernel": in_kernel, "is_groebner": check.ok,
            "matches_oracle": matches, "spairs_checked": check.spairs,
            "reduced_size": len(reduced),
            "ok": in_kernel and check.ok and matches}


# ---------------------------------------------------------------------------
# standard monomials and monomial-ideal pullbacks


# How many (s, d, degree) keys _standard_table keeps.
STANDARD_TABLE_SIZE = 64


@lru_cache(maxsize=STANDARD_TABLE_SIZE)
def _standard_table(s, d, degree):
    """The standard monomials of the given degree, keyed by their images,
    in ascending position order.

    The kernel is toric, so a monomial is standard exactly when it is the
    least monomial of its fiber, the monomials with its image; there is one
    for each base monomial c of degree ``degree * d``.  With a the least
    variable whose image divides c, it is the table's monomial one degree
    down for c - a, raised at a: the peel of :meth:`VeroneseMap.min_preimage`.
    Ascending position order is descending order of exponent vectors.
    """
    if degree < 0:
        raise DomainError(f"need degree >= 0, got {degree}")
    vmap = VeroneseMap(s, d)
    if degree == 0:
        return {(0,) * s: (0,) * vmap.ring.nvars}
    lower = _standard_table(s, d, degree - 1)
    pos_of = vmap.ring.index_position
    rows = []
    # undecorated, so that no unbounded cache keeps what the table evicts
    for c in multi_indices.__wrapped__(s, degree * d):
        a = vmap.min_divisor_of_image(c)
        e = lower[tuple(x - y for x, y in zip(c, a))]
        p = pos_of[a]
        rows.append((e[:p] + (e[p] + 1,) + e[p + 1:], c))
    rows.sort(reverse=True)
    return {c: e for e, c in rows}


def standard_monomials(s, d, degree):
    """Monomials of the Veronese ring of the given degree outside the kernel's
    leading-term ideal, in ascending position order: the least monomial of
    each fiber of the substitution.

    They are read from a table of the latest ``STANDARD_TABLE_SIZE`` distinct
    (s, d, degree) keys; a missing key is built from the key one degree
    down.  The degrees are read in ascending order, so a miss finds the key
    below in the table and no build recurses further.  Reading the table
    charges no budget.
    """
    for lower in range(degree):
        _standard_table(s, d, lower)
    yield from _standard_table(s, d, degree).values()


# Read only by perfbench's cache counters.
@lru_cache(maxsize=None)
def _kernel_initial_for(s, d):
    return kernel_initial(s, d)


def quadratic_pullback_bound(s, a):
    """Least d certified to give a quadratic pullback basis: ceil(s(a+1)/2)."""
    return math.ceil(Fraction(s * (a + 1), 2))


def bound_certificate(ideal, d):
    """The quadratic bound of a monomial ideal in y1..ys and whether d meets
    it, as certificate fields; the zero ideal has no bound and meets it."""
    if ideal.is_zero:
        return {"bound": None, "meets_bound": True}
    bound = quadratic_pullback_bound(ideal.ring.s, ideal.max_exponent())
    return {"bound": bound, "meets_bound": d >= bound}


def monomial_pullback_generators(ideal, d, degree_cap=2):
    """Minimal generators, up to the degree cap, of the ideal of standard
    monomials whose image lands in the given monomial ideal.  The table is
    read from degree 0, so the unit ideal pulls back to the unit ideal.

    The standard monomials of each degree and their images come from the
    table behind :func:`standard_monomials`, so only the first pullback of a
    shape and degree builds them.  When d meets the quadratic bound a cap of
    2 gives every generator.  Below it, max(2, δ) does, with δ the largest
    degree of a minimal generator of the ideal J: if a standard monomial m,
    a product of variables x_{a_1}..x_{a_k}, has image Σ a_i ≥ g for a
    minimal generator g, take for each coordinate j at most g_j factors
    with a positive j-th entry whose j-th entries reach g_j.  Together they
    make a divisor of m of degree at most deg g ≤ δ whose image lies in J,
    and a divisor of a standard monomial is standard.
    """
    if ideal.ring.kind != "S":
        raise DomainError("pullbacks need a base ring y1..ys")
    if ideal.is_zero:
        raise DomainError("the zero ideal has no pullback generators")
    if degree_cap < 1:
        raise DomainError("degree cap must be at least 1")
    s = ideal.ring.s
    accepted = []
    found = _ExponentIndex()
    for degree in range(degree_cap + 1):
        for image, e in _standard_table(s, d, degree).items():
            # the lookup over s variables before the one over the ring's
            if ideal.contains(image) and not found.divisors(e):
                accepted.append(e)
                found.add(e)
    return tuple(accepted)


class PullbackResult(Record):
    """The constructive Gröbner basis of a pullback ideal under ``order``,
    its interreduction and the checks behind them; ``omega`` holds the base
    weights of a homogeneous pullback."""

    def __init__(self, order, groebner_basis, reduced, certificate,
                 omega=None):
        self.order = order
        self.groebner_basis = groebner_basis
        self.reduced = reduced
        self.certificate = certificate
        self.omega = omega

    @property
    def max_degree(self):
        return max((g.total_degree() for g in self.groebner_basis), default=0)


def _check_method(method):
    if method not in METHODS:
        raise DomainError(f"method must be one of {', '.join(METHODS)}, "
                          f"got {method!r}")


def _record_groebner_check(cert, basis, reduced, order, budget):
    """Adds to a certificate whether ``basis`` is a Gröbner basis, checked
    through ``reduced``, its interreduction, and the S-pairs that took.

    The verdict is true exactly when ``reduced`` passes the S-pair test,
    each of its leading terms is a multiple of one of ``basis``, and every
    element of ``basis`` reduces to zero on it.  Then in(⟨reduced⟩) =
    ⟨lt reduced⟩ ⊆ ⟨lt basis⟩ ⊆ in(⟨basis⟩) ⊆ in(⟨reduced⟩), by the three
    conditions in turn, so ⟨lt basis⟩ = in(⟨basis⟩): ``basis`` is a Gröbner
    basis whether or not the interreduction was right.  The S-pair test
    alone would not do: minimalizing a basis that is not a Gröbner basis
    can drop one of its generators.
    """
    index = _DivisorIndex.of(reduced, order, basis[0].ring if basis else None)
    check = is_groebner_basis(index, order, budget=budget)
    lts = _ExponentIndex()
    for g in basis:
        lts.add(g.leading_term(order)[0])
    cert["is_groebner"] = (
        check.ok and all(lts.divisors(item[2]) for item in index.items)
        and not any(index.remainder(g, budget) for g in basis))
    cert["spairs_checked"] = check.spairs


def pullback_monomial_ideal(ideal, d, verify=False, budget=None,
                            method="constructive"):
    """Pullback of a monomial ideal: exchange binomials plus the standard
    monomial generators form a Gröbner basis under the chain revlex order.

    The basis is complete at every d.  At the quadratic bound the
    generators of degree at most 2 are all of them, by the theorem; below
    it the degree cap is the elimination oracle's largest generator degree,
    and ``matches_oracle`` records whether the reduced basis equals the
    oracle's.  ``method="both"`` runs the oracle at the bound too and raises
    :class:`InternalCheckError` when the two differ.  ``verify`` certifies
    that the returned basis, the union of the exchange binomials and the
    generators, is a Gröbner basis, through its reduced basis, whose
    S-pairs ``spairs_checked`` counts (see :func:`_record_groebner_check`).
    The elimination runs at most once, and the zero ideal pulls back to the
    kernel under every method.
    """
    _check_method(method)
    if budget is None:
        budget = Budget()
    ring = ideal.ring
    if ring.kind != "S":
        raise DomainError("pullbacks need a base ring y1..ys")
    s = ring.s
    vmap = VeroneseMap(s, d)
    order = vmap.order
    kernel = exchange_binomials(s, d)
    bounds = bound_certificate(ideal, d)
    below = not bounds["meets_bound"]
    # "complete" is always true; the benchmark's pinned digests and result
    # check read it until the benchmark is next revised
    cert = dict(bounds, complete=True, method_note="exchange binomials plus "
                "standard-monomial generators")
    oracle_gb = None
    if ideal.is_zero:
        basis = tuple(kernel)
        reduced = kernel_groebner_basis(s, d)
    else:
        if below or method == "both":
            oracle_gb = preimage_oracle(Ideal(ring, ideal.polynomials()), vmap,
                                        budget=budget)
        cap = 2
        if below:
            cap = max(cap, max((g.total_degree() for g in oracle_gb),
                               default=1))
        gens = monomial_pullback_generators(ideal, d, degree_cap=cap)
        basis = tuple(kernel) + tuple(vmap.ring.monomial(e) for e in gens)
        reduced = _reduce_basis(list(basis), order, budget)
        cert["degree_cap"] = cap
    cert["members_in_target"] = all(_maps_into_monomial(vmap, g, ideal)
                                    for g in basis)
    if verify:
        _record_groebner_check(cert, basis, reduced, order, budget)
    if oracle_gb is not None:
        cert["matches_oracle"] = tuple(reduced) == tuple(oracle_gb)
        if method == "both" and not cert["matches_oracle"]:
            raise InternalCheckError("constructive and oracle pullbacks disagree")
    return PullbackResult(order, basis, reduced, cert)


def _maps_into_monomial(vmap, g, ideal):
    """Whether every term of the image of g lies in the monomial ideal; a
    kernel element's image is zero."""
    return all(ideal.contains(u) for u in vmap.image(g).terms)


def _base_weights(omega, s):
    """The base weights ω as a tuple of ints, each entry read with
    :func:`as_integer`; refused unless nonnegative and of length s."""
    omega = tuple(as_integer(w, "entries of omega") for w in omega)
    if len(omega) != s or any(w < 0 for w in omega):
        raise DomainError("weight vector must be nonnegative of length s")
    return omega


def weight_pullback(omega, vmap):
    """Weights on the Veronese variables induced by base weights."""
    if len(omega) != vmap.s:
        raise DomainError("weight vector length must match the base ring")
    return tuple(sum(w * a for w, a in zip(omega, idx))
                 for idx in vmap.ring.indices)


def pullback_order(vmap, omega):
    """Weighted order on the Veronese ring with the chain revlex tiebreak."""
    return Weighted(weight_pullback(tuple(omega), vmap), vmap.order)


def homogeneous_pullback_generators(basis, vmap):
    """Lifts of the padded multiples of a basis of a homogeneous ideal; with
    the kernel they generate the ideal's preimage.

    Every basis element of degree e, multiplied by all monomials filling it
    up to the next multiple of d, lands in the image subring; the
    substitution is onto the subring spanned by d-divisible degrees, so
    these multiples, lifted termwise, and the kernel generate the preimage.
    """
    base = vmap.base
    lifts = []
    d = vmap.d
    for f in basis:
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
    return lifts


def _constructive_pullback(basis, vmap, order, budget):
    """Reduced basis of the preimage of the ideal a basis generates, under
    the given order: Buchberger on :func:`homogeneous_pullback_generators`,
    seeded with the kernel basis."""
    return buchberger(homogeneous_pullback_generators(basis, vmap), order,
                      budget=budget,
                      seed_gb=list(kernel_groebner_basis(vmap.s, vmap.d)))


def pullback_homogeneous_ideal(ideal, d, omega=None, method="constructive",
                               budget=None, verify=False):
    """Pullback of a homogeneous ideal under a weight vector whose initial
    ideal is monomial, with the weighted chain revlex order.

    Without ``omega`` the weights come from :func:`find_weight_vector` for
    the base ring's default order, so that the weight initial ideal is the
    initial ideal; the result records the weights used.  The certificate
    records the quadratic bound for the weight initial ideal and that the
    pullback's leading-term ideal agrees with the pullback of the weight
    initial ideal; ``verify`` adds the S-pair check of the returned basis.
    ``method="both"`` also runs the weighted elimination oracle and raises
    :class:`InternalCheckError` when its basis differs.  A shape past
    ``MAX_EXCHANGE_WORK`` is refused by :class:`VeroneseMap` right after the
    checks that read only the input, before any weight, initial form or lift
    is computed.

    The returned basis lifts the weighted basis of I that
    :meth:`Ideal.initial_forms` computed.  The right-hand side of the check,
    the chain-order leading-term ideal of the pullback P(J) of J = in_ω(I),
    is the kernel's plus the standard monomials whose image lies in J, read
    from the table of :func:`monomial_pullback_generators` up to a degree
    cap; no S-pair is reduced.  Every other monomial lies in the kernel's
    leading-term ideal, and a standard monomial m lies in in(P(J)) exactly
    when its image c lies in J: if f in P(J) has leading term m and
    c is not in J, the coefficients of f over the fiber of c sum to 0, since
    the image of f lies in the monomial ideal J, so f has another term in
    that fiber, below m; but m is the least monomial of its fiber.  The cap
    is 2 at or above the bound, by the theorem, and max(2, δ) below it, δ
    the largest degree of a minimal generator of J, by the divisor argument
    of :func:`monomial_pullback_generators`.
    """
    _check_method(method)
    if budget is None:
        budget = Budget()
    base = ideal.ring
    s = base.s
    if base.kind != "S":
        raise DomainError("pullbacks need a base ring y1..ys")
    if not ideal.is_homogeneous():
        raise DomainError("ideal must be homogeneous in the standard grading")
    if omega is not None:
        omega = _base_weights(omega, s)
    vmap = VeroneseMap(s, d)
    if omega is None:
        omega = find_weight_vector(ideal, base.default_order(), budget)

    forms_ideal, monomial = ideal.initial_forms(omega, budget=budget)
    if not monomial:
        raise NonMonomialInitialError(
            "the weight initial ideal is not monomial; leave the weights out "
            "to derive them with find_weight_vector from the default order")
    init = MonomialIdeal.of_leading_terms(base, forms_ideal.generators,
                                          base.default_order())

    order = pullback_order(vmap, omega)

    source = ideal.groebner_basis(Weighted(omega, base.default_order()),
                                  budget)
    reduced = _constructive_pullback(source, vmap, order, budget)
    if method == "both" and tuple(reduced) != tuple(
            preimage_oracle(ideal, vmap, omega, budget=budget)):
        raise InternalCheckError("constructive and oracle pullbacks disagree")

    cert = bound_certificate(init, d)
    lhs = MonomialIdeal.of_leading_terms(vmap.ring, reduced, order)
    if init.is_zero:
        pulled = ()
    else:
        cap = 2 if cert["meets_bound"] else max(2, init.max_total_degree())
        pulled = monomial_pullback_generators(init, d, degree_cap=cap)
    rhs = MonomialIdeal.from_exponents(vmap.ring,
                                       kernel_initial(s, d).gens + pulled)
    cert["initial_matches_monomial_pullback"] = lhs == rhs
    cert["members_in_target"] = all(
        ideal.contains(vmap.image(g), budget=budget) for g in reduced)
    if verify:
        _record_groebner_check(cert, reduced, reduced, order, budget)
    return PullbackResult(order, reduced, reduced, cert, omega)


# ---------------------------------------------------------------------------
# degree bounds


class BoundsReport(Record):
    """The quadratic-pullback degree bound next to the two rival bounds."""

    def __init__(self, s, max_exponent, delta, bound, bound_raw, rival_rough,
                 rival_stated):
        self.s = s
        self.max_exponent = max_exponent
        self.delta = delta
        self.bound = bound
        self.bound_raw = bound_raw
        self.rival_rough = rival_rough
        self.rival_stated = rival_stated

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


def degree_bounds(ideal):
    """Bounds for a monomial ideal: ours, the rough rival (s*delta - s + 1)/2,
    and the stated rival s*ceil(delta/2), with s the ring's variable count."""
    if ideal.is_zero:
        raise DomainError("bounds are undefined for the zero ideal")
    s = ideal.ring.nvars
    a = ideal.max_exponent()
    delta = ideal.max_total_degree()
    return BoundsReport(
        s, a, delta, quadratic_pullback_bound(s, a), Fraction(s * (a + 1), 2),
        Fraction(s * delta - s + 1, 2), s * math.ceil(Fraction(delta, 2)))
