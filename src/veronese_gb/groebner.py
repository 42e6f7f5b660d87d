"""Division, Buchberger's algorithm, elimination, and initial ideals.

All computations are exact.  Buchberger uses the normal selection strategy
(smallest lcm degree first) with the coprimality and chain criteria, a hard
cap on processed S-pairs, and a guard on coefficient size; hitting either cap
raises ``BudgetExceededError`` instead of returning a truncated basis.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (BudgetExceededError, DomainError, InternalCheckError,
                     RingMismatchError)
from .orders import Block, GrevLex, TermOrder, Weighted
from .polyring import (Polynomial, add_terms, generic_ring, joint_ring,
                       mono_deg, mono_div, mono_divides, mono_gcd_is_one,
                       mono_lcm)

DEFAULT_SPAIR_CAP = 10**6
DEFAULT_COEFF_BITS = 1_000_000


def default_spair_cap():
    raw = os.environ.get("VERONESE_GB_BUDGET")
    if not raw:
        return DEFAULT_SPAIR_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(
            f"VERONESE_GB_BUDGET must be an integer, got {raw!r}") from None


@dataclass
class Budget:
    """Resource caps; counters survive across the calls sharing the budget."""

    spair_cap: int = None
    coeff_bits: int = DEFAULT_COEFF_BITS
    spairs: int = 0

    def __post_init__(self):
        if self.spair_cap is None:
            self.spair_cap = default_spair_cap()

    def charge_spair(self):
        self.spairs += 1
        if self.spairs > self.spair_cap:
            raise BudgetExceededError(
                f"S-pair budget of {self.spair_cap} exhausted")

    def check_coeff(self, c):
        if c.numerator.bit_length() + c.denominator.bit_length() > self.coeff_bits:
            raise BudgetExceededError("coefficient size cap exceeded")


def _support_mask(exps):
    mask = 0
    for i, x in enumerate(exps):
        if x:
            mask |= 1 << i
    return mask


class _SupportBuckets:
    """Exponent vectors with attached items, looked up by divisibility.

    Entries live in buckets named by the smallest position in their vector's
    support and carry a support bitmask, so a lookup scans only the buckets
    of the target's support and drops most candidates with a single integer
    test.
    """

    def __init__(self):
        self.buckets = {}

    def add(self, exps, item):
        slot = next((i for i, x in enumerate(exps) if x), -1)
        # a vector with no exponent above 1 divides exactly where its
        # support does, so the mask test alone decides it
        check = exps if max(exps, default=0) > 1 else None
        self.buckets.setdefault(slot, []).append(
            (_support_mask(exps), check, item))

    def divisors(self, exps):
        """Items whose exponent vector divides ``exps``, lazily."""
        for _, _, item in self.buckets.get(-1, ()):
            yield item
        outside = ~_support_mask(exps)
        for i, x in enumerate(exps):
            if not x:
                continue
            for mask, check, item in self.buckets.get(i, ()):
                if not mask & outside and \
                        (check is None or mono_divides(check, exps)):
                    yield item


class _DivisorIndex:
    """Picks, for a monomial, the dividing basis element with least leading term.

    Items are (lt_key, seq, lt_exps, lt_coeff, tail, poly), bucketed by
    leading term, where ``tail`` holds the terms below the leading one;
    ``seq`` is the insertion position, so among equal leading terms the
    earliest element wins.
    """

    def __init__(self, order):
        self.order = order
        self.items = []
        self.buckets = _SupportBuckets()

    @classmethod
    def of(cls, polys, order, ring):
        """Index over a fixed divisor list, each leading term computed once."""
        index = cls(order)
        for g in polys:
            if g.ring != ring:
                raise RingMismatchError("divisor lives in a different ring")
            if not g:
                raise DomainError("zero polynomial among divisors")
            index.add(g, g.leading_term(order)[0])
        return index

    def add(self, poly, lt):
        tail = {e: c for e, c in poly.terms.items() if e != lt}
        item = (self.order.key(lt), len(self.items), lt, poly.terms[lt], tail,
                poly)
        self.items.append(item)
        self.buckets.add(lt, item)

    def find(self, exps):
        return min(self.buckets.divisors(exps), default=None)

    def remainder(self, f, budget=None):
        """Remainder of f on division by the indexed elements."""
        return Polynomial(f.ring, _reduce_terms(f.terms, self, self.order,
                                                budget), _clean=True)


def _content_scale(values):
    """The positive scalar turning the values into coprime integers."""
    num = den = 0
    for c in values:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator) if den else c.denominator
    if not num:
        return Fraction(1)
    return Fraction(den, num)


def _rescale_content(p, r):
    """Divide both halves by their joint content (overall positive scalar)."""
    scale = _content_scale(list(p.values()) + list(r.values()))
    if scale == 1:
        return p, r
    return ({e: c * scale for e, c in p.items()},
            {e: c * scale for e, c in r.items()})


def _primitive(poly, order):
    """Content-free integer scalar multiple with a positive leading coefficient."""
    scale = _content_scale(poly.terms.values())
    if poly.leading_term(order)[1] < 0:
        scale = -scale
    return poly * scale if scale != 1 else poly


def _reduce_terms(terms, index, order, budget=None, scale_ok=False):
    """Remainder of the term dict against the indexed divisors.

    With ``scale_ok`` the result is only guaranteed up to a positive scalar:
    long division chains get their content stripped periodically, which keeps
    coefficient growth additive instead of compounding (the basis elements
    are monic, so their fractional tails would otherwise pile up).
    """
    p = dict(terms)
    r = {}
    key = order.key
    steps = 0
    while p:
        u = max(p, key=key)
        c = p.pop(u)
        hit = index.find(u)
        if hit is None:
            r[u] = c
            continue
        _, _, lt, lc, tail, _ = hit
        factor = c / lc
        if budget is not None:
            budget.check_coeff(factor)
        add_terms(p, tail, -factor, mono_div(u, lt))
        if scale_ok:
            steps += 1
            if steps % 16 == 0:
                p, r = _rescale_content(p, r)
    return r


def normal_form(f, divisors, order, budget=None):
    """Remainder of f on division by the divisor list.

    No remainder term is divisible by any divisor's leading term; when the
    divisors form a Gröbner basis the result is the canonical normal form.
    The divisor picked at each step is the dividing element with the least
    leading term, so the remainder is deterministic.
    """
    return _DivisorIndex.of(divisors, order, f.ring).remainder(f, budget)


def s_polynomial(f, g, order):
    """lcm(lt f, lt g)/lt(f) * f - lcm/lt(g) * g with monic multipliers."""
    if f.ring != g.ring:
        raise RingMismatchError("S-polynomial of polynomials in different rings")
    if not f or not g:
        raise DomainError("S-polynomial of the zero polynomial")
    return Polynomial(f.ring, _spoly(f, f.leading_term(order)[0],
                                     g, g.leading_term(order)[0]), _clean=True)


def _spoly(f, ltf, g, ltg):
    """The terms of the S-polynomial of f and g given their leading exponents."""
    lcm = mono_lcm(ltf, ltg)
    terms = {}
    add_terms(terms, f.terms, 1 / f.terms[ltf], mono_div(lcm, ltf))
    add_terms(terms, g.terms, -1 / g.terms[ltg], mono_div(lcm, ltg))
    return terms


@dataclass
class GBStats:
    spairs: int = 0
    skipped_coprime: int = 0
    skipped_chain: int = 0
    basis_peak: int = 0


def buchberger(generators, order, *, budget=None, seed_gb=None, stats=None):
    """Reduced Gröbner basis of the generated ideal, ascending by leading term.

    ``seed_gb`` may carry a list already known to be a Gröbner basis under
    ``order``; its internal S-pairs are then skipped.
    """
    if budget is None:
        budget = Budget()
    if stats is None:
        stats = GBStats()
    generators = list(generators)
    ring = generators[0].ring if generators else None
    if seed_gb:
        ring = seed_gb[0].ring

    basis = []            # (poly, lt_exps, lt_key)
    index = None
    done = set()
    # Selection: smallest lcm under the order (what the tie-sensitive plain
    # lex case needs), except that elimination blocks go degree-first inside
    # the queue, which empirically keeps the joint-ring runs shallow.
    if isinstance(order, Block):
        def selection_key(lcm):
            return (mono_deg(lcm), order.key(lcm))
    else:
        def selection_key(lcm):
            return (order.key(lcm), mono_deg(lcm))
    queue = []            # heap of (selection_key(lcm), i, j)

    def push_pairs(j):
        ltj = basis[j][1]
        for i in range(j):
            lti = basis[i][1]
            if mono_gcd_is_one(lti, ltj):
                stats.skipped_coprime += 1
                done.add((i, j))
                continue
            lcm = mono_lcm(lti, ltj)
            heapq.heappush(queue, (selection_key(lcm), i, j))

    def append(poly):
        lt, _ = poly.leading_term(order)
        basis.append((poly, lt, order.key(lt)))
        index.add(poly, lt)
        push_pairs(len(basis) - 1)
        stats.basis_peak = max(stats.basis_peak, len(basis))

    if ring is None:
        return ()
    index = _DivisorIndex(order)
    if seed_gb:
        for g in seed_gb:
            lt, _ = g.leading_term(order)
            basis.append((g, lt, order.key(lt)))
            index.add(g, lt)
        m = len(basis)
        done.update((i, j) for j in range(m) for i in range(j))
    for f in generators:
        if f.ring != ring:
            raise RingMismatchError("generators live in different rings")
        if not f:
            continue
        r = Polynomial(ring,
                       _reduce_terms(f.terms, index, order, budget,
                                     scale_ok=True),
                       _clean=True)
        if r:
            append(_primitive(r, order))

    while queue:
        _, i, j = heapq.heappop(queue)
        if (i, j) in done:
            continue
        done.add((i, j))
        lcm = mono_lcm(basis[i][1], basis[j][1])
        chained = False
        for item in index.buckets.divisors(lcm):
            k = item[1]
            if k != i and k != j and \
                    (min(i, k), max(i, k)) in done and \
                    (min(j, k), max(j, k)) in done:
                chained = True
                break
        if chained:
            stats.skipped_chain += 1
            continue
        budget.charge_spair()
        stats.spairs += 1
        s = _spoly(basis[i][0], basis[i][1], basis[j][0], basis[j][1])
        r = Polynomial(ring,
                       _reduce_terms(s, index, order, budget, scale_ok=True),
                       _clean=True)
        if r:
            append(_primitive(r, order))

    return _reduce_basis([b[0] for b in basis], order, budget)


def _reduce_basis(polys, order, budget=None):
    """Minimalize and tail-reduce a Gröbner basis; output is monic, ascending.

    Each kept element's leading term divides no other kept leading term and
    no term below itself, so reducing its tail by the index over all kept
    elements is division by all the others.
    """
    key = order.key
    entries = sorted(((key(lt), lt, p) for p in polys if p
                      for lt in (p.leading_term(order)[0],)),
                     key=lambda t: t[0])
    index = _DivisorIndex(order)
    for _, lt, p in entries:
        if next(index.buckets.divisors(lt), None) is None:
            index.add(p, lt)
    out = []
    for _, _, lt, c, tail, p in index.items:
        terms = {lt: c}
        terms.update(_reduce_terms(tail, index, order, budget))
        if c != 1:
            terms = {e: v / c for e, v in terms.items()}
        out.append(Polynomial(p.ring, terms, _clean=True))
    return tuple(out)


@dataclass
class GBCheck:
    """Outcome of an S-pair closure check."""

    ok: bool
    spairs: int
    pair: tuple = None
    remainder: Polynomial = None


def is_groebner_basis(polys, order, *, budget=None, skip_coprime=True):
    """True when every S-pair reduces to zero; returns the witness otherwise."""
    polys = [p for p in polys if p]
    if budget is None:
        budget = Budget()
    index = _DivisorIndex.of(polys, order, polys[0].ring if polys else None)
    lts = [item[2] for item in index.items]
    count = 0
    for j in range(len(polys)):
        for i in range(j):
            if skip_coprime and mono_gcd_is_one(lts[i], lts[j]):
                continue
            budget.charge_spair()
            count += 1
            r = _reduce_terms(_spoly(polys[i], lts[i], polys[j], lts[j]),
                              index, order, budget)
            if r:
                return GBCheck(False, count, (polys[i], polys[j]),
                               Polynomial(polys[i].ring, r, _clean=True))
    return GBCheck(True, count)


def eliminate(generators, front, back_ring, back_order, *, budget=None,
              seed_gb=None, stats=None):
    """Intersect the ideal with the subring on the trailing variables.

    The generators live in a ring whose first ``front`` positions are the
    variables to remove.  Returns the reduced Gröbner basis of the
    intersection under ``back_order``, re-indexed into ``back_ring``.
    """
    generators = list(generators)
    if generators and back_ring.nvars + front != generators[0].ring.nvars:
        raise DomainError("front block plus back ring must span the joint ring")
    order = Block(front, GrevLex(front), back_order)
    gb = buchberger(generators, order, budget=budget, seed_gb=seed_gb, stats=stats)
    return _front_free(gb, front, back_ring)


def _front_free(gb, front, back_ring):
    """The elements free of the first ``front`` variables, re-indexed into
    ``back_ring``; an ascending block-order basis stays ascending."""
    position_map = [-1] * front + list(range(back_ring.nvars))
    return tuple(g.map_positions(back_ring, position_map) for g in gb
                 if all(not any(e[:front]) for e in g.terms))


def graph_ideal(points, ring):
    """The graph ideal of the monomial map sending variable i of ``ring`` to
    the Laurent monomial z^points[i], as (joint ring, generators).

    The joint ring puts z1..zn, plus an inverse-product variable w when a
    coordinate is negative, in front of ``ring``; eliminating that block
    leaves the kernel of the map.  The generators are x_i * z^neg(p_i) -
    z^pos(p_i) in point order, then w * z1*...*zn - 1 when w is present.
    """
    n = len(points[0])
    negative = any(x < 0 for p in points for x in p)
    names = tuple(f"z{j + 1}" for j in range(n)) + (("w",) if negative else ())
    joint = joint_ring(generic_ring(names), ring)
    pad = (0,) * (len(names) - n)
    no_x = (0,) * ring.nvars
    gens = []
    for i, p in enumerate(points):
        x = tuple(1 if j == i else 0 for j in range(ring.nvars))
        gens.append(Polynomial(joint, {
            tuple(max(-v, 0) for v in p) + pad + x: Fraction(1),
            tuple(max(v, 0) for v in p) + pad + no_x: Fraction(-1)}))
    if negative:
        gens.append(Polynomial(joint, {(1,) * len(names) + no_x: Fraction(1),
                                       joint.zero_exps: Fraction(-1)}))
    return joint, gens


# ---------------------------------------------------------------------------
# monomial ideals


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators (a divisibility antichain)."""

    ring: object
    gens: tuple

    @classmethod
    def from_exponents(cls, ring, exps_iter):
        cands = sorted({tuple(e) for e in exps_iter},
                       key=lambda e: (mono_deg(e), e))
        kept = []
        for e in cands:
            if not any(mono_divides(g, e) for g in kept):
                kept.append(e)
        return cls(ring, tuple(kept))

    @classmethod
    def of_leading_terms(cls, ring, polys, order):
        """The ideal generated by the leading terms of nonzero polynomials."""
        return cls.from_exponents(ring, (g.leading_term(order)[0] for g in polys))

    @property
    def is_zero(self):
        return not self.gens

    @cached_property
    def _buckets(self):
        # Built on first lookup; kept in the instance dict, outside the
        # dataclass fields, so equality and hashing ignore it.
        buckets = _SupportBuckets()
        for g in self.gens:
            buckets.add(g, g)
        return buckets

    def contains(self, exps):
        return next(self._buckets.divisors(exps), None) is not None

    def max_total_degree(self):
        """Largest total degree among the minimal generators."""
        if self.is_zero:
            raise DomainError("undefined for the zero ideal")
        return max(mono_deg(g) for g in self.gens)

    def max_exponent(self):
        """Largest single exponent appearing in any minimal generator."""
        if self.is_zero:
            raise DomainError("undefined for the zero ideal")
        return max(max(g) for g in self.gens)

    def polynomials(self):
        return tuple(self.ring.monomial(g) for g in self.gens)

    def __contains__(self, exps):
        return self.contains(exps)


# ---------------------------------------------------------------------------
# ideals with cached reduced bases


class Ideal:
    """Generator list plus a cache of reduced Gröbner bases keyed by order."""

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring, generators=()):
        object.__setattr__(self, "ring", ring)
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator outside the ideal's ring")
            if g:
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self, order, budget=None, seed_gb=None):
        gb = self._cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, order, budget=budget, seed_gb=seed_gb)
            self._cache[order] = gb
        return gb

    def normal_form(self, f, order, budget=None):
        return normal_form(f, self.groebner_basis(order, budget), order, budget)

    def contains(self, f, order=None, budget=None):
        if order is None:
            order = self.ring.default_order()
        return not self.normal_form(f, order, budget)

    def initial_ideal(self, order, budget=None):
        return MonomialIdeal.of_leading_terms(
            self.ring, self.groebner_basis(order, budget), order)

    def initial_forms(self, weights, tie=None, budget=None):
        """Ideal spanned by the top-weight forms of a weighted-order basis.

        Returns (ideal, flag); the flag reports whether every form is a single
        term, i.e. whether the weight initial ideal is monomial.
        """
        if tie is None:
            tie = self.ring.default_order()
        worder = Weighted(tuple(weights), tie)
        gb = self.groebner_basis(worder, budget)
        forms = [g.initial_form(weights) for g in gb]
        monomial = all(f.is_monomial() for f in forms)
        return Ideal(self.ring, forms), monomial

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.generators)


def initial_ideal(ideal, order_or_weights, budget=None):
    """Initial ideal for a term order, or initial-form ideal for a weight vector."""
    if isinstance(order_or_weights, TermOrder):
        return ideal.initial_ideal(order_or_weights, budget)
    return ideal.initial_forms(tuple(order_or_weights), budget=budget)


# ---------------------------------------------------------------------------
# weight vector synthesis (exact Fourier-Motzkin)


def _fm_feasible_point(rows, n):
    """A rational point with coeffs . x >= rhs for every row, or None."""
    systems = [None] * (n + 1)
    systems[n] = [(tuple(Fraction(c) for c in cs), Fraction(r)) for cs, r in rows]
    for k in range(n - 1, -1, -1):
        cur = systems[k + 1]
        nxt = []
        pos = [r for r in cur if r[0][k] > 0]
        neg = [r for r in cur if r[0][k] < 0]
        nxt.extend(r for r in cur if r[0][k] == 0)
        for cp, rp in pos:
            for cm, rm in neg:
                a, b = -cm[k], cp[k]
                coeffs = tuple(a * x + b * y for x, y in zip(cp, cm))
                nxt.append((coeffs, a * rp + b * rm))
        systems[k] = nxt
    for coeffs, rhs in systems[0]:
        if rhs > 0:
            return None
    point = []
    for k in range(n):
        lo, hi = None, None
        for coeffs, rhs in systems[k + 1]:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum(c * v for c, v in zip(coeffs[:k], point))
            bound = (rhs - rest) / ck
            if ck > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None:
            v = Fraction(0) if hi is None or hi >= 0 else hi
        else:
            v = Fraction(math.ceil(lo))
            if hi is not None and v > hi:
                v = (lo + hi) / 2
        point.append(v)
    return tuple(point)


def find_weight_vector(ideal, order, budget=None):
    """A positive integer weight vector reproducing the order's initial terms.

    For every element of the reduced basis under ``order``, the returned
    vector puts the leading monomial strictly on top; the choice is made by
    Fourier-Motzkin elimination and verified before returning.
    """
    gb = ideal.groebner_basis(order, budget)
    n = ideal.ring.nvars
    rows = set()
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        rows.add((unit, 1))
    for g in gb:
        lt, _ = g.leading_term(order)
        for e in g.terms:
            if e != lt:
                rows.add((tuple(a - b for a, b in zip(lt, e)), 1))
    point = _fm_feasible_point(sorted(rows), n)
    if point is None:
        raise InternalCheckError("weight system unexpectedly infeasible")
    scale = math.lcm(*[Fraction(v).denominator for v in point])
    omega = tuple(int(v * scale) for v in point)
    for g in gb:
        lt, _ = g.leading_term(order)
        form = g.initial_form(omega)
        if list(form.terms) != [lt]:
            raise InternalCheckError("weight vector failed post-hoc verification")
    return omega
