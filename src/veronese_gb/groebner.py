"""Division, Buchberger's algorithm, elimination, and initial ideals.

All computations are exact.  Every polynomial a public function returns has
``Fraction`` coefficients; inside, the reduction kernel keeps each integral
coefficient as an ``int``, which is most of them (the binomial bases have
coefficients +-1), and builds a ``Fraction`` only for a quotient that is not
integral.

Buchberger takes the pair with the smallest lcm first: smallest degree, ties
broken by the order, under a ``Block`` order or a given grading (in the
grading's degree then), and smallest under the order itself otherwise.  It
drops pairs by the coprimality and chain criteria, caps the processed
S-pairs, and guards the coefficient size; hitting either cap raises
``BudgetExceededError`` instead of returning a truncated basis.
"""

from __future__ import annotations

import heapq
import math
import os
from functools import cached_property
from fractions import Fraction
from operator import mul

from .errors import (BudgetExceededError, DimensionError, DomainError,
                     InternalCheckError, RingMismatchError)
from .orders import Block, GrevLex, Weighted
from .polyring import (Polynomial, add_terms, generic_ring, joint_ring,
                       mono_deg, mono_div, mono_lcm, read_int)
from .values import Record, Value

DEFAULT_SPAIR_CAP = 10**6
DEFAULT_COEFF_BITS = 1_000_000


def default_spair_cap():
    raw = os.environ.get("VERONESE_GB_BUDGET")
    if not raw:
        return DEFAULT_SPAIR_CAP
    cap = read_int(raw, "VERONESE_GB_BUDGET")
    if cap < 0:
        raise DomainError("VERONESE_GB_BUDGET must be a nonnegative integer, "
                          f"got {raw!r}")
    return cap


class Budget(Record):
    """Resource caps; counters survive across the calls sharing the budget."""

    def __init__(self, spair_cap=None, coeff_bits=DEFAULT_COEFF_BITS):
        if spair_cap is None:
            spair_cap = default_spair_cap()
        elif spair_cap < 0:
            raise DomainError(
                f"the S-pair cap must be at least 0, got {spair_cap}")
        self.spair_cap = spair_cap
        self.coeff_bits = coeff_bits
        self.spairs = 0

    def charge_spair(self):
        self.spairs += 1
        if self.spairs > self.spair_cap:
            raise BudgetExceededError(
                f"S-pair budget of {self.spair_cap} exhausted")

    def check_coeff(self, c):
        if c.numerator.bit_length() + c.denominator.bit_length() > self.coeff_bits:
            raise BudgetExceededError("coefficient size cap exceeded")


def _bits(x):
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _ExponentIndex:
    """Exponent vectors numbered in insertion order, looked up by
    divisibility and coprimality; a set of entries is an int whose bit k
    stands for entry k.

    ``above[v][t]`` holds the entries whose exponent at position v exceeds
    t, for every t below the largest exponent there.  The entries dividing u
    are those in no ``above[v][u_v]``, and the entries coprime to u those in
    no ``above[v][0]`` with v in the support of u.  The thresholds are
    exact, so one lookup decides divisibility outright and a high exponent
    costs no more than a low one: the exact form of the short exponent
    vectors of Bachmann and Schönemann (ISSAC 1998).
    """

    def __init__(self):
        self.every = 0
        self.above = []

    def add(self, exps):
        """Enter the vector as the next entry."""
        bit = self.every + 1        # every holds entries 0..n-1, all set
        self.every |= bit
        above = self.above
        while len(above) < len(exps):
            above.append([])
        for v, x in enumerate(exps):
            if x:
                col = above[v]
                if len(col) < x:
                    col.extend([0] * (x - len(col)))
                for t in range(x):
                    col[t] |= bit

    def divisors(self, exps):
        """The entries dividing ``exps``."""
        blocked = 0
        for x, col in zip(exps, self.above):
            if x < len(col):
                blocked |= col[x]
        return self.every & ~blocked

    def coprime(self, exps):
        """The entries whose support is disjoint from that of ``exps``."""
        touching = 0
        for x, col in zip(exps, self.above):
            if x and col:
                touching |= col[0]
        return self.every & ~touching

    def copy(self):
        """The same entries in an index of its own: an entry added to one
        of the two is not in the other."""
        new = _ExponentIndex()
        new.every = self.every
        new.above = [list(col) for col in self.above]
        return new


class _DivisorIndex:
    """Picks, for a monomial, the dividing basis element with least leading term.

    Items are (lt_key, seq, lt_exps, lt_coeff, tail, poly), where ``tail``
    holds the terms below the leading one and ``seq`` is the insertion
    position, which is also the item's entry in ``lts``, the exponent index
    over the leading terms; among equal leading terms the earliest element
    wins.  ``lt_coeff`` and the tail hold integral coefficients as ints.
    """

    def __init__(self, order):
        self.order = order
        self.items = []
        self.lts = _ExponentIndex()

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

    def copy(self):
        """The same items, under the same order, in an index of its own."""
        new = _DivisorIndex(self.order)
        new.items = list(self.items)
        new.lts = self.lts.copy()
        return new

    def add(self, poly, lt):
        tail = {e: _int_if_integral(c) for e, c in poly.terms.items()
                if e != lt}
        self.items.append((self.order.key(lt), len(self.items), lt,
                           _int_if_integral(poly.terms[lt]), tail, poly))
        self.lts.add(lt)

    def find(self, exps):
        hits = self.lts.divisors(exps)
        if not hits & (hits - 1):
            return self.items[hits.bit_length() - 1] if hits else None
        items = self.items
        return min(items[k] for k in _bits(hits))

    def remainder(self, f, budget=None):
        """Remainder of f on division by the indexed elements."""
        return Polynomial(f.ring, _exact(_reduce_terms(
            f.terms, self, self.order, budget)), _clean=True)


def _int_if_integral(c):
    return c.numerator if c.denominator == 1 else c


def _exact(terms, scale=1):
    """The terms over ``scale`` as Fractions, the type every polynomial
    leaving the module has."""
    return {e: Fraction(c, scale) for e, c in terms.items()}


def _content_scale(values):
    """The positive scalar turning the values into coprime integers."""
    num = den = 0
    for c in values:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator) if den else c.denominator
    if not num:
        return Fraction(1)
    return Fraction(den, num)


def _times(terms, scale):
    """The terms times ``scale``, which makes every one integral, as ints."""
    n, d = scale.numerator, scale.denominator
    return {e: c * n // d for e, c in terms.items()}


def _rescale_content(p, r):
    """Divide both halves by their joint content (overall positive scalar)."""
    scale = _content_scale(list(p.values()) + list(r.values()))
    if scale == 1:
        return p, r
    return _times(p, scale), _times(r, scale)


def _primitive(poly, lt):
    """Content-free integer scalar multiple with a positive coefficient at
    the leading exponent ``lt``, its coefficients ints."""
    scale = _content_scale(poly.terms.values())
    if poly.terms[lt] < 0:
        scale = -scale
    if scale == 1:
        return poly
    return Polynomial(poly.ring, _times(poly.terms, scale), _clean=True)


def _reduce_terms(terms, index, order, budget=None, scale_ok=False):
    """Remainder of the term dict against the indexed divisors.

    The multiplier of each step is ``c`` for a monic divisor and ``c // lc``
    when ``lc`` divides ``c``, so integral coefficients stay ints; otherwise
    it is the exact ``Fraction``.  With ``scale_ok`` the result is only
    guaranteed up to a nonzero scalar: long division chains get their
    content stripped periodically, which keeps coefficient growth additive
    instead of compounding.

    The remainder's terms come out in strictly descending order, so its
    first key is its leading term: each step pops the greatest term left and
    adds only terms below it, and the rescaling keeps dict order.
    """
    p = dict(terms)
    r = {}
    key = order.key
    steps = 0
    while p:
        if len(p) == 1:
            u, c = p.popitem()
        else:
            u = max(p, key=key)
            c = p.pop(u)
        hit = index.find(u)
        if hit is None:
            r[u] = c
            continue
        _, _, lt, lc, tail, _ = hit
        if lc == 1:
            factor = c
        else:
            factor, rest = divmod(c, lc)
            if rest:
                factor = Fraction(c, lc)
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


def _spoly(a, b, lcm):
    """lc_b * m_a * tail_a - lc_a * m_b * tail_b for two divisor-index items,
    with m the cofactors of their leading terms in ``lcm``, the lcm of those
    terms: lc_a * lc_b times the S-polynomial.  The leading terms cancel, so
    they are left out.
    """
    terms = {}
    add_terms(terms, a[4], b[3], mono_div(lcm, a[2]))
    add_terms(terms, b[4], -a[3], mono_div(lcm, b[2]))
    return terms


def _raised(exps, support):
    """lcm of ``exps`` and the monomial whose nonzero exponents are the
    (position, exponent) pairs of ``support``, in a pass over the support."""
    lcm = list(exps)
    for v, x in support:
        if x > lcm[v]:
            lcm[v] = x
    return tuple(lcm)


class GBStats(Record):
    def __init__(self, spairs=0, skipped_coprime=0, skipped_chain=0,
                 basis_peak=0):
        self.spairs = spairs
        self.skipped_coprime = skipped_coprime
        self.skipped_chain = skipped_chain
        self.basis_peak = basis_peak


def buchberger(generators, order, *, budget=None, seed_gb=None, stats=None,
               front=0, grading=None):
    """Reduced Gröbner basis of the generated ideal, ascending by leading term.

    ``seed_gb`` may carry a list already known to be a Gröbner basis under
    ``order``; its internal S-pairs are then skipped.  It may also be a
    ``_DivisorIndex`` over such a list under an order equal to ``order``,
    which the run copies instead of indexing the list again; a memoized
    order key equals a computed one, so the run takes the same pairs and
    returns the same basis either way.  With ``front`` > 0,
    under an order that eliminates the first ``front`` variables, only the
    elements whose leading term is free of them are returned: only such
    elements divide a front-free term, so those are interreduced among
    themselves and the rest are left out.

    The divisor index is the only basis store: element k is
    ``index.items[k]`` and bit k of the sets of elements, which are ints.
    ``treated[k]`` holds the partners of element k whose pair with it needs
    no S-polynomial: the other seed elements for a seed element, the
    elements whose leading term is coprime to its own (gcd 1, so the
    S-polynomial reduces to zero), and the partners of its popped pairs.
    The chain criterion drops a popped pair (i, j) when an element other
    than i and j divides the lcm and is a treated partner of both, which is
    one ``&`` of four sets.

    A heap entry is the flat tuple ``(deg, key, i, j)``, with ``key`` the
    order key of the pair's lcm, the memo's own tuple, and ``deg`` its
    degree: sum(grading_i * lcm_i) when ``grading``, one entry per
    variable, is given; otherwise the plain degree under a ``Block`` order
    and 0 under any other, where equal keys mean equal lcms, so a degree
    after the key would decide nothing.  Under a grading in which the ideal
    is homogeneous, pairs go degree by degree: the sugar strategy of
    Giovini, Mora, Niesi, Robbiano and Traverso (ISSAC 1991).
    The lcm itself is not kept: one more tuple per pending pair raised the
    peak RSS of the (3,4) elimination oracle from 78 to 101 MB.  It is
    computed when the pair is pushed, for its degree and key, and again when
    it is popped, where the chain test and ``_spoly`` share it.  Both times
    it is the older element's leading term raised at the support of the
    newer one's, which the run keeps as (position, exponent) pairs for each
    element it adds: a pass over a few positions instead of all of them.
    Seed elements need none, since the newer element of a pair is never one.
    Pairs of one lcm leave the heap one after another, and a pop whose key
    is the previous pop's, with no element added since, reuses that pop's
    lcm and the set of elements dividing it: the order's memo hands out one
    key tuple per monomial, so an identical key means an equal lcm, and
    with the basis unchanged the set is the same.  An identity test costs
    nothing on the pops whose keys differ; a key computed afresh only
    misses a reuse.
    """
    if budget is None:
        budget = Budget()
    if stats is None:
        stats = GBStats()
    generators = list(generators)
    if isinstance(seed_gb, _DivisorIndex):
        index = seed_gb.copy()
    else:
        index = _DivisorIndex(order)
        for g in seed_gb or ():
            index.add(g, g.leading_term(order)[0])
    items, lts = index.items, index.lts
    if items:
        ring = items[0][5].ring
    elif generators:
        ring = generators[0].ring
    else:
        return ()
    if grading is not None and len(grading) != ring.nvars:
        raise DimensionError(f"a grading of {len(grading)} entries for a "
                             f"{ring.nvars}-variable ring")
    treated = [lts.every] * len(items)
    supports = [None] * len(items)

    # Selection: smallest lcm under the order (what the tie-sensitive plain
    # lex case needs), except that elimination blocks and runs given a
    # grading go degree-first inside the queue, which empirically keeps the
    # joint-ring runs shallow.
    degree_first = isinstance(order, Block)
    key = order.key
    queue = []            # heap of (deg, key, i, j)

    def add_remainder(terms):
        """A nonzero remainder of the terms joins the basis, with its pairs;
        a nonzero multiple of the terms gives the same element."""
        r = _reduce_terms(terms, index, order, budget, scale_ok=True)
        if not r:
            return
        lt = next(iter(r))
        poly = _primitive(Polynomial(ring, r, _clean=True), lt)
        coprime = lts.coprime(lt)
        j = len(items)
        index.add(poly, lt)
        bj = 1 << j
        for i in _bits(coprime):
            treated[i] |= bj
        treated.append(coprime)
        support = [(v, x) for v, x in enumerate(lt) if x]
        supports.append(support)
        stats.skipped_coprime += coprime.bit_count()
        for i in _bits((bj - 1) & ~coprime):
            lcm = _raised(items[i][2], support)
            if grading is not None:
                deg = sum(map(mul, grading, lcm))
            else:
                deg = mono_deg(lcm) if degree_first else 0
            heapq.heappush(queue, (deg, key(lcm), i, j))
        stats.basis_peak = max(stats.basis_peak, len(items))

    for f in generators:
        if f.ring != ring:
            raise RingMismatchError("generators live in different rings")
        if f:
            add_remainder(f.terms)

    last_key = last_size = None
    while queue:
        _, lcm_key, i, j = heapq.heappop(queue)
        a, b = items[i], items[j]
        if lcm_key is not last_key or len(items) != last_size:
            lcm = _raised(a[2], supports[j])
            divisors = lts.divisors(lcm)
            last_key, last_size = lcm_key, len(items)
        bi, bj = 1 << i, 1 << j
        treated[i] |= bj
        treated[j] |= bi
        if divisors & treated[i] & treated[j] & ~(bi | bj):
            stats.skipped_chain += 1
        else:
            budget.charge_spair()
            stats.spairs += 1
            add_remainder(_spoly(a, b, lcm))

    return _reduce_basis([item[5] for item in items
                          if not any(item[2][:front])], order, budget)


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
        if not index.lts.divisors(lt):
            index.add(p, lt)
    out = []
    for _, _, lt, c, tail, p in index.items:
        terms = {lt: c}
        terms.update(_reduce_terms(tail, index, order, budget))
        out.append(Polynomial(p.ring, _exact(terms, c), _clean=True))
    return tuple(out)


class GBCheck(Record):
    """Outcome of an S-pair closure check."""

    def __init__(self, ok, spairs, pair=None, remainder=None):
        self.ok = ok
        self.spairs = spairs
        self.pair = pair
        self.remainder = remainder


def is_groebner_basis(polys, order, *, budget=None, skip_coprime=True):
    """True when every S-pair reduces to zero; returns the witness otherwise.

    Each pair reduces ``_spoly``'s multiple of its S-polynomial, which is
    zero exactly when the S-polynomial is; the witness divides it out again.
    ``polys`` may also be a ``_DivisorIndex`` under ``order``, which the
    check reads in place of building its own.
    """
    if isinstance(polys, _DivisorIndex):
        index = polys
    else:
        polys = [p for p in polys if p]
        index = _DivisorIndex.of(polys, order,
                                 polys[0].ring if polys else None)
    if budget is None:
        budget = Budget()
    items = index.items
    count = 0
    for j in range(len(items)):
        partners = (1 << j) - 1
        if skip_coprime:
            partners &= ~index.lts.coprime(items[j][2])
        for i in _bits(partners):
            budget.charge_spair()
            count += 1
            a, b = items[i], items[j]
            r = _reduce_terms(_spoly(a, b, mono_lcm(a[2], b[2])), index,
                              order, budget)
            if r:
                return GBCheck(False, count, (a[5], b[5]),
                               Polynomial(a[5].ring, _exact(r, a[3] * b[3]),
                                          _clean=True))
    return GBCheck(True, count)


def elimination_order(front, back_order):
    """The block order that eliminates the first ``front`` variables: grevlex
    on them, ``back_order`` on the rest.  Every elimination builds its order
    here, because a basis passed as ``seed_gb`` is a Gröbner basis under the
    order it was computed with, and under another only when each element
    keeps its leading term and the ideal is homogeneous for a positive
    grading: then both initial ideals have the ideal's Hilbert function, and
    the one the leading terms generate lies in both, so the three are equal.
    Graph ideals meet the second condition."""
    return Block(front, GrevLex(front), back_order)


def eliminate(generators, order, back_ring, *, budget=None, seed_gb=None,
              grading=None):
    """Intersect the ideal with the subring on the trailing variables.

    ``order`` is the block order to eliminate under, as
    :func:`elimination_order` builds it: the generators live in a ring whose
    first ``order.front`` positions are the variables to remove.  Returns
    the reduced Gröbner basis of the intersection under ``order.back_order``,
    re-indexed into ``back_ring``.  A ``_DivisorIndex`` passed as ``seed_gb``
    (see :func:`buchberger`) must be under an order equal to ``order``, or
    it is refused, and the run uses the index's order object, so that the
    keys its memo holds are not computed again.  ``grading``, one entry per
    variable of the joint ring, goes to :func:`buchberger`: pairs are then
    taken by their lcm's degree in it, which changes the S-pairs reduced but
    not the basis.
    """
    generators = list(generators)
    front = order.front
    if generators and back_ring.nvars + front != generators[0].ring.nvars:
        raise DomainError("front block plus back ring must span the joint ring")
    if isinstance(seed_gb, _DivisorIndex):
        if seed_gb.order != order:
            raise DomainError("the seed index is under another order than "
                              "the elimination's")
        order = seed_gb.order
    gb = buchberger(generators, order, budget=budget, seed_gb=seed_gb,
                    front=front, grading=grading)
    return _front_free(gb, front, back_ring)


def _front_free(gb, front, back_ring):
    """The elements free of the first ``front`` variables, re-indexed into
    ``back_ring``; an ascending block-order basis stays ascending."""
    position_map = [-1] * front + list(range(back_ring.nvars))
    return tuple(g.map_positions(back_ring, position_map) for g in gb
                 if all(not any(e[:front]) for e in g.terms))


def graph_ideal(points, ring):
    """The graph ideal of the monomial map sending variable i of ``ring`` to
    the monomial z^points[i], as (joint ring, generators).

    The points must be nonnegative.  The joint ring puts z1..zn in front of
    ``ring``; eliminating that block leaves the kernel of the map.  The
    generators are x_i - z^p_i in point order.
    """
    n = len(points[0])
    joint = joint_ring(generic_ring(f"z{j + 1}" for j in range(n)), ring)
    no_x = (0,) * ring.nvars
    gens = []
    for i, p in enumerate(points):
        x = tuple(1 if j == i else 0 for j in range(ring.nvars))
        gens.append(Polynomial(joint, {(0,) * n + x: Fraction(1),
                                       tuple(p) + no_x: Fraction(-1)}))
    return joint, gens


def monomial_image(points, exps):
    """Exponent vector of the image of the monomial ``exps`` under the map
    of :func:`graph_ideal`, which sends variable i to z^points[i]."""
    out = [0] * len(points[0])
    for e, p in zip(exps, points):
        if e:
            for j, v in enumerate(p):
                out[j] += e * v
    return tuple(out)


# ---------------------------------------------------------------------------
# monomial ideals


class MonomialIdeal(Value):
    """A monomial ideal held by its minimal generators (a divisibility antichain)."""

    _fields = ("ring", "gens")

    def __init__(self, ring, gens):
        super().__init__(ring, gens)

    @classmethod
    def from_exponents(cls, ring, exps_iter):
        """The ideal of the given exponent vectors, which must have one
        nonnegative entry per variable of ``ring``."""
        cands = {tuple(e) for e in exps_iter}
        for e in cands:
            if len(e) != ring.nvars:
                raise DimensionError(
                    f"exponent vector {list(e)} has {len(e)} entries in a "
                    f"{ring.nvars}-variable ring")
            if any(x < 0 for x in e):
                raise DomainError(f"exponent vector {list(e)} has a negative "
                                  "entry")
        cands = sorted(cands, key=lambda e: (mono_deg(e), e))
        kept, index = [], _ExponentIndex()
        for e in cands:
            if not index.divisors(e):
                kept.append(e)
                index.add(e)
        return cls(ring, tuple(kept))

    @classmethod
    def of_leading_terms(cls, ring, polys, order):
        """The ideal generated by the leading terms of nonzero polynomials."""
        return cls.from_exponents(ring, (g.leading_term(order)[0] for g in polys))

    @property
    def is_zero(self):
        return not self.gens

    @cached_property
    def _index(self):
        # Built on first lookup; kept in the instance dict, outside the
        # fields, so equality and hashing ignore it.
        index = _ExponentIndex()
        for g in self.gens:
            index.add(g)
        return index

    def contains(self, exps):
        """Whether a generator divides ``exps``."""
        return bool(self._index.divisors(exps))

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
    """Generator list plus a cache of reduced Gröbner bases keyed by order.

    Next to each cached basis, ``_indexes`` keeps the divisor index over it,
    built by the first ``normal_form`` under that order and shared by every
    later one.
    """

    __slots__ = ("ring", "generators", "_cache", "_indexes")

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
        object.__setattr__(self, "_indexes", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self, order, budget=None):
        gb = self._cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, order, budget=budget)
            self._cache[order] = gb
        return gb

    def normal_form(self, f, order, budget=None):
        if f.ring != self.ring:
            raise RingMismatchError("polynomial outside the ideal's ring")
        index = self._indexes.get(order)
        if index is None:
            index = self._indexes[order] = _DivisorIndex.of(
                self.groebner_basis(order, budget), order, self.ring)
        return index.remainder(f, budget)

    def contains(self, f, order=None, budget=None):
        if order is None:
            order = self.ring.default_order()
        return not self.normal_form(f, order, budget)

    def initial_ideal(self, order, budget=None):
        return MonomialIdeal.of_leading_terms(
            self.ring, self.groebner_basis(order, budget), order)

    def initial_forms(self, weights, budget=None):
        """Ideal spanned by the top-weight forms of a weighted-order basis,
        ties broken by the ring's default order.

        Returns (ideal, flag); the flag reports whether every form is a single
        term, i.e. whether the weight initial ideal is monomial.
        """
        worder = Weighted(tuple(weights), self.ring.default_order())
        gb = self.groebner_basis(worder, budget)
        forms = [g.initial_form(weights) for g in gb]
        monomial = all(f.is_monomial() for f in forms)
        return Ideal(self.ring, forms), monomial

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.generators)


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
