"""Term orders on exponent vectors.

Every order works on dense exponent tuples and exposes a sort key: monomial
``a`` precedes monomial ``b`` exactly when ``key(a) < key(b)``.  Keys are
componentwise additive, which makes each order multiplicative, and the zero
vector always takes the smallest key.

Keys are flat tuples of numbers, and all the keys of one order on vectors of
one length have the same length.  Two keys of an order therefore compare
position by position with no length tie-break, which is why a composite
order may concatenate its parts' keys: ``Weighted`` puts the weight in front
of its tie order's key, and ``Block`` appends the back key to the front key.
Flat keys also compare faster than nested ones, which matters in the
Buchberger queue and the reduction loop.

Each order memoizes its own keys.  A composite order builds its keys from
its parts' unmemoized ``_key``, so a monomial seen under it is memoized once,
in its own memo, and a part's memo fills only when the part is used alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from .errors import DimensionError, DomainError
from .values import Value, init_attr

Exps = tuple  # dense exponent vector, one entry per ring variable


def _check_len(exps, n):
    if len(exps) != n:
        raise DimensionError(f"expected {n} exponents, got {len(exps)}")


class TermOrder(Value):
    """Base class; subclasses fill in _key and fingerprint.

    ``key`` memoizes ``_key`` in ``_cache``, a plain instance attribute that
    each ``__init__`` sets and equality ignores.  The memo holds this order's
    keys only: a composite order keys through its parts' ``_key``, never
    their ``key``, so their memos stay empty.  Each subclass binds
    ``key = TermOrder.key`` in its own class dict, because
    ``perfbench/tracing.py`` patches ``cls.__dict__["key"]`` to count calls.
    """

    def key(self, exps):
        k = self._cache.get(exps)
        if k is None:
            k = self._cache[exps] = self._key(exps)
        return k

    def _key(self, exps):
        raise NotImplementedError

    def cmp(self, a, b):
        """-1, 0, or 1 as a precedes, equals, or follows b."""
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    @property
    def fingerprint(self):
        raise NotImplementedError


class Lex(TermOrder):
    """Lexicographic order; ``priority`` lists positions, most significant first."""

    _fields = ("nvars", "priority")

    def __init__(self, nvars, priority=None):
        if priority is None:
            priority = tuple(range(nvars))
        if sorted(priority) != list(range(nvars)):
            raise DimensionError("priority must be a permutation of the positions")
        init_attr(self, "nvars", nvars)
        init_attr(self, "priority", priority)
        init_attr(self, "_values", (nvars, priority))
        init_attr(self, "_cache", {})

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return tuple(exps[i] for i in self.priority)

    @property
    def fingerprint(self):
        return "lex[%s]" % ",".join(map(str, self.priority))


class GrevLex(TermOrder):
    """Graded reverse lexicographic order.

    ``chain`` lists variable positions from largest to smallest; ties between
    equal-degree monomials go to the one with less of the smallest variable
    at the last disagreement.
    """

    _fields = ("nvars", "chain")

    def __init__(self, nvars, chain=None):
        if chain is None:
            chain = tuple(range(nvars))
        if sorted(chain) != list(range(nvars)):
            raise DimensionError("chain must be a permutation of the positions")
        init_attr(self, "nvars", nvars)
        init_attr(self, "chain", chain)
        init_attr(self, "_values", (nvars, chain))
        init_attr(self, "_scan", tuple(reversed(chain)))
        init_attr(self, "_cache", {})

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return (sum(exps), *[-exps[i] for i in self._scan])

    @property
    def fingerprint(self):
        return "grevlex[%s]" % ",".join(map(str, self.chain))


class GammaRevLex(TermOrder):
    """Reverse lexicographic order on the degree-d Veronese variables.

    The variable chain sorts the multi-indices by their ascending profile:
    a variable is smaller when its sorted exponent profile is lexicographically
    larger, with the plain lex order on the raw index breaking profile ties.
    Rings built by :func:`veronese_gb.polyring.veronese_ring` enumerate their
    variables along exactly that chain, so position 0 is the smallest variable
    and the key scans positions in natural order.
    """

    _fields = ("s", "d")

    def __init__(self, s, d):
        init_attr(self, "s", s)
        init_attr(self, "d", d)
        init_attr(self, "_values", (s, d))
        init_attr(self, "nvars", math.comb(d + s - 1, s - 1))
        init_attr(self, "_cache", {})

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return (sum(exps), *[-e for e in exps])

    @property
    def fingerprint(self):
        return f"gamma[s={self.s},d={self.d}]"


class Weighted(TermOrder):
    """Weight vector first, tiebreak order second."""

    _fields = ("weights", "tie")

    def __init__(self, weights, tie):
        if any(w < 0 for w in weights):
            raise DimensionError("weights must be nonnegative")
        init_attr(self, "weights", weights)
        init_attr(self, "tie", tie)
        init_attr(self, "_values", (weights, tie))
        init_attr(self, "_cache", {})

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, len(self.weights))
        w = sum(wi * ei for wi, ei in zip(self.weights, exps))
        return (w, *self.tie._key(exps))

    @property
    def fingerprint(self):
        return "w[%s;tie=%s]" % (",".join(map(str, self.weights)), self.tie.fingerprint)


class Block(TermOrder):
    """Elimination order: the leading block of positions dominates.

    Compares the first ``front`` exponents under ``front_order`` and falls
    through to ``back_order`` on the rest.  Any monomial touching a front
    variable beats every front-free monomial as long as ``front_order`` is
    degree-compatible (the default graded orders are).
    """

    _fields = ("front", "front_order", "back_order")

    def __init__(self, front, front_order, back_order):
        init_attr(self, "front", front)
        init_attr(self, "front_order", front_order)
        init_attr(self, "back_order", back_order)
        init_attr(self, "_values", (front, front_order, back_order))
        init_attr(self, "_cache", {})

    key = TermOrder.key

    def _key(self, exps):
        return (self.front_order._key(exps[:self.front])
                + self.back_order._key(exps[self.front:]))

    @property
    def fingerprint(self):
        return "block[front=%d;%s;%s]" % (
            self.front, self.front_order.fingerprint, self.back_order.fingerprint)


# ---------------------------------------------------------------------------
# comparator helpers mirroring the library's primitive rules


def cmp_lex(a, b, priority=None):
    """Compare under lex: first disagreeing position (after reordering) decides."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    order = Lex(len(a), tuple(priority) if priority is not None else None)
    return order.cmp(a, b)


def cmp_rlex(a, b, chain=None):
    """Compare under graded revlex with the given largest-to-smallest chain."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    order = GrevLex(len(a), tuple(chain) if chain is not None else None)
    return order.cmp(a, b)


def gamma_profile(a):
    """Entries of ``a`` sorted ascending: the lex-least permutation of ``a``."""
    return tuple(sorted(a))


def variable_chain_key(a):
    """Sort key placing Veronese variable indices along their ascending chain."""
    return (tuple(-g for g in gamma_profile(a)), tuple(-x for x in a))


def cmp_gamma_vars(a, b):
    """Compare two degree-d multi-indices as Veronese ring variables."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    if sum(a) != sum(b):
        raise DimensionError("multi-indices of different degree index different rings")
    ka, kb = variable_chain_key(a), variable_chain_key(b)
    return (ka > kb) - (ka < kb)


@lru_cache(maxsize=None)
def multi_indices(s, d):
    """All length-s multi-indices of total degree d, smallest variable first.

    The result is the canonical variable enumeration of the degree-d Veronese
    ring; its length is binomial(d+s-1, s-1).
    """
    if s < 1 or d < 1:
        raise DomainError(f"need s >= 1 and d >= 1, got s={s}, d={d}")
    out = []
    # stars and bars: cut points of a length-(d+s-1) row pick the s parts
    for cuts in combinations(range(d + s - 1), s - 1):
        prev, entry = -1, []
        for c in cuts:
            entry.append(c - prev - 1)
            prev = c
        entry.append(d + s - 2 - prev)
        out.append(tuple(entry))
    out.sort(key=variable_chain_key)
    return tuple(out)
