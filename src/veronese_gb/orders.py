"""Term orders on exponent vectors.

Every order works on dense exponent tuples and exposes a sort key: monomial
``a`` precedes monomial ``b`` exactly when ``key(a) < key(b)``.  Keys are
componentwise additive, which makes each order multiplicative, and the zero
vector always takes the smallest key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import DimensionError, DomainError

Exps = tuple  # dense exponent vector, one entry per ring variable


def _check_len(exps, n):
    if len(exps) != n:
        raise DimensionError(f"expected {n} exponents, got {len(exps)}")


@dataclass(frozen=True)
class TermOrder:
    """Base class; subclasses fill in _key and fingerprint.

    ``key`` memoizes ``_key`` in ``_cache``, which equality ignores.  Each
    subclass binds ``key = TermOrder.key`` in its own class dict, because
    ``perfbench/tracing.py`` patches ``cls.__dict__["key"]`` to count calls.
    """

    _cache: dict = field(default_factory=dict, compare=False, repr=False,
                         kw_only=True)

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


@dataclass(frozen=True)
class Lex(TermOrder):
    """Lexicographic order; ``priority`` lists positions, most significant first."""

    nvars: int
    priority: tuple = None

    def __post_init__(self):
        if self.priority is None:
            object.__setattr__(self, "priority", tuple(range(self.nvars)))
        if sorted(self.priority) != list(range(self.nvars)):
            raise DimensionError("priority must be a permutation of the positions")

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return tuple(exps[i] for i in self.priority)

    @property
    def fingerprint(self):
        return "lex[%s]" % ",".join(map(str, self.priority))


@dataclass(frozen=True)
class GrevLex(TermOrder):
    """Graded reverse lexicographic order.

    ``chain`` lists variable positions from largest to smallest; ties between
    equal-degree monomials go to the one with less of the smallest variable
    at the last disagreement.
    """

    nvars: int
    chain: tuple = None

    def __post_init__(self):
        if self.chain is None:
            object.__setattr__(self, "chain", tuple(range(self.nvars)))
        if sorted(self.chain) != list(range(self.nvars)):
            raise DimensionError("chain must be a permutation of the positions")
        object.__setattr__(self, "_scan", tuple(reversed(self.chain)))

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return (sum(exps), tuple(-exps[i] for i in self._scan))

    @property
    def fingerprint(self):
        return "grevlex[%s]" % ",".join(map(str, self.chain))


@dataclass(frozen=True)
class GammaRevLex(TermOrder):
    """Reverse lexicographic order on the degree-d Veronese variables.

    The variable chain sorts the multi-indices by their ascending profile:
    a variable is smaller when its sorted exponent profile is lexicographically
    larger, with the plain lex order on the raw index breaking profile ties.
    Rings built by :func:`veronese_gb.polyring.veronese_ring` enumerate their
    variables along exactly that chain, so position 0 is the smallest variable
    and the key scans positions in natural order.
    """

    s: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "nvars", math.comb(self.d + self.s - 1, self.s - 1))

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, self.nvars)
        return (sum(exps), tuple(-e for e in exps))

    @property
    def fingerprint(self):
        return f"gamma[s={self.s},d={self.d}]"


@dataclass(frozen=True)
class Weighted(TermOrder):
    """Weight vector first, tiebreak order second."""

    weights: tuple
    tie: TermOrder

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise DimensionError("weights must be nonnegative")

    key = TermOrder.key

    def _key(self, exps):
        _check_len(exps, len(self.weights))
        w = sum(wi * ei for wi, ei in zip(self.weights, exps))
        return (w, self.tie.key(exps))

    @property
    def fingerprint(self):
        return "w[%s;tie=%s]" % (",".join(map(str, self.weights)), self.tie.fingerprint)


@dataclass(frozen=True)
class Block(TermOrder):
    """Elimination order: the leading block of positions dominates.

    Compares the first ``front`` exponents under ``front_order`` and falls
    through to ``back_order`` on the rest.  Any monomial touching a front
    variable beats every front-free monomial as long as ``front_order`` is
    degree-compatible (the default graded orders are).
    """

    front: int
    front_order: TermOrder
    back_order: TermOrder

    key = TermOrder.key

    def _key(self, exps):
        return (self.front_order.key(exps[: self.front]),
                self.back_order.key(exps[self.front:]))

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
