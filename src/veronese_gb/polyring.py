"""Named polynomial rings over exact rationals, with text and JSON forms.

Monomials are dense exponent tuples indexed by ring position; polynomials map
exponent tuples to nonzero ``Fraction`` coefficients.  Values are immutable by
convention: every operation returns a fresh polynomial.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, le, sub

from .errors import DimensionError, DomainError, ParseError, RingMismatchError
from .orders import GammaRevLex, GrevLex, multi_indices
from .values import Value

MAX_EXPONENT = 2**31 - 1
# Largest ring any constructor builds.  The shapes in use have at most a few
# dozen variables; past this a ring from input is refused before its names,
# or a Veronese ring's multi-indices, are enumerated.
MAX_VARIABLES = 10_000


class Ring(Value):
    """A polynomial ring described by its variable names.

    ``kind`` is "S" for a base ring y1..ys, "Rd" for a degree-d Veronese ring
    whose variables carry multi-indices, or "generic" for anything else
    (elimination rings, toric auxiliary rings).  ``indices``, for "Rd" only,
    maps each position to its multi-index.
    """

    _fields = ("names", "kind", "s", "d", "indices")

    def __init__(self, names, kind="generic", s=None, d=None, indices=None):
        super().__init__(names, kind, s, d, indices)

    @property
    def nvars(self):
        return len(self.names)

    @cached_property
    def position(self):
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def index_position(self):
        """Rd only: multi-index -> position."""
        return {a: i for i, a in enumerate(self.indices)}

    @cached_property
    def zero_exps(self):
        return (0,) * self.nvars

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, exps):
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def constant(self, c):
        return Polynomial(self, {self.zero_exps: Fraction(c)})

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.constant(1)

    def default_order(self):
        if self.kind == "Rd":
            return GammaRevLex(self.s, self.d)
        return GrevLex(self.nvars)


def _check_size(nvars):
    if nvars > MAX_VARIABLES:
        raise DomainError(f"a ring of {nvars} variables exceeds the cap of "
                          f"{MAX_VARIABLES}")


def base_ring(s):
    """The base ring with variables y1..ys."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    _check_size(s)
    return Ring(tuple(f"y{i + 1}" for i in range(s)), kind="S", s=s)


@lru_cache(maxsize=None)
def veronese_ring(s, d):
    """The ring with one variable per degree-d multi-index, in chain order;
    one ring per shape, so rings of a shape compare by identity."""
    if s >= 1 and d >= 1:
        # the enumeration holds d+s-1 cut points for binomial(d+s-1, s-1)
        # variables; the count rises with s, so clamping s just past the cap
        # keeps math.comb small and still decides the check
        cs = min(s, MAX_VARIABLES + 1)
        if d > MAX_VARIABLES or math.comb(d + cs - 1, cs - 1) > MAX_VARIABLES:
            raise DomainError(f"the degree-{d} Veronese ring of {s} variables "
                              f"exceeds the cap of {MAX_VARIABLES}")
    idx = multi_indices(s, d)
    names = tuple("x[%s]" % ",".join(map(str, a)) for a in idx)
    return Ring(names, kind="Rd", s=s, d=d, indices=idx)


def generic_ring(names):
    names = tuple(names)
    _check_size(len(names))
    if len(set(names)) != len(names):
        raise DomainError(f"duplicate variable names in {list(names)}")
    return Ring(names, kind="generic")


def joint_ring(front, back):
    """Concatenate two rings; the front block comes first for elimination."""
    _check_size(front.nvars + back.nvars)
    clash = set(front.names) & set(back.names)
    if clash:
        raise DomainError(f"variable names collide: {sorted(clash)}")
    return Ring(front.names + back.names, kind="generic")


# ---------------------------------------------------------------------------
# monomial helpers on bare exponent tuples


def mono_mul(a, b):
    c = tuple(x + y for x, y in zip(a, b))
    if any(x > MAX_EXPONENT for x in c):
        raise DomainError("exponent overflow")
    return c


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    # a comparison per position is cheaper than a call of max
    return tuple([x if x > y else y for x, y in zip(a, b)])


def mono_deg(a):
    return sum(a)


def add_terms(acc, terms, coeff, shift=None):
    """acc += coeff * x^shift * terms, in place, dropping cancelled terms.

    ``coeff`` must be nonzero.  Exponents are not range-checked; the
    products that can overflow check before they accumulate.
    """
    for e, c in terms.items():
        if shift is not None:
            e = tuple(map(add, e, shift))
        v = acc.get(e, 0) + coeff * c
        if v:
            acc[e] = v
        else:
            del acc[e]


class Polynomial:
    """Sparse polynomial over exact rationals in a fixed ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None, _clean=False):
        object.__setattr__(self, "ring", ring)
        if terms is None:
            terms = {}
        if _clean:
            object.__setattr__(self, "terms", terms)
            return
        clean = {}
        n = ring.nvars
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise DimensionError(
                    f"term has {len(exps)} exponents in a {n}-variable ring")
            c = Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_binomial_pm1(self):
        """Exactly two terms with coefficients +1 and -1."""
        if len(self.terms) != 2:
            return False
        return sorted(self.terms.values()) == [Fraction(-1), Fraction(1)]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    def _plus(self, other, sign):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._same_ring(other)
        res = dict(self.terms)
        add_terms(res, other.terms, sign)
        return Polynomial(self.ring, res, _clean=True)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()},
                          _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring,
                              {e: c * v for e, v in self.terms.items()},
                              _clean=True)
        self._same_ring(other)
        # some product overflows exactly when the columnwise maxima do
        mono_mul(*(tuple(map(max, zip(*p.terms))) for p in (self, other)))
        res = {}
        for e, c in self.terms.items():
            add_terms(res, other.terms, c, e)
        return Polynomial(self.ring, res, _clean=True)

    __rmul__ = __mul__

    def mul_term(self, coeff, exps):
        """Multiply by coeff * x^exps in one pass."""
        c = Fraction(coeff)
        if not c:
            return self.ring.zero
        return Polynomial(self.ring,
                          {mono_mul(e, exps): c * v for e, v in self.terms.items()},
                          _clean=True)

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative powers are not defined here")
        out = self.ring.one
        for _ in range(k):
            out = out * self
        return out

    # -- order-dependent views ----------------------------------------------

    def leading_term(self, order):
        """The order-greatest (exponents, coefficient) pair; errors on zero."""
        if not self.terms:
            raise DomainError("the zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def sorted_terms(self, order):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=True)

    def monic(self, order):
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def initial_form(self, weights):
        """Sub-polynomial of maximal weight; zero stays zero."""
        if not self.terms:
            return self
        if len(weights) != self.ring.nvars:
            raise DimensionError("weight vector length does not match ring")
        best, keep = None, {}
        for e, c in self.terms.items():
            w = sum(wi * ei for wi, ei in zip(weights, e))
            if best is None or w > best:
                best, keep = w, {e: c}
            elif w == best:
                keep[e] = c
        return Polynomial(self.ring, keep, _clean=True)

    # -- ring moves -----------------------------------------------------------

    def map_positions(self, target, position_map):
        """Reinterpret in ``target``; position_map[i] is the new slot of var i."""
        res = {}
        for e, c in self.terms.items():
            new = [0] * target.nvars
            for i, x in enumerate(e):
                if x:
                    new[position_map[i]] = x
            res[tuple(new)] = c
        return Polynomial(target, res, _clean=True)

    def __repr__(self):
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# text form


def format_terms(names, terms):
    """Render (exponents, coefficient) pairs in the order given; "0" if none."""
    parts = []
    for exps, coeff in terms:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def format_polynomial(poly):
    """Render with terms descending under the ring's default order."""
    return format_terms(poly.ring.names,
                        poly.sorted_terms(poly.ring.default_order()))


def _scan(text):
    """The tokens of ``text``, each (kind, text, line, column), ending with
    an END token; kind is INT, NAME or the symbol itself."""
    tokens = []
    i, line, col = 0, 1, 1
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        j = i + 1
        if ch.isdecimal():
            while j < len(text) and text[j].isdecimal():
                j += 1
            kind = "INT"
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "NAME"
        elif ch in "+-*^/[],":
            kind = ch
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(("END", "", line, col))
    return tokens


def parse_polynomial(text, ring):
    """Parse terms joined by '+' and '-', each a '*'-product of coefficients
    (p or p/q) and variables of ``ring`` (y-names, x[indices]) with optional
    '^' exponents; integers are decimal digits of any script.

    The text is scanned whole first, so an unexpected character is reported
    ahead of any other error.  Each term is then read in one pass, its
    coefficient and exponents accumulating in place.  Bad syntax, an unknown
    variable, a zero denominator, a digit run longer than ``int()`` reads
    (``sys.get_int_max_str_digits()``), or an exponent or index past
    ``MAX_EXPONENT`` is a ParseError at its line and column; an exponent sum
    past it, in a term not zero so far, is a DomainError.
    """
    tokens = _scan(text)
    i = 0

    def integer(tok):
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"integer has more than "
                             f"{sys.get_int_max_str_digits()} digits",
                             tok[2], tok[3]) from None

    def take(kind):
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}",
                             tok[2], tok[3])
        return tok

    def exponent():
        tok = take("INT")
        value = integer(tok)
        if value > MAX_EXPONENT:
            raise ParseError("exponent overflow", tok[2], tok[3])
        return value

    terms = {}
    sign = 1
    if tokens[0][0] in "+-":
        sign = -1 if tokens[0][0] == "-" else 1
        i = 1
    while True:
        coeff, exps = Fraction(sign), [0] * ring.nvars
        while True:
            tok = tokens[i]
            i += 1
            if tok[0] == "INT":
                c = integer(tok)
                if tokens[i][0] == "/":
                    i += 1
                    tok = take("INT")
                    den = integer(tok)
                    if not den:
                        raise ParseError("zero denominator", tok[2], tok[3])
                    c = Fraction(c, den)
                coeff *= c
            elif tok[0] == "NAME":
                name = tok[1]
                if name == "x" and tokens[i][0] == "[":
                    i += 1
                    entries = [exponent()]
                    while tokens[i][0] == ",":
                        i += 1
                        entries.append(exponent())
                    take("]")
                    name = "x[%s]" % ",".join(map(str, entries))
                pos = ring.position.get(name)
                if pos is None:
                    raise ParseError(f"unknown variable {name!r}",
                                     tok[2], tok[3])
                exp = 1
                if tokens[i][0] == "^":
                    i += 1
                    exp = exponent()
                if coeff and exps[pos] + exp > MAX_EXPONENT:
                    raise DomainError("exponent overflow")
                exps[pos] += exp
            else:
                raise ParseError("expected a coefficient or variable, "
                                 f"found {tok[1]!r}", tok[2], tok[3])
            if tokens[i][0] != "*":
                break
            i += 1
        if coeff:
            add_terms(terms, {tuple(exps): 1}, coeff)
        tok = tokens[i]
        i += 1
        if tok[0] == "END":
            return Polynomial(ring, terms, _clean=True)
        if tok[0] not in "+-":
            raise ParseError(f"expected '+', '-' or end, found {tok[1]!r}",
                             tok[2], tok[3])
        sign = -1 if tok[0] == "-" else 1


# ---------------------------------------------------------------------------
# JSON form

SCALAR = (int, float, str)  # what int() and Fraction() parse


def json_shape(value, shape, field, entries=None):
    """``value`` when it is a ``shape`` (``dict``, ``list``, ``str`` or
    ``SCALAR``) and, given ``entries``, so is each of its entries; otherwise
    a DomainError naming ``field``, so that a malformed input file is
    reported as bad input rather than as a TypeError."""
    if not isinstance(value, shape):
        kind = {dict: "an object", list: "an array", str: "a string"}
        raise DomainError(f"{field} must be "
                          f"{kind.get(shape, 'a number or a string')}")
    if entries is not None:
        for x in value:
            json_shape(x, entries, f"entries of {field}")
    return value


def _check_digit_limit(text, where):
    """Raises a DomainError naming ``where`` and ``int()``'s digit limit
    (``sys.get_int_max_str_digits()``), without echoing ``text``, when the
    text a reader could not read holds more digits than that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and sum(map(str.isdecimal, text)) > limit:
        raise DomainError(f"{where} has a number with more than {limit} "
                          "digits") from None


def read_int(text, where):
    """``text``, read from a file, an option or an environment variable, as
    an int.  Text that ``int()`` refuses is a DomainError naming ``where``,
    and for more digits than ``int()`` reads, the limit (see
    :func:`_check_digit_limit`)."""
    try:
        return int(text)
    except ValueError:
        _check_digit_limit(text, where)
        raise DomainError(f"{where} must be an integer, got {text!r}") \
            from None


def as_integer(value, field):
    """``value`` as an int: an integer, a whole number such as 2.0, or an
    integer string such as "3", read by :func:`read_int`.  Anything else,
    2.7 and JSON's ``true`` included, is a DomainError naming ``field``
    rather than a silent truncation."""
    if isinstance(value, str):
        return read_int(value, field)
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise DomainError(f"{field} must be an integer, got {value!r}")
    return number


def as_fraction(value, field):
    """``value`` as a Fraction: an integer, a finite number such as 0.5, or a
    rational string such as "-3/2".  Anything else, 1e400 (read as inf),
    "1/0" and JSON's ``true`` included, is a DomainError naming ``field``,
    and a string with more digits than ``int()`` reads names the limit (see
    :func:`_check_digit_limit`)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        if isinstance(value, str):
            _check_digit_limit(value, field)
        raise DomainError(f"{field} must be a finite rational number, "
                          f"got {value!r}") from None


def ring_to_json(ring):
    if ring.kind == "S":
        return {"kind": "S", "s": ring.s}
    if ring.kind == "Rd":
        return {"kind": "Rd", "s": ring.s, "d": ring.d,
                "index_table": [list(a) for a in ring.indices]}
    return {"kind": "generic", "names": list(ring.names)}


def ring_from_json(obj):
    kind = json_shape(obj, dict, "ring").get("kind")
    if kind == "S":
        return base_ring(as_integer(obj["s"], "ring.s"))
    if kind == "Rd":
        ring = veronese_ring(as_integer(obj["s"], "ring.s"),
                             as_integer(obj["d"], "ring.d"))
        table = obj.get("index_table")
        if table is not None and [list(a) for a in ring.indices] != table:
            raise DomainError("index_table does not match the canonical enumeration")
        return ring
    if kind == "generic":
        return generic_ring(json_shape(obj["names"], list, "ring.names", str))
    raise DomainError(f"unknown ring kind {kind!r}")


def poly_to_json(poly, order=None):
    if order is None:
        order = poly.ring.default_order()
    return {"ring": ring_to_json(poly.ring),
            "terms": [{"coeff": str(c), "exps": list(e)}
                      for e, c in poly.sorted_terms(order)]}


def poly_from_json(obj, ring=None):
    json_shape(obj, dict, "polynomial")
    if ring is None:
        ring = ring_from_json(obj["ring"])
    terms = {}
    for t in json_shape(obj["terms"], list, "terms", dict):
        exps = tuple(as_integer(x, "entries of exps")
                     for x in json_shape(t["exps"], list, "exps"))
        if any(x < 0 for x in exps):
            raise DomainError("negative exponent in JSON term")
        if any(x > MAX_EXPONENT for x in exps):
            raise DomainError("exponent overflow")
        terms[exps] = terms.get(exps, 0) + as_fraction(
            json_shape(t["coeff"], SCALAR, "coeff"), "coeff")
    return Polynomial(ring, terms)
