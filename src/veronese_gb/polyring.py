"""Named polynomial rings over exact rationals, with text and JSON forms.

Monomials are dense exponent tuples indexed by ring position; polynomials map
exponent tuples to nonzero ``Fraction`` coefficients.  Values are immutable by
convention: every operation returns a fresh polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import DimensionError, DomainError, ParseError, RingMismatchError
from .orders import GammaRevLex, GrevLex, multi_indices

MAX_EXPONENT = 2**31 - 1


@dataclass(frozen=True)
class Ring:
    """A polynomial ring described by its variable names.

    ``kind`` is "S" for a base ring y1..ys, "Rd" for a degree-d Veronese ring
    whose variables carry multi-indices, or "generic" for anything else
    (elimination rings, toric auxiliary rings).
    """

    names: tuple
    kind: str = "generic"
    s: int = None
    d: int = None
    indices: tuple = None  # Rd only: position -> multi-index

    @property
    def nvars(self):
        return len(self.names)

    @cached_property
    def position(self):
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def zero_exps(self):
        return (0,) * self.nvars

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, exps, coeff=1):
        return Polynomial(self, {tuple(exps): Fraction(coeff)})

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


def base_ring(s):
    """The base ring with variables y1..ys."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    return Ring(tuple(f"y{i + 1}" for i in range(s)), kind="S", s=s)


def veronese_ring(s, d):
    """The ring with one variable per degree-d multi-index, in chain order."""
    idx = multi_indices(s, d)
    names = tuple("x[%s]" % ",".join(map(str, a)) for a in idx)
    return Ring(names, kind="Rd", s=s, d=d, indices=idx)


def generic_ring(names):
    return Ring(tuple(names), kind="generic")


def joint_ring(front, back):
    """Concatenate two rings; the front block comes first for elimination."""
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
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd_is_one(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


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

    def sorted_terms(self, order, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=reverse)

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


def format_polynomial(poly, order=None):
    """Render with terms descending under ``order`` (ring default if omitted)."""
    if order is None:
        order = poly.ring.default_order()
    return format_terms(poly.ring.names, poly.sorted_terms(order))


class _Tokenizer:
    SYMBOLS = "+-*^/[],"

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()

    def _error(self, msg, line=None, col=None):
        raise ParseError(msg, line or self.line, col or self.col)

    def _scan(self):
        text = self.text
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
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("INT", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("NAME", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch in self.SYMBOLS:
                self.tokens.append((ch, ch, line, col))
                i += 1
                col += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("END", "", line, col))


class _Parser:
    def __init__(self, text, ring):
        self.toks = _Tokenizer(text).tokens
        self.i = 0
        self.ring = ring

    def _peek(self):
        return self.toks[self.i]

    def _next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _error(self, msg, tok):
        raise ParseError(msg, tok[2], tok[3])

    def _expect(self, kind):
        tok = self._next()
        if tok[0] != kind:
            self._error(f"expected {kind!r}, found {tok[1]!r}", tok)
        return tok

    def parse(self):
        poly = self.ring.zero
        sign = 1
        tok = self._peek()
        if tok[0] in "+-":
            self._next()
            sign = -1 if tok[0] == "-" else 1
        while True:
            poly = poly + self._term() * sign
            tok = self._next()
            if tok[0] == "END":
                return poly
            if tok[0] == "+":
                sign = 1
            elif tok[0] == "-":
                sign = -1
            else:
                self._error(f"expected '+', '-' or end, found {tok[1]!r}", tok)

    def _term(self):
        poly = self._factor()
        while self._peek()[0] == "*":
            self._next()
            poly = poly * self._factor()
        return poly

    def _factor(self):
        tok = self._peek()
        if tok[0] == "INT":
            return self.ring.constant(self._coefficient())
        if tok[0] == "NAME":
            return self._varpow()
        self._error(f"expected a coefficient or variable, found {tok[1]!r}", tok)

    def _coefficient(self):
        num = int(self._expect("INT")[1])
        if self._peek()[0] == "/":
            self._next()
            tok = self._expect("INT")
            den = int(tok[1])
            if den == 0:
                self._error("zero denominator", tok)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self):
        tok = self._expect("INT")
        value = int(tok[1])
        if value > MAX_EXPONENT:
            self._error("exponent overflow", tok)
        return value

    def _varpow(self):
        tok = self._expect("NAME")
        name = tok[1]
        if name == "x" and self._peek()[0] == "[":
            self._next()
            entries = [self._int()]
            while self._peek()[0] == ",":
                self._next()
                entries.append(self._int())
            self._expect("]")
            name = "x[%s]" % ",".join(map(str, entries))
        pos = self.ring.position.get(name)
        if pos is None:
            self._error(f"unknown variable {name!r}", tok)
        exp = 1
        if self._peek()[0] == "^":
            self._next()
            exp = self._int()
        e = [0] * self.ring.nvars
        e[pos] = exp
        return self.ring.monomial(tuple(e))


def parse_polynomial(text, ring):
    """Parse the text grammar (coefficients, '*', '^', y-names, x[indices])."""
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# JSON form


def ring_to_json(ring):
    if ring.kind == "S":
        return {"kind": "S", "s": ring.s}
    if ring.kind == "Rd":
        return {"kind": "Rd", "s": ring.s, "d": ring.d,
                "index_table": [list(a) for a in ring.indices]}
    return {"kind": "generic", "names": list(ring.names)}


def ring_from_json(obj):
    kind = obj.get("kind")
    if kind == "S":
        return base_ring(int(obj["s"]))
    if kind == "Rd":
        ring = veronese_ring(int(obj["s"]), int(obj["d"]))
        table = obj.get("index_table")
        if table is not None and [list(a) for a in ring.indices] != table:
            raise DomainError("index_table does not match the canonical enumeration")
        return ring
    if kind == "generic":
        return generic_ring(obj["names"])
    raise DomainError(f"unknown ring kind {kind!r}")


def poly_to_json(poly, order=None):
    if order is None:
        order = poly.ring.default_order()
    return {"ring": ring_to_json(poly.ring),
            "terms": [{"coeff": str(c), "exps": list(e)}
                      for e, c in poly.sorted_terms(order)]}


def poly_from_json(obj, ring=None):
    if ring is None:
        ring = ring_from_json(obj["ring"])
    terms = {}
    for t in obj["terms"]:
        exps = tuple(int(x) for x in t["exps"])
        if any(x < 0 for x in exps):
            raise DomainError("negative exponent in JSON term")
        if any(x > MAX_EXPONENT for x in exps):
            raise DomainError("exponent overflow")
        terms[exps] = terms.get(exps, 0) + Fraction(t["coeff"])
    return Polynomial(ring, terms)
