"""Reference definitions that the tests compare the library with.

The package keeps only what it, its command line or its benchmark reads;
these helpers are read by tests alone.  ``s_polynomial`` is written from
its textbook definition, as a spec; the others are thin wrappers over the
library code that they name.
"""

from fractions import Fraction

from veronese_gb.errors import DimensionError, DomainError
from veronese_gb.orders import GrevLex, Lex, variable_chain_key
from veronese_gb.toric import _row_reduce


def cmp(order, a, b):
    """-1, 0, or 1 as a precedes, equals, or follows b under ``order``."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def cmp_lex(a, b, priority=None):
    """Compare under lex: first disagreeing position (after reordering) decides."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    order = Lex(len(a), tuple(priority) if priority is not None else None)
    return cmp(order, a, b)


def cmp_rlex(a, b, chain=None):
    """Compare under graded revlex with the given largest-to-smallest chain."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    order = GrevLex(len(a), tuple(chain) if chain is not None else None)
    return cmp(order, a, b)


def cmp_gamma_vars(a, b):
    """Compare two degree-d multi-indices as Veronese ring variables."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors differ in length")
    if sum(a) != sum(b):
        raise DimensionError("multi-indices of different degree index different rings")
    ka, kb = variable_chain_key(a), variable_chain_key(b)
    return (ka > kb) - (ka < kb)


def monic(p, order):
    """``p`` divided by its leading coefficient; zero stays zero."""
    if not p:
        return p
    return p * (Fraction(1) / p.leading_term(order)[1])


def s_polynomial(f, g, order):
    """The textbook S-polynomial lcm/lt(f) * f/lc(f) - lcm/lt(g) * g/lc(g),
    lcm the least common multiple of the two leading monomials, in the
    ring's own arithmetic."""
    (a, ca), (b, cb) = f.leading_term(order), g.leading_term(order)
    lcm = tuple(map(max, a, b))

    def cofactor(lt):
        return f.ring.monomial(x - y for x, y in zip(lcm, lt))

    return cofactor(a) * f * (1 / ca) - cofactor(b) * g * (1 / cb)


def point_rank(points):
    """Rank of the point matrix over the rationals."""
    points = list(points)
    return len(_row_reduce(points, len(points[0]) if points else 0)[1])


def min_divisor_variable(vmap, u):
    """Least variable of ``vmap``'s ring whose image divides the image of the
    monomial u."""
    if not any(u):
        raise DomainError("the constant monomial has no dividing variable")
    return vmap.min_divisor_of_image(vmap.image_exps(u))


def least_preimage(vmap, c):
    """The least preimage of the base monomial c, the one term of its lift,
    which ``vmap.lift`` reads from the standard-monomial table."""
    (u,) = vmap.lift(vmap.base.monomial(c)).terms
    return u
