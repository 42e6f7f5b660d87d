"""Toric ideals of lattice point configurations and their Veronese layers.

A configuration is a finite list of integer points admitting a rational
grading vector that evaluates to 1 on every point; the kernel of the induced
monomial map is then homogeneous in the standard grading.  Kernels are
computed by elimination, after shifting the points nonnegative.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, DomainError, NotAConfigurationError
from .groebner import (Budget, Ideal, _DivisorIndex, eliminate, graph_ideal,
                       monomial_image)
from .polyring import as_fraction, as_integer, base_ring
from .values import Record, Value
from .veronese import VeroneseMap, multi_indices, pullback_homogeneous_ideal


def _row_reduce(rows, ncols):
    """Reduced row echelon form over the rationals, pivoting only on the
    first ``ncols`` columns; returns the rows and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def certify_grading(points):
    """A rational vector hitting 1 on every point, by exact elimination.

    Raises ``NotAConfigurationError`` when the linear system is inconsistent.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise DomainError("empty point list")
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise DomainError("points of unequal dimension")
    rows, pivots = _row_reduce([p + (1,) for p in points], n)
    if any(row[n] for row in rows[len(pivots):]):
        raise NotAConfigurationError(
            "no grading vector evaluates to 1 on every point")
    grading = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        grading[c] = rows[i][n]
    return tuple(grading)


class Configuration(Value):
    """Lattice points with a certified grading; repeats are allowed."""

    _fields = ("points", "grading")

    def __init__(self, points, grading):
        super().__init__(points, grading)

    @classmethod
    def from_points(cls, points, grading=None):
        pts = tuple(tuple(as_integer(x, "point coordinates") for x in p)
                    for p in points)
        lam = certify_grading(pts)
        if grading is not None:
            given = tuple(as_fraction(x, "entries of lambda") for x in grading)
            if len(given) != len(pts[0]):
                raise DimensionError(f"lambda needs {len(pts[0])} entries, "
                                     f"got {len(given)}")
            if any(sum(g * x for g, x in zip(given, p)) != 1 for p in pts):
                raise NotAConfigurationError(
                    "supplied grading does not evaluate to 1 on every point")
            lam = given
        return cls(pts, lam)

    @property
    def size(self):
        return len(self.points)

    def image_exps(self, exps):
        """Exponent vector in the torus for a monomial in the point variables."""
        return monomial_image(self.points, exps)


def point_rank(points):
    """Rank of the point matrix over the rationals."""
    points = list(points)
    return len(_row_reduce(points, len(points[0]) if points else 0)[1])


def toric_groebner_basis(points, ring=None, order=None, budget=None):
    """Reduced basis of the kernel of the monomial map on the given points.

    One variable per point.  Points with a negative coordinate must form a
    configuration, graded by lambda: they are shifted by a v >= 0 that makes
    them nonnegative, with 1 + lambda.v != 0, so that lambda takes a relation
    sum u_i (p_i + v) = 0 to sum u_i = 0 and the kernel stays the same.
    """
    points = [tuple(p) for p in points]
    s = len(points)
    if ring is None:
        ring = base_ring(s)
    if ring.nvars != s:
        raise DomainError("ring must have one variable per point")
    if order is None:
        order = ring.default_order()
    shift = [max(0, -min(column)) for column in zip(*points)]
    if any(shift):
        grading = certify_grading(points)
        if 1 + sum(g * v for g, v in zip(grading, shift)) == 0:
            shift[next(j for j, g in enumerate(grading) if g)] += 1
        points = [tuple(x + v for x, v in zip(p, shift)) for p in points]
    joint, gens = graph_ideal(points, ring)
    return eliminate(gens, joint.nvars - s, ring, order, budget=budget)


def toric_ideal(config, budget=None):
    """The kernel ideal of a configuration, with its default basis cached."""
    ring = base_ring(config.size)
    gb = toric_groebner_basis(config.points, ring, budget=budget)
    ideal = Ideal(ring, gb)
    ideal._cache[ring.default_order()] = gb
    return ideal


class VeroneseLayer(Value):
    """The degree-d layer of a configuration: one point per multi-index;
    ``configuration`` is a multiset, in canonical variable order."""

    _fields = ("base", "d", "configuration")

    def __init__(self, base, d, configuration):
        super().__init__(base, d, configuration)

    @property
    def unique_points(self):
        return tuple(dict.fromkeys(self.configuration.points))

    @property
    def duplicate_pairs(self):
        first = {}
        pairs = []
        for i, p in enumerate(self.configuration.points):
            if p in first:
                pairs.append((first[p], i))
            else:
                first[p] = i
        return tuple(pairs)


def veronese_layer(config, d):
    """Points of the degree-d layer, one per canonical multi-index."""
    if d < 1:
        raise DomainError("d must be at least 1")
    pts = [config.image_exps(a) for a in multi_indices(config.size, d)]
    grading = tuple(g / d for g in config.grading)
    return VeroneseLayer(config, d, Configuration(tuple(pts), grading))


class ToricVeroneseCertificate(Record):
    """Checks for the quadratic-basis claim on a configuration's layer; the
    weights, the bound (None for a zero kernel), ``meets_bound`` and the
    largest degree are read from ``pullback``."""

    def __init__(self, pullback, all_binomial, images_equal,
                 duplicates_linear):
        self.pullback = pullback
        self.all_binomial = all_binomial
        self.images_equal = images_equal
        self.duplicates_linear = duplicates_linear

    @property
    def ok(self):
        pb = self.pullback
        quadratic = (not pb.certificate["meets_bound"]) or pb.max_degree <= 2
        return (self.all_binomial and self.images_equal
                and self.duplicates_linear and quadratic)


def verify_veronese_toric(config, d, method="constructive", budget=None):
    """Run the full pipeline on a configuration's degree-d layer.

    Computes the kernel ideal, pulls it back under the weights derived from
    the default order, and checks binomiality, image equality under the
    layer's monomial map, and the recorded duplicate-point identifications.
    ``method`` goes to :func:`pullback_homogeneous_ideal`; "both" checks the
    constructive basis against the elimination oracle.
    The certificate keeps the pullback and reads the weights, the bound
    (None for a zero kernel) and the largest degree from it.  A shape that
    the exchange cap refuses is refused by :class:`VeroneseMap` before the
    kernel is computed.
    """
    if budget is None:
        budget = Budget()
    vmap = VeroneseMap(config.size, d)
    ideal = toric_ideal(config, budget)
    pb = pullback_homogeneous_ideal(ideal, d, method=method, budget=budget)
    layer = veronese_layer(config, d)

    all_binomial = all(g.is_binomial_pm1() for g in pb.reduced)
    images_equal = True
    for g in pb.reduced:
        images = {layer.configuration.image_exps(e) for e in g.terms}
        if len(images) != 1:
            images_equal = False
            break

    duplicates_linear = True
    if layer.duplicate_pairs:
        index = _DivisorIndex.of(pb.reduced, pb.order, vmap.ring)
        duplicates_linear = all(
            not index.remainder(vmap.ring.variable(i) - vmap.ring.variable(j),
                                budget)
            for i, j in layer.duplicate_pairs)

    return ToricVeroneseCertificate(pb, all_binomial, images_equal,
                                    duplicates_linear)
