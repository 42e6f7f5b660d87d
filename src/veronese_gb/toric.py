"""Toric ideals of lattice point configurations and their Veronese layers.

A configuration is a finite list of integer points admitting a rational
grading vector that evaluates to 1 on every point; the kernel of the induced
monomial map is then homogeneous in the standard grading.  Kernels are
computed by elimination, with one inverse-product variable making the
auxiliary variables invertible when points have negative coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotAConfigurationError
from .groebner import (Ideal, _DivisorIndex, eliminate, find_weight_vector,
                       graph_ideal)
from .polyring import base_ring
from .veronese import (VeroneseMap, multi_indices, pullback_homogeneous_ideal,
                       quadratic_pullback_bound)


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


@dataclass(frozen=True)
class Configuration:
    """Lattice points with a certified grading; repeats are allowed."""

    points: tuple
    grading: tuple

    @classmethod
    def from_points(cls, points, grading=None):
        pts = tuple(tuple(int(x) for x in p) for p in points)
        lam = certify_grading(pts)
        if grading is not None:
            given = tuple(Fraction(x) for x in grading)
            if any(sum(g * x for g, x in zip(given, p)) != 1 for p in pts):
                raise NotAConfigurationError(
                    "supplied grading does not evaluate to 1 on every point")
            lam = given
        return cls(pts, lam)

    @property
    def size(self):
        return len(self.points)

    @property
    def dim(self):
        return len(self.points[0])

    def image_exps(self, exps):
        """Exponent vector in the torus for a monomial in the point variables."""
        out = [0] * self.dim
        for e, p in zip(exps, self.points):
            if e:
                for j in range(self.dim):
                    out[j] += e * p[j]
        return tuple(out)


def point_rank(points):
    """Rank of the point matrix over the rationals."""
    points = list(points)
    return len(_row_reduce(points, len(points[0]) if points else 0)[1])


def toric_groebner_basis(points, ring=None, order=None, budget=None):
    """Reduced basis of the kernel of the monomial map on the given points.

    One variable per point; elimination runs over the torus variables, with
    an extra inverse-product variable when any coordinate is negative.
    """
    points = [tuple(p) for p in points]
    s = len(points)
    if ring is None:
        ring = base_ring(s)
    if ring.nvars != s:
        raise DomainError("ring must have one variable per point")
    if order is None:
        order = ring.default_order()
    joint, gens = graph_ideal(points, ring)
    return eliminate(gens, joint.nvars - s, ring, order, budget=budget)


def toric_ideal(config, budget=None):
    """The kernel ideal of a configuration, with its default basis cached."""
    ring = base_ring(config.size)
    gb = toric_groebner_basis(config.points, ring, budget=budget)
    ideal = Ideal(ring, gb)
    ideal._cache[ring.default_order()] = gb
    return ideal


@dataclass(frozen=True)
class VeroneseLayer:
    """The degree-d layer of a configuration: one point per multi-index."""

    base: Configuration
    d: int
    configuration: Configuration  # multiset, in canonical variable order
    unique_points: tuple
    index_of: tuple  # position -> index into unique_points

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
    """Points of the degree-d layer, one per canonical multi-index, with the
    deduplicated support alongside."""
    if d < 1:
        raise DomainError("d must be at least 1")
    pts = [config.image_exps(a) for a in multi_indices(config.size, d)]
    grading = tuple(g / d for g in config.grading)
    layer = Configuration(tuple(pts), grading)
    unique, index_of = [], []
    seen = {}
    for p in pts:
        if p not in seen:
            seen[p] = len(unique)
            unique.append(p)
        index_of.append(seen[p])
    return VeroneseLayer(config, d, layer, tuple(unique), tuple(index_of))


@dataclass
class ToricVeroneseCertificate:
    """Checks for the quadratic-basis claim on a configuration's layer."""

    config: Configuration
    d: int
    pa_basis: tuple
    omega: tuple
    bound: int
    meets_bound: bool
    pullback: object
    all_binomial: bool
    max_degree: int
    images_equal: bool
    duplicates_linear: bool

    @property
    def ok(self):
        quadratic = (not self.meets_bound) or self.max_degree <= 2
        return (self.all_binomial and self.images_equal
                and self.duplicates_linear and quadratic)


def verify_veronese_toric(config, d, method="constructive", budget=None):
    """Run the full pipeline on a configuration's degree-d layer.

    Computes the kernel ideal, derives weights from the default order, pulls
    the ideal back, and checks binomiality, image equality under the layer's
    monomial map, and the recorded duplicate-point identifications.
    """
    ideal = toric_ideal(config, budget)
    order_s = ideal.ring.default_order()
    omega = find_weight_vector(ideal, order_s, budget)
    pb = pullback_homogeneous_ideal(ideal, d, omega, method=method,
                                    budget=budget)
    layer = veronese_layer(config, d)
    vmap = VeroneseMap(config.size, d)

    init = ideal.initial_ideal(order_s, budget)
    if init.is_zero:
        bound, meets = 1, True
    else:
        bound = quadratic_pullback_bound(config.size, init.max_exponent())
        meets = d >= bound

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

    return ToricVeroneseCertificate(
        config, d, ideal.generators, omega, bound, meets, pb,
        all_binomial, pb.max_degree, images_equal, duplicates_linear)
