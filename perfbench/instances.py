"""Instance pools for the in-process workloads, and the calls that run them.

Pools are generated once by ``make_reference.py`` from a fixed generator
seed and stored, with the digest of every reduced basis, under
``reference/``.  A benchmark run draws its instances from the stored pool
with its own ``--seed``; the package only ever sees the drawn inputs.

Everything here talks to the package through its public functions; the
package is imported lazily, after ``run.py`` has checked the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Shapes whose kernel and oracle bases the pullback batch seeds in set-up;
# the elimination oracle of anything larger costs seconds to minutes.
PULLBACK_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                   (4, 2))
WEIGHTED_SHAPES = ((3, 2), (3, 3), (4, 2))
# Toric layers: 3 points at d in {2, 3}, 4 points at d = 2 only.  Four points
# at d = 3 sit below the quadratic bound whenever the toric ideal is nonzero,
# which calls the (4, 3) elimination oracle: 35 s cold on its own.
TORIC_SHAPES = ((3, 2), (3, 3), (4, 2))
# Non-homogenising coordinates of toric points.  [-2, 4] gave one 70 s
# instance (a Buchberger pair explosion at d = 2) in a few dozen draws;
# [-1, 2] keeps the worst of 300 pooled instances near 3 s, which a run of
# fixed length can absorb.
TORIC_COORD_RANGE = (-1, 2)
MAX_MONOMIAL_EXPONENT = 3
GENERATOR_SEED = 20261017


def digest(polys):
    """SHA-256 of a basis in the order returned: exponents and exact
    coefficients, independent of any text or JSON formatting in the package."""
    rows = [sorted([list(e), f"{c.numerator}/{c.denominator}"]
                   for e, c in p.terms.items()) for p in polys]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pool generation


def _bound(s, a):
    return math.ceil(Fraction(s * (a + 1), 2))


def _minimal(gens):
    """Minimal generators of a monomial ideal (divisibility antichain)."""
    kept = []
    for e in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(all(x <= y for x, y in zip(g, e)) for g in kept):
            kept.append(e)
    return kept


def monomial_pool(rng, per_class):
    """Random monomial ideals: ``per_class`` at the quadratic bound (d equal
    to it) and ``per_class`` below it (d smaller, so the oracle joins)."""
    pool = {"at": [], "below": []}
    allowed = {}
    for s, d in PULLBACK_SHAPES:
        allowed.setdefault(s, []).append(d)
    while min(len(v) for v in pool.values()) < per_class:
        s = rng.choice(sorted(allowed))
        gens = [tuple(rng.randint(0, MAX_MONOMIAL_EXPONENT) for _ in range(s))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        gens = _minimal(gens)
        b = _bound(s, max(max(g) for g in gens))
        choices = {"at": [d for d in allowed[s] if d == b],
                   "below": [d for d in allowed[s] if d < b]}
        cls = rng.choice(["at", "below"])
        if not choices[cls] or len(pool[cls]) >= per_class:
            continue
        pool[cls].append({"s": s, "d": rng.choice(choices[cls]),
                          "gens": [list(g) for g in gens]})
    return pool


def _homogeneous_poly(rng, s, degree):
    terms = {}
    for _ in range(rng.randint(2, 3)):
        cuts = sorted(rng.randint(0, degree) for _ in range(s - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        terms[tuple(parts)] = rng.choice([-2, -1, 1, 2])
    return [[list(e), c] for e, c in sorted(terms.items())]


def weighted_pool(rng, count):
    """Random homogeneous ideals with coefficients in {+-1, +-2}."""
    out = []
    while len(out) < count:
        s, d = rng.choice(WEIGHTED_SHAPES)
        gens = [_homogeneous_poly(rng, s, rng.randint(2, 3))
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if len(g) > 1]
        if gens:
            out.append({"s": s, "d": d, "gens": gens})
    return out


def toric_pool(rng, count):
    """Random point configurations, homogenised by a leading coordinate 1
    so that the grading (1, 0, ...) certifies each of them."""
    lo, hi = TORIC_COORD_RANGE
    out = []
    for _ in range(count):
        size, d = rng.choice(TORIC_SHAPES)
        dim = rng.randint(1, 2)
        points = [[1] + [rng.randint(lo, hi) for _ in range(dim)]
                  for _ in range(size)]
        out.append({"points": points, "d": d})
    return out


# ---------------------------------------------------------------------------
# drawing a run's instances


def stratified_draw(entries, count, rng):
    """``count`` entries: the costliest 2% of the pool every time (capped at
    a tenth of the draw), then one from each equal slice of the rest sorted
    by reference cost.

    Every seed then gets the same mix of cheap and expensive instances, and
    the rare instances that cost seconds are in every run instead of in some,
    so the run-to-run spread measures the system rather than the draw.
    """
    ranked = sorted(entries, key=lambda e: (e["cost_s"], e["digest"]))
    count = min(count, len(ranked))
    census = min(len(ranked) // 50, count // 10)
    rest = ranked[:len(ranked) - census]
    n, k = len(rest), count - census
    return ranked[len(rest):] + [rest[rng.randrange(i * n // k,
                                                    (i + 1) * n // k)]
                                 for i in range(k)]


# ---------------------------------------------------------------------------
# running one instance through the public API


def _vg():
    import veronese_gb
    return veronese_gb


def monomial_instance(inst, budget):
    """The ``pullback --method both --verify`` path, in process.

    Returns (reduced basis, list of failed checks).
    """
    vg = _vg()
    s, d = inst["s"], inst["d"]
    ideal = vg.MonomialIdeal.from_exponents(
        vg.base_ring(s), (tuple(g) for g in inst["gens"]))
    res = vg.pullback_monomial_ideal(ideal, d, verify=True, budget=budget)
    cert = res.certificate
    bad = [k for k in ("is_groebner", "members_in_target", "complete")
           if cert.get(k) is not True]
    if "matches_oracle" in cert and cert["matches_oracle"] is not True:
        bad.append("matches_oracle")
    return res, bad


def monomial_oracle_check(inst, res, budget):
    """The independent elimination route that ``--method both`` compares."""
    vg = _vg()
    s, d = inst["s"], inst["d"]
    ring = vg.base_ring(s)
    ideal = vg.Ideal(ring, [ring.monomial(tuple(g)) for g in inst["gens"]])
    oracle = vg.preimage_oracle(ideal, vg.VeroneseMap(s, d), budget=budget)
    return [] if tuple(res.reduced) == tuple(oracle) else ["oracle_mismatch"]


def weighted_instance(inst, budget):
    """Weights by Fourier-Motzkin, then the constructive and oracle pullbacks
    (``method="both"`` raises when they disagree)."""
    vg = _vg()
    ring = vg.base_ring(inst["s"])
    ideal = vg.Ideal(ring, [vg.Polynomial(ring, {tuple(e): Fraction(c)
                                                 for e, c in g})
                            for g in inst["gens"]])
    omega = vg.find_weight_vector(ideal, ideal.ring.default_order(), budget)
    res = vg.pullback_homogeneous_ideal(ideal, inst["d"], omega, method="both",
                                        budget=budget)
    cert = res.certificate
    bad = [k for k in ("initial_matches_monomial_pullback", "members_in_target")
           if cert.get(k) is not True]
    return res, bad


def toric_instance(inst, budget):
    vg = _vg()
    config = vg.Configuration.from_points(inst["points"])
    cert = vg.verify_veronese_toric(config, inst["d"], budget=budget)
    return cert.pullback, ([] if cert.ok else ["toric_certificate"])
