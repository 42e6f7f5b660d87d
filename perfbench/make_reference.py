"""Builds ``reference/``: the instance pools, their digests, the CLI digests.

Usage (from the repository root):

    python3 perfbench/make_reference.py

Run once, on a commit whose outputs are trusted; every later benchmark run
compares against what this writes.  Each pooled instance is solved by the
package, its reduced basis digested, and its cost recorded (the cost only
orders the pool for stratified draws).  For the first ``SYMPY_COUNT``
instances of each class, and where sympy finishes within ``SYMPY_SECONDS``,
the same basis is recomputed by sympy.groebner along an independent route,
elimination from the graph of the monomial map, and must agree exactly
(sympy needs seconds per instance, so the whole pool would take hours).  Any disagreement or failed certificate aborts the build
instead of being written down as a reference.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time
from fractions import Fraction

import run
import instances as I

POOL_PER_CLASS = 300
# Instances per class cross-checked against sympy, and the time limit of
# each cross-check in seconds.
SYMPY_COUNT = 40
SYMPY_SECONDS = 10


class _TimeUp(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeUp()


def with_time_limit(seconds, fn, *args):
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        return fn(*args)
    except _TimeUp:
        return None
    finally:
        signal.alarm(0)


# ---------------------------------------------------------------------------
# sympy routes (orders written out here, not taken from the package)


def _gamma(e):
    return (sum(e), tuple(-x for x in e))


def _grevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def sympy_elimination(front_names, back_names, gens, back_key):
    """Reduced basis of (ideal of gens) meet k[back] under back_key.

    ``gens`` are dicts {exponent tuple over front+back: int}; returns a set
    of frozensets of (back exponents, Fraction) terms.
    """
    import sympy
    from sympy.polys.orderings import MonomialOrder

    nf = len(front_names)

    class BlockKey(MonomialOrder):
        alias = "bench_block"

        def __call__(self, m):
            return (_grevlex(m[:nf]), back_key(m[nf:]))

    syms = sympy.symbols(" ".join(front_names + back_names))
    exprs = []
    for g in gens:
        expr = 0
        for e, c in g.items():
            term = sympy.Rational(c)
            for v, x in zip(syms, e):
                term *= v ** x
            expr += term
        exprs.append(expr)
    G = sympy.groebner(exprs, *syms, order=BlockKey(), domain=sympy.QQ)
    out = set()
    for p in G.polys:
        terms = p.terms()
        if any(any(m[:nf]) for m, _ in terms):
            continue
        out.add(frozenset((tuple(int(x) for x in m[nf:]),
                           Fraction(int(c.numerator), int(c.denominator)))
                          for m, c in terms))
    return out


def as_set(polys):
    return {frozenset(p.terms.items()) for p in polys}


def graph_generators(s, d):
    """x_a - y^a in the ring (y1..ys, x_0..x_{n-1}), as exponent dicts."""
    import veronese_gb as vg
    idx = vg.VeroneseMap(s, d).ring.indices
    n = len(idx)
    gens = []
    for i, a in enumerate(idx):
        x = [0] * n
        x[i] = 1
        gens.append({tuple([0] * s + x): 1, tuple(list(a) + [0] * n): -1})
    return gens, n


def sympy_pullback(s, d, base_gens, back_key):
    """Preimage of the base ideal under the degree-d map, by elimination."""
    gens, n = graph_generators(s, d)
    for g in base_gens:
        gens.append({tuple(list(e) + [0] * n): c for e, c in g.items()})
    return sympy_elimination([f"y{i}" for i in range(s)],
                             [f"x{i}" for i in range(n)], gens, back_key)


def sympy_toric_layer(points, d, back_key):
    """Kernel of x_a -> t^(A a): the toric ideal of the degree-d layer."""
    import veronese_gb as vg
    idx = vg.VeroneseMap(len(points), d).ring.indices
    dim = len(points[0])
    layer = [[sum(a[k] * points[k][j] for k in range(len(points)))
              for j in range(dim)] for a in idx]
    negative = any(x < 0 for p in layer for x in p)
    nf = dim + (1 if negative else 0)
    n = len(layer)
    gens = []
    for i, p in enumerate(layer):
        x = [0] * n
        x[i] = 1
        neg = [max(-v, 0) for v in p] + [0] * (nf - dim)
        pos = [max(v, 0) for v in p] + [0] * (nf - dim)
        gens.append({tuple(neg + x): 1, tuple(pos + [0] * n): -1})
    if negative:
        gens.append({tuple([1] * nf + [0] * n): 1, tuple([0] * (nf + n)): -1})
    return sympy_elimination([f"t{j}" for j in range(nf)],
                             [f"x{i}" for i in range(n)], gens, back_key)


def weighted_key(weights):
    return lambda e: (sum(w * x for w, x in zip(weights, e)), _gamma(e))


# ---------------------------------------------------------------------------


def solve(kind, inst):
    """Runs one pooled instance; returns (result, seconds)."""
    import veronese_gb as vg
    budget = vg.Budget()
    t = time.perf_counter()
    if kind == "monomial":
        res, problems = I.monomial_instance(inst, budget)
        problems += I.monomial_oracle_check(inst, res, budget)
    elif kind == "weighted":
        res, problems = I.weighted_instance(inst, budget)
    else:
        res, problems = I.toric_instance(inst, budget)
    cost = time.perf_counter() - t
    if problems:
        sys.exit(f"instance {inst} fails at this commit: {problems}")
    return res, cost


def sympy_route(kind, inst, res):
    if kind == "monomial":
        gens = [{tuple(g): 1} for g in inst["gens"]]
        return sympy_pullback(inst["s"], inst["d"], gens, _gamma)
    key = weighted_key(res.order.weights)
    if kind == "weighted":
        gens = [{tuple(e): c for e, c in g} for g in inst["gens"]]
        return sympy_pullback(inst["s"], inst["d"], gens, key)
    return sympy_toric_layer(inst["points"], inst["d"], key)


def build_pool(kind, entries):
    checked = skipped = 0
    for i, inst in enumerate(entries):
        res, _ = solve(kind, inst)
        inst["digest"] = I.digest(res.reduced)
        if i >= SYMPY_COUNT:
            inst["sympy"] = "not run"
            continue
        theirs = with_time_limit(SYMPY_SECONDS, sympy_route, kind, inst, res)
        if theirs is None:
            inst["sympy"] = "time limit"
            skipped += 1
        elif theirs == as_set(res.reduced):
            inst["sympy"] = "match"
            checked += 1
        else:
            sys.exit(f"sympy disagrees with the package on {kind} {inst}")
    # Costs are timed once every cache a run fills is warm, as in a run's
    # timed phase, and the median of three is kept: draws are stratified by
    # them, so their order has to match what a run sees.
    for inst in entries:
        inst["cost_s"] = round(statistics.median(
            solve(kind, inst)[1] for _ in range(3)), 5)
    print(f"{kind}: {len(entries)} instances, {checked} matched sympy, "
          f"{skipped} beyond its time limit", flush=True)
    return entries


def build_cli_reference():
    ref = {}
    plan = [cmd for _, cmd in run.cli_plan(0, 1)]
    plan += list(run.GOLDEN_CASES.values())
    for argv in plan:
        proc = run.run_cli(argv)
        if proc.returncode != 0:
            sys.exit(f"{argv} exits {proc.returncode}: {proc.stderr}")
        text = run.strip_timing(proc.stdout)
        for name, case in run.GOLDEN_CASES.items():
            if tuple(argv) == case and \
                    text != (run.GOLDEN / f"{name}.json").read_text():
                sys.exit(f"{argv} does not reproduce golden {name}")
        ref[" ".join(argv)] = run.hashlib.sha256(text.encode()).hexdigest()
    return ref


def main():
    sys.path.insert(0, str(run.SRC))
    rng = random.Random(I.GENERATOR_SEED)
    run.REFERENCE.mkdir(exist_ok=True)

    cli = build_cli_reference()
    (run.REFERENCE / "cli.json").write_text(json.dumps(cli, indent=1) + "\n")
    print(f"cli: {len(cli)} command digests", flush=True)

    for (s, d) in sorted(set(I.PULLBACK_SHAPES) | set(I.WEIGHTED_SHAPES)):
        run.fill_caches([(s, d)])
    pool = I.monomial_pool(rng, POOL_PER_CLASS)
    pool = {cls: build_pool("monomial", pool[cls]) for cls in ("at", "below")}
    (run.REFERENCE / "pullback_pool.json").write_text(
        json.dumps(pool, indent=0) + "\n")

    pool = {"weighted": build_pool("weighted",
                                   I.weighted_pool(rng, POOL_PER_CLASS)),
            "toric": build_pool("toric", I.toric_pool(rng, POOL_PER_CLASS))}
    (run.REFERENCE / "weighted_toric_pool.json").write_text(
        json.dumps(pool, indent=0) + "\n")


if __name__ == "__main__":
    main()
