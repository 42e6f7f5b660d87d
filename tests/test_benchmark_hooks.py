"""The names perfbench/tracing.py wraps and the caches it counts exist, and
its wrappers go in and come out again.

Otherwise a renamed or uncached function fails only in a traced benchmark
run.  The tracer module is loaded from its file; the caches are only read,
since emptying them would drop the shape caches other tests rely on.
"""

import importlib.util
from pathlib import Path

from veronese_gb.groebner import Ideal
from veronese_gb.polyring import base_ring, parse_polynomial
from veronese_gb.veronese import pullback_homogeneous_ideal

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracing):
    """Every namespace the tracer patches: the package, its modules, and the
    classes whose hot methods it counts."""
    pkg, mods = tracing.package_modules()
    orders, polyring, groebner = (mods["orders"], mods["polyring"],
                                  mods["groebner"])
    return [pkg, *mods.values(), orders.Lex, orders.GrevLex,
            orders.GammaRevLex, orders.Weighted, orders.Block,
            polyring.Polynomial, groebner.Budget]


def test_tracer_installs_and_restores_every_hook():
    tracing = _load_tracing()
    _, mods = tracing.package_modules()
    owners = _owners(tracing)
    before = [dict(vars(owner)) for owner in owners]
    hooked = [(mod, attr) for mod, attr, _ in
              tracing.SPAN_FUNCTIONS + tracing.GENERATOR_FUNCTIONS]
    originals = {key: getattr(mods[key[0]], key[1]) for key in hooked}
    tracer = tracing.Tracer()
    try:
        tracer.install_spans()
        tracer.install_hot()
        for (mod, attr), fn in originals.items():
            assert getattr(mods[mod], attr) is not fn, (mod, attr)
        assert len(tracing.veronese_caches()) == 6
        S3 = base_ring(3)
        conic = Ideal(S3, [parse_polynomial("y1^2 - y2*y3", S3)])
        mods["veronese"].pullback_homogeneous_ideal(conic, 2)
    finally:
        tracer.uninstall()
    assert tracer.calls["veronese.homogeneous_pullback_generators"] == 1
    assert tracer.hot_metrics()["orders.key.calls"] > 0
    assert mods["veronese"].pullback_homogeneous_ideal is \
        pullback_homogeneous_ideal
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is v for k, v in saved.items()), owner


def test_tracer_reads_six_veronese_caches():
    caches = _load_tracing().veronese_caches()
    assert len(caches) == 6
    for cache in caches:
        assert callable(cache.cache_info) and callable(cache.cache_clear)
        cache.cache_info()
