"""Spans and counters recorded around the calls into each package layer.

The package carries no tracing of its own, so the benchmark wraps the
functions it names in every module namespace that holds them (the modules
import each other's functions by name).  A wrapper passes its arguments and
its return value through unchanged; the one exception is ``buchberger``,
which receives a fresh ``GBStats`` when its caller passed none, so that the
counters of runs nobody asked about (the cached oracle seeds) are read too.

Two kinds of pass exist because their costs differ by orders of magnitude:

* the span pass records a span per call of the layer functions below;
* the hot pass counts and times the per-term primitives (order keys,
  ``leading_term``, the coefficient-size check), which run millions of
  times and would swamp the spans if timed in the same pass.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

# (module, function, span name).  Self time is reported under the span name.
SPAN_FUNCTIONS = (
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "is_groebner_basis", "groebner.is_groebner_basis"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "_reduce_basis", "groebner.reduce_basis"),
    ("groebner", "eliminate", "groebner.eliminate"),
    ("groebner", "find_weight_vector", "groebner.find_weight_vector"),
    ("veronese", "exchange_binomials", "veronese.exchange_binomials"),
    ("veronese", "kernel_groebner_basis", "veronese.kernel_groebner_basis"),
    ("veronese", "kernel_oracle_basis", "veronese.kernel_oracle_basis"),
    ("veronese", "verify_exchange_basis", "veronese.verify_exchange_basis"),
    ("veronese", "monomial_pullback_generators",
     "veronese.monomial_pullback_generators"),
    ("veronese", "pullback_monomial_ideal", "veronese.pullback_monomial_ideal"),
    ("veronese", "preimage_oracle", "veronese.preimage_oracle"),
    ("veronese", "homogeneous_pullback_generators",
     "veronese.homogeneous_pullback_generators"),
    ("veronese", "pullback_homogeneous_ideal",
     "veronese.pullback_homogeneous_ideal"),
    ("toric", "toric_ideal", "toric.toric_ideal"),
    ("toric", "verify_veronese_toric", "toric.verify_veronese_toric"),
    ("polyring", "parse_polynomial", "polyring.parse_polynomial"),
    ("polyring", "poly_to_json", "polyring.poly_to_json"),
    ("cli", "load_ideal_file", "cli.load"),
    ("cli", "load_configuration_file", "cli.load"),
    ("cli", "make_report", "cli.report"),
    ("cli", "emit", "cli.report"),
)
GENERATOR_FUNCTIONS = (
    ("veronese", "standard_monomials", "veronese.standard_monomials"),
)
# lru_cache'd functions of the veronese module whose cache_info() is summed.
VERONESE_CACHES = ("exchange_binomials", "kernel_groebner_basis",
                   "kernel_initial", "_joint_graph_gb", "kernel_oracle_basis",
                   "_kernel_initial_for")
MODULES = ("groebner", "veronese", "toric", "polyring", "orders", "cli")


def package_modules():
    import importlib
    pkg = importlib.import_module("veronese_gb")
    mods = {m: importlib.import_module(f"veronese_gb.{m}") for m in MODULES}
    return pkg, mods


def veronese_caches():
    """The original lru_cache objects, also while span wrappers hide them."""
    _, mods = package_modules()
    out = []
    for name in VERONESE_CACHES:
        fn = getattr(mods["veronese"], name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        out.append(fn)
    return out


def cache_totals(caches):
    hits = misses = 0
    for c in caches:
        info = c.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def clear_caches():
    """Empty every lru_cache of the package (the set-up refills them)."""
    _, mods = package_modules()
    for c in veronese_caches():
        c.cache_clear()
    mods["orders"].multi_indices.cache_clear()


class Tracer:
    """Records spans (name, start, end, parent, instance) and counters."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, instance)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.gb_calls = []       # per buchberger call: GBStats fields + output
        self.instance = None
        self._stack = []         # [id, name, start, child seconds]
        self._next_id = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, record=True):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if record:
            self.spans.append((sid, name, start, end,
                               parent[0] if parent else None, self.instance))

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)
        return wrapper

    def wrap_generator(self, name, fn):
        """Times each step of a generator; steps are not kept as spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, record=False)
                tracer.counters[name + ".yielded"] += 1
                yield item
        return wrapper

    def wrap_buchberger(self, fn, gbstats):
        tracer = self
        traced = self.wrap("groebner.buchberger", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = gbstats()
            before = (stats.spairs, stats.skipped_coprime, stats.skipped_chain)
            out = traced(*args, **kwargs)
            tracer.gb_calls.append({
                "spairs": stats.spairs - before[0],
                "skipped_coprime": stats.skipped_coprime - before[1],
                "skipped_chain": stats.skipped_chain - before[2],
                "basis_peak": stats.basis_peak,
                "output": len(out),
                "instance": tracer.instance})
            return out
        return wrapper

    def wrap_is_gb(self, fn):
        tracer = self
        traced = self.wrap("groebner.is_groebner_basis", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            check = traced(*args, **kwargs)
            tracer.counters["groebner.is_groebner_basis.spairs"] += check.spairs
            return check
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owners, attr, original, replacement):
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                setattr(owner, attr, replacement)
                self._undo.append((owner, attr, original))

    def install_spans(self):
        pkg, mods = package_modules()
        owners = [pkg] + list(mods.values())
        for mod, attr, name in SPAN_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            if attr == "buchberger":
                new = self.wrap_buchberger(fn, mods["groebner"].GBStats)
            elif attr == "is_groebner_basis":
                new = self.wrap_is_gb(fn)
            else:
                new = self.wrap(name, fn)
            self._patch(owners, attr, fn, new)
        for mod, attr, name in GENERATOR_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._patch(owners, attr, fn, self.wrap_generator(name, fn))

    def install_hot(self):
        """Count order keys, leading terms and coefficient sizes."""
        _, mods = package_modules()
        orders, polyring, groebner = mods["orders"], mods["polyring"], \
            mods["groebner"]
        c = self.counters
        state = {"depth": 0, "key_s": 0.0, "lt_s": 0.0, "bits": 0}
        clock = time.perf_counter

        def make_key(orig):
            def key(order, exps):
                c["orders.key.calls"] += 1
                if exps not in order._cache:
                    c["orders.key.misses"] += 1
                if state["depth"]:
                    return orig(order, exps)
                state["depth"] = 1
                t = clock()
                try:
                    return orig(order, exps)
                finally:
                    state["key_s"] += clock() - t
                    state["depth"] = 0
            return key

        for cls in (orders.Lex, orders.GrevLex, orders.GammaRevLex,
                    orders.Weighted, orders.Block):
            orig = cls.__dict__["key"]
            self._patch([cls], "key", orig, make_key(orig))

        lt_orig = polyring.Polynomial.__dict__["leading_term"]

        def leading_term(poly, order):
            c["polyring.leading_term.calls"] += 1
            k0 = state["key_s"]
            t = clock()
            try:
                return lt_orig(poly, order)
            finally:
                state["lt_s"] += clock() - t - (state["key_s"] - k0)

        self._patch([polyring.Polynomial], "leading_term", lt_orig,
                    leading_term)

        cc_orig = groebner.Budget.__dict__["check_coeff"]

        def check_coeff(budget, value):
            bits = value.numerator.bit_length() + value.denominator.bit_length()
            if bits > state["bits"]:
                state["bits"] = bits
            return cc_orig(budget, value)

        self._patch([groebner.Budget], "check_coeff", cc_orig, check_coeff)
        self._hot_state = state

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def hot_metrics(self):
        c, st = self.counters, self._hot_state
        calls = c["orders.key.calls"]
        return {"orders.key.calls": calls,
                "orders.key.misses": c["orders.key.misses"],
                "orders.key.self_s": st["key_s"],
                "polyring.leading_term.calls": c["polyring.leading_term.calls"],
                "polyring.leading_term.self_s": st["lt_s"],
                "polyring.coeff_bits_max": st["bits"]}

    def span_metrics(self):
        """Flat per-layer values of a span pass (mergeable by summing)."""
        out = {f"{name}.self_s": v for name, v in self.self_s.items()}
        out.update({f"{name}.calls": v for name, v in self.calls.items()})
        out.update(self.counters)
        gb = self.gb_calls
        for k in ("spairs", "skipped_coprime", "skipped_chain", "output"):
            out[f"groebner.buchberger.{k}"] = sum(g[k] for g in gb)
        out["groebner.buchberger.basis_peak"] = max(
            (g["basis_peak"] for g in gb), default=0)
        out["groebner.buchberger.basis_peak_sum"] = sum(
            g["basis_peak"] for g in gb)
        return out

    def dump_spans(self):
        return [list(s) for s in self.spans]
