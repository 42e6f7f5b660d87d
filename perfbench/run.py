"""The repository benchmark: one workload per run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop: one benchmark process, one request at a time):

* ``cli-cold``: fresh ``python -m veronese_gb.cli`` processes, run one after
  another: the ``veronese --verify`` certification shapes, then rounds of
  the small commands on ``tests/data``.
* ``pullback-batch``: one process; set-up seeds the kernel and oracle
  caches, the timed phase pulls back random monomial ideals at and below
  the quadratic bound (``pullback --method both --verify`` in process).
* ``weighted-toric``: one process; weighted pullbacks of random
  homogeneous ideals (Fourier-Motzkin weights, constructive and oracle
  routes) and toric Veronese certificates of random point configurations.

End-to-end times are in cal, each timed call's seconds over the calibration
samples taken around it (see ``Clock``); ``setup_s`` is in seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
instances three times (untraced, with spans, with the hot counters) and
prints the per-layer metrics; spans go to ``.bench_out/``.  The last line
of standard output is the result object; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import instances as I
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"

# Set-up is repeated this many times before the timed phase and this many
# after it, and the median of all reported: the host's speed changes from one
# few-second stretch to the next, and one stretch would set all the samples.
SETUP_REPEATS = (2, 1)

# Seconds between the calibration samples taken during a timed call.
SAMPLE_EVERY = 0.2
# The calibration loop: a product of two fixed sparse polynomials with
# Fraction coefficients keyed by exponent tuples, the package's own kind of
# work, about 1 ms a pass on a 2-core x86-64 VM with Python 3.11.
_CAL_P = {tuple((i * 7 + j * 3) % 5 for j in range(3)) + (i,):
          Fraction(i * i + 3, 2 * i + 1) for i in range(24)}
_CAL_Q = {tuple((i * 5 + j) % 4 for j in range(3)) + (i % 3,):
          Fraction(2 * i + 5, i + 2) for i in range(24)}

# (6, 2) and (3, 4) take 14 s and 24 s each, with +-10% from one process to
# the next: a run cannot repeat them, so selftest.py pins their counters.
CERTIFY_SHAPES = ((2, 3), (3, 3), (4, 2), (5, 2), (2, 8))
SMALL_COMMANDS = (
    ("gbasis", "tests/data/elim_curve.json", "--order", "block:1",
     "--eliminate"),
    ("pullback", "tests/data/square_square.json", "--d", "3", "--method",
     "both"),
    ("pullback", "tests/data/conic.json", "--d", "5", "--omega", "2,1,1"),
    ("toric", "tests/data/curve_config.json", "--veronese", "5"),
    ("toric", "tests/data/curve_config.json"),
    ("bounds", "tests/data/square_square.json"),
)
GOLDEN_CASES = {
    "gbasis_eliminate": ("gbasis", "tests/data/elim_curve.json", "--order",
                         "block:1", "--eliminate"),
    "veronese_2_3": ("veronese", "--s", "2", "--d", "3", "--verify"),
    "pullback_square_d3": ("pullback", "tests/data/square_square.json", "--d",
                           "3", "--method", "both"),
    "toric_curve": ("toric", "tests/data/curve_config.json"),
    "bounds_square": ("bounds", "tests/data/square_square.json"),
}

# Instances per second of --seconds.  weighted-toric's timed phase takes
# about --seconds on a 2-core x86-64 machine with Python 3.11; pullback-batch
# takes about 1.4 times that, because below 90 instances per pool class the
# median latency sits where the cheap class ends and moves with the draw.
PULLBACK_RATE = 9
WEIGHTED_TORIC_RATE = 7.5
# cli-cold: the certification shapes once per 6 s, the small commands twice.
ROUND_SECONDS = 6

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibration_s():
    """Seconds for the best of three passes of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        out = {}
        for a, x in _CAL_P.items():
            for b, y in _CAL_Q.items():
                k = tuple(u + v for u, v in zip(a, b))
                out[k] = out.get(k, 0) + x * y
        best = min(best, time.perf_counter() - t)
    return best


class Clock:
    """Times calls in cal, a unit that the host's speed does not move.

    On a shared 2-core x86-64 VM the host's speed was bimodal: the
    calibration loop and the workloads both switched between two speeds
    about 1.7 times apart, in stretches of one to twenty seconds, so a run's
    seconds said more about its share of slow stretches than about the
    program.  A call's cal is its seconds
    over the mean calibration sample from just before it to just after it,
    with one sample every SAMPLE_EVERY seconds in between (from a SIGALRM
    handler, when ``during``); the call's seconds leave out the samples.
    """

    def __init__(self, during=True):
        self.during = during
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self):
        if self.during:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._sample()
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.samples.append(calibration_s())
        self.spent += time.perf_counter() - t
        self._busy = False

    def now(self):
        """perf_counter() less the time taken by calibration samples."""
        return time.perf_counter() - self.spent

    def call(self, fn, *args):
        """Returns fn(*args), its seconds and its cal unit in seconds."""
        first = len(self.samples) - 1
        t = self.now()
        out = fn(*args)
        dt = self.now() - t
        self._sample()
        return out, dt, statistics.fmean(self.samples[first:])


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("VERONESE_GB_BUDGET", None)
    return env


def time_child_import(modules):
    """Interpreter start plus package import in a fresh process, in seconds."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"], check=True,
                   env=child_env(), cwd=ROOT)
    return time.perf_counter() - t


def load_reference(name):
    return json.loads((REFERENCE / name).read_text())


class Tally:
    """Attempted and failed instances, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def record(self, key, problems, first=True):
        """``first`` is False for a later (traced) pass over the instance."""
        self.attempted += first
        if problems:
            self.failures[key] = sorted(set(self.failures.get(key, [])) |
                                        set(problems))

    @property
    def failed(self):
        return len(self.failures)


def metric_block(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# cli-cold


def strip_timing(raw):
    """CLI stdout without the ``timing_ms`` field, the only varying bytes."""
    return re.sub(r',\n  "timing_ms": \d+\n}\n$', "\n}\n", raw)


def cli_plan(seed, rounds, shapes=CERTIFY_SHAPES):
    """The invocations of one cli-cold run, in a seeded order."""
    plan = [("certify", ("veronese", "--s", str(s), "--d", str(d), "--verify"))
            for _ in range(rounds) for s, d in shapes]
    plan += [("small", cmd) for _ in range(2 * rounds) for cmd in SMALL_COMMANDS]
    random.Random(seed).shuffle(plan)
    return plan


def check_cli_output(argv, proc, reference):
    """Problems with one CLI invocation's exit code and report bytes."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    text = strip_timing(proc.stdout)
    problems = []
    if hashlib.sha256(text.encode()).hexdigest() != reference.get(" ".join(argv)):
        problems.append("report digest")
    report = json.loads(text)
    cert = report["outputs"].get("certificate")
    if argv[0] == "veronese" and not (cert and cert.get("ok") is True):
        problems.append("certificate not ok")
    for name, case in GOLDEN_CASES.items():
        if tuple(argv) == case and \
                text != (GOLDEN / f"{name}.json").read_text():
            problems.append(f"golden {name}")
    return problems


def run_cli(argv, trace=None):
    """One fresh CLI process; with ``trace=(path, mode, instance)`` it runs
    under the benchmark's child runner, cli_child.py, instead."""
    if trace is None:
        cmd = [sys.executable, "-m", "veronese_gb.cli", "--json", *argv]
    else:
        path, mode, instance = trace
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(path), mode,
               instance, "--", "--json", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT)


def cli_pass(plan, reference, tally, trace_mode=None, first=True):
    """Runs the plan once; returns per-invocation
    (kind, argv, seconds, cal, trace) and the calibration samples."""
    rows = []
    tmp = OUT / "tmp"
    with Clock(during=first) as clock:
        for i, (kind, argv) in enumerate(plan):
            trace = None
            if trace_mode:
                tmp.mkdir(parents=True, exist_ok=True)
                trace = (tmp / f"child-{i}.json", trace_mode,
                         f"{i}:{' '.join(argv)}")
            proc, dt, unit = clock.call(run_cli, argv, trace)
            problems = check_cli_output(argv, proc, reference)
            tally.record(i, problems, first)
            child = None
            if trace is not None and trace[0].exists():
                child = json.loads(trace[0].read_text())
                trace[0].unlink()
                child["report_bytes"] = len(strip_timing(proc.stdout).encode())
                child["budget_spairs"] = json.loads(proc.stdout)["budget"][
                    "spairs_used"] if proc.returncode == 0 else 0
            rows.append((kind, argv, dt, dt / unit, child))
    return rows, clock.samples


def cli_end_to_end(rows):
    """certify_wall sums, over the shapes, each shape's median time;
    latency_p50 is the median over the small commands of each command's
    median time, since the median of all small invocations falls in the gap
    between two commands' clusters and moves with their edges."""
    small = [cal for kind, _, _, cal, _ in rows if kind == "small"]
    per_argv = {}
    for kind, argv, _, cal, _ in rows:
        per_argv.setdefault((kind, argv), []).append(cal)
    medians = {key: statistics.median(v) for key, v in per_argv.items()}
    return {"wall": sum(cal for *_, cal, _ in rows),
            "certify_wall": sum(m for (kind, _), m in medians.items()
                                if kind == "certify"),
            "latency_p50": statistics.median(
                m for (kind, _), m in medians.items() if kind == "small"),
            "latency_p90": percentile(small, 90)}


def inclusive_time(spans, names):
    """Summed duration of the outermost spans with the given names."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p is not None and by_id[p][1] not in names:
            p = by_id[p][4]
        if p is None:
            total += end - start
    return total


def workload_cli_cold(args, tally):
    reference = load_reference("cli.json")
    plan = cli_plan(args.seed, max(1, args.seconds // ROUND_SECONDS))
    time_child_import("veronese_gb.cli")  # writes bytecode caches if missing
    setup = [time_child_import("veronese_gb.cli")
             for _ in range(SETUP_REPEATS[0])]

    rows, cal_samples = cli_pass(plan, reference, tally)
    raw_wall = sum(dt for _, _, dt, _, _ in rows)
    log(f"cli-cold: {len(rows)} invocations in {raw_wall:.2f} s")
    setup += [time_child_import("veronese_gb.cli")
              for _ in range(SETUP_REPEATS[1])]
    e2e = cli_end_to_end(rows)
    e2e["setup_s"] = statistics.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if not args.trace:
        return e2e, None

    span_rows, _ = cli_pass(plan, reference, tally, "spans", first=False)
    hot_rows, _ = cli_pass(plan, reference, tally, "hot", first=False)
    layer = merge_child_metrics([c for *_, c in span_rows if c])
    for k, v in merge_child_metrics([c for *_, c in hot_rows if c]).items():
        layer[k] = v
    children = [c for *_, c in span_rows if c]
    layer["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    layer["cli.report_bytes"] = sum(c["report_bytes"] for c in children)
    layer["groebner.budget_spairs"] = sum(c["budget_spairs"] for c in children)
    layer["veronese.cache_hits"] = sum(c["cache_hits"] for c in children)
    layer["veronese.cache_misses"] = sum(c["cache_misses"] for c in children)
    traced_certify = sum(dt for kind, _, dt, _, _ in span_rows
                         if kind == "certify")
    gb_in_certify = sum(
        inclusive_time(c["spans"], {"groebner.buchberger",
                                    "groebner.is_groebner_basis"})
        for kind, _, _, _, c in span_rows if kind == "certify" and c)
    layer["cli.certify_gb_frac"] = gb_in_certify / traced_certify
    traced_wall = sum(cal for *_, cal, _ in span_rows)
    layer["trace_overhead_frac"] = traced_wall / e2e["wall"] - 1
    layer["raw_wall_s"] = raw_wall
    layer["cal_ms"] = 1000 * statistics.median(cal_samples)
    spans = [s for c in children for s in c["spans"]]
    gb_calls = [g for c in children for g in c["gb_calls"]]
    return e2e, finish_layer(layer, spans, gb_calls)


def merge_child_metrics(children):
    out = {}
    for c in children:
        for k, v in c["metrics"].items():
            if k.endswith("basis_peak") or k == "polyring.coeff_bits_max":
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# in-process workloads


def fill_caches(shapes):
    from veronese_gb import veronese as V
    for s, d in shapes:
        V.exchange_binomials(s, d)
        V.kernel_groebner_basis(s, d)
        V.kernel_oracle_basis(s, d)


def setup_in_process(shapes, import_modules, repeats):
    """Set-up times: fresh-process import plus cache fill, each repetition
    starting from empty caches and leaving them full."""
    times = []
    for _ in range(repeats):
        imp = time_child_import(import_modules)
        tracing.clear_caches()
        t = time.perf_counter()
        fill_caches(shapes)
        times.append(imp + time.perf_counter() - t)
    return times


def run_instances(instances, tally, first, tracer=None):
    """Times each instance; checks outputs after the timed phase.

    Returns (latencies in cal, certify cal, seconds, calibration samples,
    budget S-pairs); the seconds sum the instance latencies.
    """
    from veronese_gb import Budget
    latencies, certify, seconds, results = [], 0.0, 0.0, []
    budget_spairs = 0
    # samples inside the calls on the untraced pass only: on the traced and
    # counting passes they would land in the spans and counted calls
    with Clock(during=first) as clock:
        for idx, (kind, inst) in enumerate(instances):
            budget = Budget()
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.instance = idx
                span = tracer.span("bench.instance")
            with span:
                (reduced, problems, cert_s), dt, unit = clock.call(
                    attempt, kind, inst, budget, clock.now)
            latencies.append(dt / unit)
            certify += cert_s / unit
            seconds += dt
            budget_spairs += budget.spairs
            results.append((reduced, problems))

    for idx, ((kind, inst), (reduced, problems)) in enumerate(
            zip(instances, results)):
        if reduced is not None and I.digest(reduced) != inst["digest"]:
            problems = problems + ["basis digest"]
        tally.record(idx, problems, first)
    return latencies, certify, seconds, clock.samples, budget_spairs


def attempt(kind, inst, budget, now):
    """Runs one instance: (reduced basis, problems, certify seconds), where
    ``now`` is the clock the certify seconds are read from."""
    try:
        return KINDS[kind](inst, budget, now)
    except Exception as exc:  # a failing instance must not stop the run
        return None, [f"{type(exc).__name__}: {exc}"], 0.0


def _monomial(inst, budget, now):
    res, problems = I.monomial_instance(inst, budget)
    t = now()
    problems += I.monomial_oracle_check(inst, res, budget)
    return res.reduced, problems, now() - t


def _weighted(inst, budget, now):
    res, problems = I.weighted_instance(inst, budget)
    return res.reduced, problems, 0.0


def _toric(inst, budget, now):
    t = now()
    res, problems = I.toric_instance(inst, budget)
    return res.reduced, problems, now() - t


KINDS = {"monomial": _monomial, "weighted": _weighted, "toric": _toric}


def draw_pullback(seed, seconds):
    pool = load_reference("pullback_pool.json")
    rng = random.Random(seed)
    half = max(1, round(seconds * PULLBACK_RATE / 2))
    chosen = [("monomial", e) for cls in ("at", "below")
              for e in I.stratified_draw(pool[cls], half, rng)]
    rng.shuffle(chosen)
    return chosen


def draw_weighted_toric(seed, seconds):
    pool = load_reference("weighted_toric_pool.json")
    rng = random.Random(seed)
    half = max(1, round(seconds * WEIGHTED_TORIC_RATE / 2))
    chosen = [(kind, e) for kind in ("weighted", "toric")
              for e in I.stratified_draw(pool[kind], half, rng)]
    rng.shuffle(chosen)
    return chosen


def workload_in_process(args, tally, shapes, draw, import_modules):
    instances = draw(args.seed, args.seconds)
    setup = setup_in_process(shapes, import_modules, SETUP_REPEATS[0])
    lat, certify, raw_wall, cal_samples, _ = run_instances(
        instances, tally, True)
    log(f"{args.workload}: {len(instances)} instances in {raw_wall:.2f} s")
    setup += setup_in_process(shapes, import_modules, SETUP_REPEATS[1])
    e2e = {"wall": sum(lat), "setup_s": statistics.median(setup),
           "certify_wall": certify,
           "latency_p50": statistics.median(lat),
           "latency_p90": percentile(lat, 90),
           "peak_rss_mb": own_peak_rss_mb()}
    if not args.trace:
        return e2e, None

    caches = tracing.veronese_caches()
    tracer = tracing.Tracer()
    tracer.install_spans()
    try:
        tracing.clear_caches()
        tracer.instance = "setup"
        with tracer.span("bench.setup"):
            fill_caches(shapes)
        h0, m0 = tracing.cache_totals(caches)
        traced_lat, _, _, _, budget_spairs = run_instances(
            instances, tally, False, tracer)
        h1, m1 = tracing.cache_totals(caches)
    finally:
        tracer.uninstall()
    layer = tracer.span_metrics()
    layer["groebner.budget_spairs"] = budget_spairs
    layer["veronese.cache_hits"] = h1 - h0
    layer["veronese.cache_misses"] = m1 - m0
    layer["trace_overhead_frac"] = sum(traced_lat) / e2e["wall"] - 1
    layer["raw_wall_s"] = raw_wall
    layer["cal_ms"] = 1000 * statistics.median(cal_samples)

    hot = tracing.Tracer()
    hot.install_hot()
    try:
        tracing.clear_caches()
        fill_caches(shapes)
        run_instances(instances, tally, False)
    finally:
        hot.uninstall()
    layer.update(hot.hot_metrics())
    return e2e, finish_layer(layer, tracer.dump_spans(), tracer.gb_calls)


def finish_layer(layer, spans, gb_calls):
    """The per-layer values, derived ratios included; a layer the workload
    bypasses reads 0."""
    out = {k: layer.get(k, 0) for k in PER_LAYER}
    out["cli.load_s"] = layer.get("cli.load.self_s", 0)
    out["cli.report_s"] = layer.get("cli.report.self_s", 0)
    peaks = layer.get("groebner.buchberger.basis_peak_sum", 0)
    out["groebner.buchberger.kept_frac"] = \
        layer.get("groebner.buchberger.output", 0) / peaks if peaks else 0
    calls = layer.get("orders.key.calls", 0)
    out["orders.key.miss_frac"] = \
        layer.get("orders.key.misses", 0) / calls if calls else 0
    out["groebner.unbudgeted_spairs"] = (
        out["groebner.buchberger.spairs"]
        + out["groebner.is_groebner_basis.spairs"]
        - out["groebner.budget_spairs"])
    return out, spans, gb_calls


# ---------------------------------------------------------------------------


def layout_problems():
    need = [SRC / "veronese_gb" / "__init__.py", DATA, GOLDEN,
            REFERENCE / "cli.json", REFERENCE / "pullback_pool.json",
            REFERENCE / "weighted_toric_pool.json"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def reexec_with_hash_seed(seed):
    """Runs the benchmark again, in this process, with PYTHONHASHSEED drawn
    from --seed (the CLI children inherit it).

    String hashes set the order of the package's dicts and sets of names,
    and that order moved single instances' times by up to a factor of two
    from one process to the next; with the hash seed drawn from --seed, a
    seed runs the same program every time, and a set of seeds samples the
    orders a user's processes get."""
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=want))


def pin_to_one_cpu():
    """Keeps the benchmark and its children on one CPU, so the calibration
    samples run where the work they bracket runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli-cold", "pullback-batch", "weighted-toric"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_workload(args):
    """Returns (tally, end-to-end values, per-layer result or None)."""
    sys.path.insert(0, str(SRC))
    tally = Tally()
    if args.workload == "cli-cold":
        e2e, layer = workload_cli_cold(args, tally)
    elif args.workload == "pullback-batch":
        e2e, layer = workload_in_process(args, tally, I.PULLBACK_SHAPES,
                                         draw_pullback, "veronese_gb.veronese")
    else:
        shapes = sorted(set(I.WEIGHTED_SHAPES) | set(I.TORIC_SHAPES))
        e2e, layer = workload_in_process(
            args, tally, shapes, draw_weighted_toric,
            "veronese_gb.veronese, veronese_gb.toric")
    return tally, e2e, layer


def main(argv=None):
    args = parse_args(argv)
    missing = layout_problems()
    if missing:
        log("error: benchmark must run from a full checkout; missing: "
            + ", ".join(missing))
        return 2
    reexec_with_hash_seed(args.seed)
    pin_to_one_cpu()
    tally, e2e, layer = run_workload(args)
    for key, problems in sorted(tally.failures.items(), key=str):
        log(f"FAILED instance {key}: {'; '.join(problems)}")
    log(f"failed_frac = {tally.failed}/{tally.attempted}")
    if args.trace:
        values, spans, gb_calls = layer
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace.json").write_text(
            json.dumps({"spans": spans, "buchberger_calls": gb_calls,
                        "metrics": values}))
        metrics = metric_block(values, PER_LAYER)
    else:
        metrics = metric_block(e2e, END_TO_END)
    for k, m in metrics.items():
        log(f"  {k:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
