"""Self-checks of the benchmark itself, at reduced size (a few minutes).

Usage (from the repository root):

    python3 perfbench/selftest.py

1. The CLI child runner and the span wrappers pass arguments, report bytes
   (apart from ``timing_ms``), stderr and exit codes through unchanged.
2. Two traced runs (``--seconds 2``) with the same seed, in separate
   processes, give identical work counters.
3. The oracle counters of the two largest kernel certificates reproduce the
   values pinned below exactly (these run the full-size shapes).
4. Run in a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes; prints each mismatch otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# (s, d): buchberger counters of the elimination oracle (_joint_graph_gb),
# then the S-pairs checked by is_groebner_basis over the exchange binomials.
PINNED = {
    (3, 4): {"spairs": 9088, "skipped_coprime": 183048,
             "skipped_chain": 223280, "basis_peak": 912, "output": 114,
             "is_groebner_spairs": 6786},
    (6, 2): {"spairs": 4203, "skipped_coprime": 135951,
             "skipped_chain": 37156, "basis_peak": 596, "output": 196,
             "is_groebner_spairs": 7140},
}
DETERMINISTIC = (
    "groebner.buchberger.spairs", "groebner.buchberger.skipped_coprime",
    "groebner.buchberger.skipped_chain", "groebner.buchberger.basis_peak",
    "groebner.buchberger.kept_frac", "groebner.is_groebner_basis.spairs",
    "groebner.normal_form.calls", "groebner.budget_spairs",
    "groebner.unbudgeted_spairs", "veronese.standard_monomials.yielded",
    "veronese.cache_hits", "veronese.cache_misses", "orders.key.calls",
    "polyring.leading_term.calls", "polyring.coeff_bits_max",
    "cli.report_bytes",
)
REDUCED_SHAPES = ((2, 3), (3, 3))  # pass-through cases
PASS_THROUGH_EXTRA = (("gbasis", "tests/data/broken.json"),
                      ("--budget", "3", "veronese", "--s", "3", "--d", "3",
                       "--verify"),
                      ("veronese", "--s", "0", "--d", "2"))

problems = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        problems.append(message)


def pass_through():
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    cases = [cmd for _, cmd in run.cli_plan(0, 1, REDUCED_SHAPES)]
    for argv in cases + list(PASS_THROUGH_EXTRA):
        plain = run.run_cli(argv)
        for mode in ("spans", "hot"):
            traced = run.run_cli(argv, (tmp / "t.json", mode, "0"))
            same = (traced.returncode == plain.returncode
                    and run.strip_timing(traced.stdout)
                    == run.strip_timing(plain.stdout)
                    and traced.stderr == plain.stderr)
            check(same, f"pass-through [{mode}] {' '.join(argv)} "
                        f"(exit {plain.returncode})")


def traced_counters(workload):
    """Per-layer values of one traced run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "2", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    check(proc.returncode == 0 and result["failed"] == 0,
          f"{workload}: traced run exits 0 with no failed instance")
    return {k: result["metrics"][k]["value"] for k in DETERMINISTIC}


def determinism():
    for workload in ("cli-cold", "pullback-batch", "weighted-toric"):
        a, b = traced_counters(workload), traced_counters(workload)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        check(not diff, f"{workload}: counters repeat exactly {diff or ''}")


def pinned():
    tmp = run.OUT / "selftest"
    for (s, d), want in PINNED.items():
        path = tmp / f"pinned-{s}-{d}.json"
        argv = ("veronese", "--s", str(s), "--d", str(d), "--verify")
        proc = run.run_cli(argv, (path, "spans", "0"))
        check(proc.returncode == 0, f"veronese ({s},{d}) --verify exits 0")
        trace = json.loads(path.read_text())
        # the oracle seed is the only Buchberger run of a --verify invocation
        got = dict(trace["gb_calls"][0]) if len(trace["gb_calls"]) == 1 else {}
        got.pop("instance", None)
        got["is_groebner_spairs"] = trace["metrics"][
            "groebner.is_groebner_basis.spairs"]
        check(got == want, f"({s},{d}) pinned counters: got {got}")


def empty_directory():
    root = run.OUT / "selftest" / "bare"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    shutil.copytree(run.BENCH, root / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout "
          f"{proc.stdout.strip()[:80]!r}")
    shutil.rmtree(root)


def main():
    sys.path.insert(0, str(run.SRC))
    pass_through()
    determinism()
    pinned()
    empty_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
