"""A catalogue of mutants: each entry breaks one fragment of the package on
purpose, and names the tests that must catch it.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each entry the script copies ``src/`` to a temporary directory,
replaces the entry's exact source fragment in the copy, and runs each named
test in its own pytest process with ``PYTHONPATH`` pointing at the copy, so
that ``tests/conftest.py`` and the tests import ``veronese_gb`` from there.
A mutant is killed when every one of its tests fails.  First every named
test must pass on an unmutated copy, so that a kill shows the mutation and
not a broken copy.  The script exits 1 when a fragment is not found exactly
once, a test fails unmutated, or a mutant survives.  pytest does not collect
this file, whose name does not start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/veronese_gb, fragment, replacement, test node ids)
MUTANTS = (
    ("_spoly: one sign flipped", "groebner.py",
     "add_terms(terms, b[4], -a[3], mono_div(lcm, b[2]))",
     "add_terms(terms, b[4], a[3], mono_div(lcm, b[2]))",
     ("tests/test_groebner.py::test_term_primitives_match_dict_reference",)),
    ("min_divisor_of_image: the scan reversed", "veronese.py",
     "        for a in self.ring.indices:\n"
     "            if mono_divides(a, c):",
     "        for a in reversed(self.ring.indices):\n"
     "            if mono_divides(a, c):",
     ("tests/test_veronese.py::test_min_divisor_variable_examples",)),
    ("_row_reduce: a column with no pivot counted", "toric.py",
     "        if pivot is None:\n            continue",
     "        if pivot is None:\n            pivots.append(c)\n"
     "            continue",
     ("tests/test_toric.py::test_rank_is_preserved_by_layers",)),
    ("_least_preimages: no ascending warm-up", "veronese.py",
     "    for lower in range(degree):\n"
     "        _standard_table(s, d, lower)\n"
     "    return _standard_table(s, d, degree)",
     "    return _standard_table(s, d, degree)",
     ("tests/test_veronese.py::"
      "test_lift_far_past_the_table_bound_from_a_cold_table",)),
)


def copy_source(into):
    """A fresh copy of ``src/`` under ``into``, without bytecode."""
    shutil.rmtree(into, ignore_errors=True)
    shutil.copytree(ROOT / "src", into,
                    ignore=shutil.ignore_patterns("__pycache__"))


def run_from(src, *args):
    """A Python process in the repository root that imports the package
    from ``src`` and writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def run_test(node, src):
    """pytest's exit code for one test, with no pytest cache written."""
    return run_from(src, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    node).returncode


def main():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        copy_source(src)
        imported = run_from(src, "-c", "import veronese_gb; "
                            "print(veronese_gb.__file__)").stdout
        if not imported.startswith(str(src)):
            sys.exit(f"the copy is not what the tests import: {imported!r}")
        for node in sorted({n for *_, nodes in MUTANTS for n in nodes}):
            code = run_test(node, src)
            if code:
                problems.append(f"{node} exits {code} unmutated")
        for name, module, fragment, replacement, nodes in MUTANTS:
            copy_source(src)
            path = src / "veronese_gb" / module
            text = path.read_text()
            if text.count(fragment) != 1:
                problems.append(f"{name}: fragment found "
                                f"{text.count(fragment)} times in {module}")
                continue
            path.write_text(text.replace(fragment, replacement))
            # 1 is pytest's code for tests that ran and failed
            survivors = [n for n in nodes if run_test(n, src) != 1]
            print(("killed   " if not survivors else "SURVIVED ") + name,
                  flush=True)
            problems.extend(f"{name}: {n} does not fail" for n in survivors)
    for problem in problems:
        print("FAIL " + problem)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
