"""A seeded structural fuzz of every command's input files.

Each file in ``tests/data`` is mutated, under the ``rng`` fixture's seed
(``VERONESE_GB_TEST_SEED``), and run in process through each command that
reads it.  Whatever the mutant, the command exits with a documented code and
at most one stderr line, never with a traceback.  Exit 6 would be a defect of
the package, so it does not count as documented here.  A failing mutant
becomes a named row of ``test_cli.MALFORMED_INPUTS`` before it is mended.
"""

import json
import pathlib
import re
import sys

from veronese_gb import cli

DATA = pathlib.Path(__file__).parent / "data"
MUTANTS_PER_RUN = 12
# README's table: success, unreadable input, budget, non-monomial initial
# ideal, not a configuration, and a closed stdout
EXIT_CODES = {0, 2, 3, 4, 5, 141}
# the numbers a number is replaced with: huge, a digit run past int()'s
# limit, negative, fractional, boolean and non-finite, as JSON text
NUMBERS = ["1" + "0" * 30,
           "9" * (getattr(sys, "get_int_max_str_digits", lambda: 50)() + 1),
           "-3", "0.5", "2.5e-1", "true", "false", "Infinity", "-Infinity",
           "NaN", "1e400"]
# one value of each JSON type, for a value of another type
TYPED = {"null": "null", "bool": "true", "number": "7", "string": '"x"',
         "array": "[]", "object": "{}"}
MARK = "\x00mutant\x00"


def _type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _nodes(value, path=()):
    """(path, value) for ``value`` and each value nested in it."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(obj, path, raw):
    """The JSON text of ``obj`` with the value at ``path`` replaced by the
    JSON text ``raw``."""
    if not path:
        return raw
    copy = json.loads(json.dumps(obj))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = MARK
    return json.dumps(copy).replace(json.dumps(MARK), raw)


def mutant(rng, text):
    """(what was done, the mutated text) for one seeded mutation of the
    JSON document ``text``."""
    obj = json.loads(text)
    nodes = list(_nodes(obj))
    keyed = [(path, value) for path, value in nodes
             if isinstance(value, dict) and value]
    numbers = [(path, value) for path, value in nodes
               if _type(value) == "number"]
    kinds = ["type", "wrap", "truncate"]
    kinds += ["drop"] * bool(keyed) + ["number"] * bool(numbers)
    kind = rng.choice(kinds)
    if kind == "truncate":
        cut = rng.randrange(len(text))
        return f"truncated to {cut} characters", text[:cut]
    if kind == "drop":
        path, value = rng.choice(keyed)
        key = rng.choice(sorted(value))
        rest = {k: v for k, v in value.items() if k != key}
        return f"dropped {key!r} at {path}", _replace(obj, path,
                                                      json.dumps(rest))
    if kind == "number":
        path, _ = rng.choice(numbers)
        raw = rng.choice(NUMBERS)
    else:
        path, value = rng.choice(nodes)
        if kind == "wrap":
            raw = f"[{json.dumps(value)}]"
        else:
            raw = rng.choice([t for name, t in TYPED.items()
                              if name != _type(value)])
    return f"{kind} {raw[:40]} at {path}", _replace(obj, path, raw)


def _commands(obj):
    """The commands that read a file like ``obj``, with a small degree."""
    if "points" in obj:
        return [["toric", "--veronese", "2"]]
    return [["gbasis"], ["pullback", "--d", "2"], ["bounds"]]


def test_mutated_inputs_exit_with_a_documented_code(rng, tmp_path, capsys):
    bad = []
    for source in sorted(DATA.glob("*.json")):
        text = source.read_text()
        for command, *extra in _commands(json.loads(text)):
            for i in range(MUTANTS_PER_RUN):
                what, mutated = mutant(rng, text)
                path = tmp_path / f"{source.stem}-{command}-{i}.json"
                path.write_text(mutated)
                argv = ["--budget", "2000", command, str(path), *extra]
                case = f"{command} {source.name}: {what}"
                try:
                    outcome = cli.main(argv)
                except Exception as exc:
                    outcome = exc
                err = capsys.readouterr().err
                if outcome not in EXIT_CODES or err.count("\n") > 1 \
                        or "Traceback" in err \
                        or re.fullmatch(r"error: '[^']*'\n", err):
                    bad.append(f"{case}: {outcome!r}, stderr {err[-200:]!r}")
    assert not bad, "\n".join(bad)
