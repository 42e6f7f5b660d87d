"""Command-line surface: golden outputs, exit codes, and determinism."""

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import veronese_gb
from veronese_gb.groebner import GBCheck
from veronese_gb.polyring import MAX_EXPONENT

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "veronese_gb.cli", *args],
                          capture_output=True, text=True, cwd=HERE.parent)


def report_of(proc):
    obj = json.loads(proc.stdout)
    obj.pop("timing_ms", None)
    return obj


GOLDEN_CASES = [
    ("gbasis_eliminate", ["gbasis", "tests/data/elim_curve.json",
                          "--order", "block:1", "--eliminate"]),
    ("veronese_2_3", ["veronese", "--s", "2", "--d", "3", "--verify"]),
    ("pullback_square_d3", ["pullback", "tests/data/square_square.json",
                            "--d", "3", "--method", "both"]),
    ("toric_curve", ["toric", "tests/data/curve_config.json"]),
    ("toric_curve_veronese_2", ["toric", "tests/data/curve_config.json",
                                "--veronese", "2"]),
    ("pullback_conic_d2_omega_both", ["pullback", "tests/data/conic.json",
                                      "--d", "2", "--omega", "2,1,1",
                                      "--method", "both"]),
    ("bounds_square", ["bounds", "tests/data/square_square.json"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(name, args):
    proc = run_cli("--json", *args)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert report_of(proc) == expected


def test_reports_are_deterministic():
    a = run_cli("--json", "pullback", "tests/data/square_square.json", "--d", "3")
    b = run_cli("--json", "pullback", "tests/data/square_square.json", "--d", "3")
    assert report_of(a) == report_of(b)


def test_gbasis_block_order_without_elimination_keeps_front():
    proc = run_cli("--json", "gbasis", "tests/data/elim_curve.json",
                   "--order", "block:1")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    polys = obj["outputs"]["groebner_basis"]["polynomials"]
    assert len(polys) == 2  # t - y1 stays alongside y1^2 - y2


def test_empty_ideal_exits_zero():
    proc = run_cli("--json", "gbasis", "tests/data/empty_ideal.json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["outputs"]["groebner_basis"]["polynomials"] == []


def test_parse_error_exit_code_and_position():
    proc = run_cli("gbasis", "tests/data/broken.json")
    assert proc.returncode == 2
    assert "column 6" in proc.stderr


# (command, extra arguments, file text): input files that must exit 2 with
# a one-line error, never a traceback
MALFORMED_INPUTS = {
    "not-json": ("gbasis", [], "{ nope"),
    "top-level-array": ("gbasis", [], "[]"),
    "ring-not-object": ("gbasis", [], '{"ring": "S"}'),
    "generators-not-array": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": 5}'),
    "generator-number": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": [5]}'),
    "terms-not-array": (
        "gbasis", [],
        '{"ring": {"kind": "S", "s": 2}, "generators": [{"terms": 5}]}'),
    "exps-not-array": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": "1", "exps": 3}]}]}'),
    "exps-fraction": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": "1", "exps": [1.5, 0]}]}]}'),
    "coeff-array": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": [1], "exps": [1, 0]}]}]}'),
    "ring-size-array": ("gbasis", [], '{"ring": {"kind": "S", "s": [2]}}'),
    "ring-size-infinite": (
        "gbasis", [], '{"ring": {"kind": "S", "s": Infinity}}'),
    "ring-size-fraction": ("gbasis", [], '{"ring": {"kind": "S", "s": 2.7}}'),
    "ring-size-over-cap": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 10001}, "generators": []}'),
    # JSON true and false are not the integers 1 and 0
    "ring-size-boolean": (
        "gbasis", [], '{"ring": {"kind": "S", "s": true}, "generators": []}'),
    "exps-boolean": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": "1", "exps": [true, 0]}]}]}'),
    "coeff-boolean": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": true, "exps": [1, 0]}]}]}'),
    "names-not-array": (
        "gbasis", [], '{"ring": {"kind": "generic", "names": 5}}'),
    "duplicate-names": (
        "gbasis", [], '{"ring": {"kind": "generic", "names": ["a", "a"]}, '
        '"generators": ["a"]}'),
    "bounds-not-homogeneous": (
        "bounds", [], '{"ring": {"kind": "S", "s": 2}, '
        '"generators": ["y1^2 - y2"]}'),
    "points-number": ("toric", [], '{"points": 5}'),
    "points-flat": ("toric", [], '{"points": [1, 2]}'),
    "coordinate-array": ("toric", [], '{"points": [[1, [2]]]}'),
    "coordinate-fraction": ("toric", [], '{"points": [[1, 0.6], [1, 1]]}'),
    "coordinate-boolean": (
        "toric", [], '{"points": [[true, false], [true, true]]}'),
    "lambda-number": ("toric", [], '{"points": [[1, 0]], "lambda": 5}'),
    "lambda-boolean": (
        "toric", [], '{"points": [[1, 0], [1, 1]], "lambda": [true, false]}'),
    "lambda-too-short": (
        "toric", ["--veronese", "2"],
        '{"points": [[1, 0], [1, 1], [1, 2]], "lambda": [1]}'),
    # JSON reads 1e400 as a float inf
    "coeff-zero-denominator": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": "1/0", "exps": [1, 0]}]}]}'),
    "coeff-overflow": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        '[{"terms": [{"coeff": 1e400, "exps": [1, 0]}]}]}'),
    "lambda-zero-denominator": (
        "toric", [], '{"points": [[1, 0], [1, 1]], "lambda": ["1/0", 0]}'),
    "lambda-overflow": (
        "toric", [], '{"points": [[1, 0], [1, 1]], "lambda": [1e400, 0]}'),
    "generators-nested-deep": (
        "gbasis", [], '{"ring": {"kind": "S", "s": 2}, "generators": '
        + "[" * 100_000 + "]" * 100_000 + "}"),
}


def assert_one_error_line(proc, code):
    assert proc.returncode == code, proc.stderr[-300:]
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_json_exit_code(name, tmp_path):
    command, extra, text = MALFORMED_INPUTS[name]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert_one_error_line(run_cli(command, str(bad), *extra), 2)


# TMP stands for a fresh temporary directory
@pytest.mark.parametrize("args", [
    ["bounds", "TMP"],
    ["--out", "TMP/missing/report.json", "bounds",
     "tests/data/square_square.json"],
    ["--out", "TMP", "bounds", "tests/data/square_square.json"],
], ids=["input-is-directory", "out-in-missing-directory", "out-is-directory"])
def test_unusable_path_exit_code(args, tmp_path):
    args = [a.replace("TMP", str(tmp_path)) for a in args]
    assert_one_error_line(run_cli(*args), 2)


# the documented exit code of every exported error type
EXIT_CODES = {"VeroneseGBError": 2, "DimensionError": 2, "DomainError": 2,
              "ParseError": 2, "RingMismatchError": 2,
              "BudgetExceededError": 3, "NonMonomialInitialError": 4,
              "NotAConfigurationError": 5, "InternalCheckError": 6}


def test_every_exported_error_type_has_a_documented_code():
    exported = {name for name, obj in vars(veronese_gb).items()
                if isinstance(obj, type) and issubclass(obj, Exception)}
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name", EXIT_CODES)
def test_error_type_exit_code(name, monkeypatch, capsys):
    from veronese_gb import cli
    error = getattr(veronese_gb, name)
    args = ("boom", 1, 2) if error is veronese_gb.ParseError else ("boom",)

    def fail(path):
        raise error(*args)

    monkeypatch.setattr(cli, "load_ideal_file", fail)
    code = cli.main(["bounds", str(DATA / "square_square.json")])
    assert code == error.exit_code == EXIT_CODES[name]
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_nonmonomial_weight_exit_code():
    proc = run_cli("pullback", "tests/data/conic.json", "--d", "2",
                   "--omega", "1,1,1")
    assert proc.returncode == 4
    assert "find_weight_vector" in proc.stderr


def test_bad_configuration_exit_code():
    proc = run_cli("toric", "tests/data/bad_config.json")
    assert proc.returncode == 5


@pytest.mark.parametrize("option", [["--cap", "2"], ["--no-oracle"],
                                    ["--strict"]],
                         ids=["cap", "no-oracle", "strict"])
def test_pullback_has_no_partial_result_options(option):
    # the monomial route returns one complete basis at every d, so nothing
    # selects a partial one or an exit code for it
    proc = run_cli("pullback", "tests/data/square_square.json", "--d", "3",
                   *option)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize("args", [
    ["pullback", "tests/data/square_square.json", "--d", "3"],
    ["toric", "tests/data/curve_config.json", "--veronese", "2"],
], ids=["pullback", "toric"])
def test_no_command_returns_the_oracle_basis(args):
    # the pullbacks return the constructive basis, which --method both
    # checks against the elimination oracle
    proc = run_cli(*args, "--method", "oracle")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


@pytest.mark.parametrize("method", ["constructive", "both"])
def test_toric_method_needs_veronese(method):
    # without a layer there is no pullback for the method to choose
    proc = run_cli("toric", "tests/data/curve_config.json", "--method", method)
    assert_one_error_line(proc, 2)
    assert "--method needs --veronese" in proc.stderr


# "oracle" takes the weighted route, where "both" runs the weighted
# elimination oracle
@pytest.mark.parametrize("args", [
    ["tests/data/square_square.json", "--d", "3", "--method", "constructive"],
    ["tests/data/conic.json", "--d", "2", "--omega", "2,1,1",
     "--method", "both"],
    ["tests/data/square_square.json", "--d", "3", "--method", "both"],
], ids=["constructive", "oracle", "both"])
def test_pullback_verify_under_every_method(args):
    args = ["pullback", *args]
    plain = json.loads(run_cli("--json", *args).stdout)
    proc = run_cli("--json", *args, "--verify")
    assert proc.returncode == 0, proc.stderr
    verified = json.loads(proc.stdout)
    cert = verified["outputs"]["certificate"]
    assert cert["is_groebner"] is True
    assert cert["spairs_checked"] > 0
    # the check's S-pairs are charged to the budget
    assert verified["budget"]["spairs_used"] == \
        plain["budget"]["spairs_used"] + cert["spairs_checked"]
    assert verified["outputs"]["reduced"]["polynomials"] == \
        plain["outputs"]["reduced"]["polynomials"]


def test_budget_exit_code():
    proc = run_cli("--budget", "1", "toric", "tests/data/curve_config.json")
    assert proc.returncode == 3


@pytest.mark.parametrize("method", ["constructive", "both"])
def test_budget_charges_one_elimination(method):
    # below the bound the oracle raises the degree cap; "both" compares with
    # that same elimination instead of running it a second time
    proc = run_cli("--json", "--budget", "5", "pullback",
                   "tests/data/square_square.json", "--d", "2",
                   "--method", method)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["budget"]["spairs_used"] == 5


def test_budget_env_variable():
    import os
    env = dict(os.environ, VERONESE_GB_BUDGET="1")
    proc = subprocess.run(
        [sys.executable, "-m", "veronese_gb.cli", "toric",
         "tests/data/curve_config.json"],
        capture_output=True, text=True, cwd=HERE.parent, env=env)
    assert proc.returncode == 3


def test_malformed_budget_env_variable_exit_code():
    import os
    env = dict(os.environ, VERONESE_GB_BUDGET="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "veronese_gb.cli", "bounds",
         "tests/data/square_square.json"],
        capture_output=True, text=True, cwd=HERE.parent, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: VERONESE_GB_BUDGET")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_toric_veronese_degree_below_one_exit_code(degree):
    # 0 is a given degree, not a missing one
    proc = run_cli("toric", "tests/data/curve_config.json",
                   "--veronese", degree)
    assert_one_error_line(proc, 2)
    assert "need s >= 1 and d >= 1" in proc.stderr


@pytest.mark.parametrize("flag, env", [(["--budget", "-1"], None),
                                       ([], "-1")], ids=["flag", "env"])
def test_negative_budget_exit_code(flag, env):
    proc = subprocess.run(
        [sys.executable, "-m", "veronese_gb.cli", "--json", *flag,
         "veronese", "--s", "2", "--d", "2", "--verify"],
        capture_output=True, text=True, cwd=HERE.parent,
        env=dict(os.environ, VERONESE_GB_BUDGET=env or ""))
    assert_one_error_line(proc, 2)
    assert "-1" in proc.stderr


def test_zero_budget_is_a_cap():
    proc = run_cli("--json", "--budget", "0", "bounds",
                   "tests/data/square_square.json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["budget"] == {"spair_cap": 0,
                                                 "spairs_used": 0}
    assert run_cli("--budget", "0", "toric",
                   "tests/data/curve_config.json").returncode == 3


def _fm_never(rows, n):
    return None


def _fm_all_ones(rows, n):
    return (1,) * n


def _no_oracle_basis(*args, **kwargs):
    return ()


CHECK_FAILURES = [
    ("weight-infeasible", "veronese_gb.groebner._fm_feasible_point",
     _fm_never, ["toric", "curve_config.json", "--veronese", "2"],
     "weight system unexpectedly infeasible"),
    ("weight-unverified", "veronese_gb.groebner._fm_feasible_point",
     _fm_all_ones, ["toric", "curve_config.json", "--veronese", "2"],
     "weight vector failed post-hoc verification"),
    ("monomial-oracle", "veronese_gb.veronese.preimage_oracle", _no_oracle_basis,
     ["pullback", "square_square.json", "--d", "3", "--method", "both"],
     "constructive and oracle pullbacks disagree"),
    ("weighted-oracle", "veronese_gb.veronese.preimage_oracle",
     _no_oracle_basis, ["pullback", "conic.json", "--d", "2", "--omega",
                        "2,1,1", "--method", "both"],
     "constructive and oracle pullbacks disagree"),
]


@pytest.mark.parametrize("site,target,fake,argv,message", CHECK_FAILURES,
                         ids=[c[0] for c in CHECK_FAILURES])
def test_internal_check_failure_exit_code(site, target, fake, argv, message,
                                          monkeypatch, capsys):
    from veronese_gb import cli
    monkeypatch.setattr(target, fake)
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 6
    out, err = capsys.readouterr()
    assert not out
    assert err == f"error: internal check failed: {message}\n"


def _check_fails(*args, **kwargs):
    return GBCheck(False, 0)


def _never(*args, **kwargs):
    return False


class _NothingReduces:
    """A divisor index under which every polynomial is its own remainder."""

    @classmethod
    def of(cls, *args):
        return cls()

    def remainder(self, f, budget=None):
        return f


MONOMIAL_BELOW = ["pullback", "square_square.json", "--d", "2", "--verify"]
WEIGHTED = ["pullback", "conic.json", "--d", "2", "--omega", "2,1,1",
            "--verify"]
KERNEL = ["veronese", "--s", "2", "--d", "3", "--verify"]
LAYER = ["toric", "curve_config.json", "--veronese", "2"]

# (command and check, what fails it, the replacement, argv, the false
# verdicts the error line names)
FALSE_VERDICTS = [
    ("pullback-monomial-is_groebner", "veronese_gb.veronese.is_groebner_basis",
     _check_fails, MONOMIAL_BELOW, "is_groebner"),
    ("pullback-monomial-members_in_target",
     "veronese_gb.veronese._maps_into_monomial", _never, MONOMIAL_BELOW,
     "members_in_target"),
    # below the bound the constructive method compares with the oracle and
    # raises nothing of its own
    ("pullback-monomial-matches_oracle", "veronese_gb.veronese.preimage_oracle",
     _no_oracle_basis, MONOMIAL_BELOW, "matches_oracle"),
    ("pullback-weighted-is_groebner", "veronese_gb.veronese.is_groebner_basis",
     _check_fails, WEIGHTED, "is_groebner"),
    ("pullback-weighted-members_in_target",
     "veronese_gb.groebner.Ideal.contains", _never, WEIGHTED,
     "members_in_target"),
    ("pullback-weighted-initial_matches_monomial_pullback",
     "veronese_gb.veronese.monomial_pullback_generators", lambda *a, **k: (),
     WEIGHTED, "initial_matches_monomial_pullback"),
    ("veronese-in_kernel", "veronese_gb.veronese.VeroneseMap.image",
     lambda self, poly: poly, KERNEL, "in_kernel, ok"),
    ("veronese-is_groebner", "veronese_gb.veronese.is_groebner_basis",
     _check_fails, KERNEL, "is_groebner, ok"),
    ("veronese-matches_oracle", "veronese_gb.veronese.kernel_oracle_basis",
     lambda s, d: (), KERNEL, "matches_oracle, ok"),
    ("toric-all_binomial", "veronese_gb.polyring.Polynomial.is_binomial_pm1",
     _never, LAYER, "all_binomial, ok"),
    ("toric-images_equal", "veronese_gb.toric.Configuration.image_exps",
     lambda self, exps: exps, LAYER, "images_equal, ok"),
    ("toric-duplicates_linear", "veronese_gb.toric._DivisorIndex",
     _NothingReduces, LAYER, "duplicates_linear, ok"),
    # only ok states that the basis is quadratic at the bound
    ("toric-quadratic", "veronese_gb.veronese.PullbackResult.max_degree",
     property(lambda self: 3), ["toric", "curve_config.json", "--veronese",
                                "5"], "max_degree 3 at the bound, ok"),
]


@pytest.mark.parametrize("site,target,fake,argv,names", FALSE_VERDICTS,
                         ids=[c[0] for c in FALSE_VERDICTS])
def test_false_verdict_exit_code(site, target, fake, argv, names,
                                 monkeypatch, capsys):
    # every verdict a command reports fails it, with no report written, and
    # the one error line names each false field
    from veronese_gb import cli
    monkeypatch.setattr(target, fake)
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(["--json", *argv]) == 6
    out, err = capsys.readouterr()
    assert not out
    assert err == ("error: internal check failed: false verdicts in the "
                   f"{argv[0]} certificate: {names}\n")


def test_text_mode_mentions_basis():
    proc = run_cli("veronese", "--s", "2", "--d", "2")
    assert proc.returncode == 0
    assert "x[2,0]*x[0,2] - x[1,1]^2" in proc.stdout


TEXT_CASES = [
    (["gbasis", "tests/data/rational.json"], """\
# gbasis
budget.spair_cap: 1000000
budget.spairs_used: 0
inputs_digest: 3f56616d4174ce8db80b30fe45c6dbd19024f482489262d1d868749fb99c20c8
outputs.eliminated: False
outputs.groebner_basis (1 elements, order grevlex[0,1,2]):
  y1^2 - 3/2*y2*y3 - 2
"""),
    (["pullback", "tests/data/square_square.json", "--d", "3"], """\
# pullback
budget.spair_cap: 1000000
budget.spairs_used: 0
inputs_digest: 4cfc69af8f00d26e04e5eb0d0270f94139b398e3ba38144f57c42be2fa820f76
outputs.certificate.bound: 3
outputs.certificate.complete: True
outputs.certificate.degree_cap: 2
outputs.certificate.meets_bound: True
outputs.certificate.members_in_target: True
outputs.certificate.method_note: exchange binomials plus standard-monomial generators
outputs.groebner_basis (6 elements, order gamma[s=2,d=3]):
  x[1,2]^2 - x[2,1]*x[0,3]
  x[1,2]*x[3,0] - x[2,1]^2
  x[3,0]*x[0,3] - x[2,1]*x[1,2]
  x[2,1]^2
  x[2,1]*x[1,2]
  x[2,1]*x[0,3]
outputs.max_degree: 2
outputs.method: constructive
outputs.partial: False
outputs.reduced (6 elements, order gamma[s=2,d=3]):
  x[2,1]^2
  x[2,1]*x[1,2]
  x[2,1]*x[0,3]
  x[1,2]^2
  x[1,2]*x[3,0]
  x[3,0]*x[0,3]
"""),
]


@pytest.mark.parametrize("args,expected", TEXT_CASES,
                         ids=[c[0][0] for c in TEXT_CASES])
def test_text_report_verbatim(args, expected):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines()
             if not ln.startswith("timing_ms: ")]
    assert "\n".join(lines) + "\n" == expected


@pytest.mark.parametrize("args,calls", [
    (["pullback", "conic.json", "--d", "5", "--omega", "2,1,1"], 3),
    (["toric", "curve_config.json", "--veronese", "5"], 2),
], ids=["pullback", "toric"])
def test_text_report_reads_each_ring_once(args, calls, monkeypatch, capsys):
    # the input file's ring, if any, and one ring per basis block
    from veronese_gb import cli
    seen, real = [], cli.ring_from_json

    def counted(obj):
        seen.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "ring_from_json", counted)
    assert cli.main([str(DATA / a) if a.endswith(".json") else a
                     for a in args]) == 0
    assert len(seen) == calls
    assert capsys.readouterr().out.startswith(f"# {args[0]}")

def test_single_variable_basis_is_empty():
    proc = run_cli("--json", "veronese", "--s", "1", "--d", "7")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["outputs"]["basis"]["polynomials"] == []


def test_verified_kernel_certificate():
    proc = run_cli("--json", "veronese", "--s", "3", "--d", "2", "--verify")
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)["outputs"]["certificate"]
    assert cert["ok"] and cert["in_kernel"] and cert["matches_oracle"]


def test_pullback_of_zero_ideal_is_kernel_basis():
    proc = run_cli("--json", "pullback", "tests/data/empty_ideal.json",
                   "--d", "3")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert len(obj["outputs"]["groebner_basis"]["polynomials"]) == 3


def test_pullback_of_zero_ideal_verifies():
    proc = run_cli("--json", "pullback", "tests/data/empty_ideal.json",
                   "--d", "3", "--verify")
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)["outputs"]["certificate"]
    assert cert["is_groebner"] is True
    assert cert["spairs_checked"] == 2


@pytest.mark.parametrize("omega", [[], ["--omega", "1,1"]],
                         ids=["monomial", "weighted"])
def test_pullback_of_unit_ideal_is_the_unit_ideal(omega, tmp_path):
    unit = tmp_path / "unit.json"
    unit.write_text('{"ring": {"kind": "S", "s": 2}, "generators": ["1"]}')
    proc = run_cli("--json", "pullback", str(unit), "--d", "2", *omega,
                   "--method", "both", "--verify")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)["outputs"]
    assert [p["terms"] for p in out["reduced"]["polynomials"]] == \
        [[{"coeff": "1", "exps": [0, 0, 0]}]]
    assert out["certificate"]["is_groebner"] is True
    assert out["certificate"].get("initial_matches_monomial_pullback", True)


def test_pullback_with_weights_certifies_quadratic():
    # --verify checks the S-pairs on the weighted route as on the monomial one
    proc = run_cli("--json", "pullback", "tests/data/conic.json",
                   "--d", "5", "--omega", "2,1,1", "--verify")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["outputs"]
    assert out["max_degree"] <= 2
    assert out["certificate"]["meets_bound"]
    assert out["certificate"]["initial_matches_monomial_pullback"]
    assert out["certificate"]["is_groebner"] is True
    assert out["certificate"]["spairs_checked"] > 0


def test_pullback_derives_weights_without_omega():
    # the derived weights are (2, 1, 1), so the report is the --omega one;
    # bounds reports the bound of in_<(I) = (y1^2), which that report certifies
    given = run_cli("--json", "pullback", "tests/data/conic.json",
                    "--d", "5", "--omega", "2,1,1")
    derived = run_cli("--json", "pullback", "tests/data/conic.json",
                      "--d", "5")
    assert derived.returncode == 0, derived.stderr
    a, b = report_of(given), report_of(derived)
    assert a["outputs"] == b["outputs"]
    assert a["budget"]["spairs_used"] == b["budget"]["spairs_used"] == 120
    bounds = run_cli("--json", "bounds", "tests/data/conic.json")
    assert bounds.returncode == 0, bounds.stderr
    assert report_of(bounds)["outputs"]["bound"] == \
        b["outputs"]["certificate"]["bound"] == 5


def test_toric_zero_kernel_has_no_bound(tmp_path):
    config = tmp_path / "independent.json"
    config.write_text('{"points": [[1, 0], [0, 1]]}')
    proc = run_cli("--json", "toric", str(config), "--veronese", "2")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)["outputs"]["veronese"]
    assert out["bound"] is None and out["meets_bound"] and out["ok"]


def test_veronese_verify_prints_the_library_certificate(capsys):
    from veronese_gb import cli
    assert cli.main(["--json", "veronese", "--s", "3", "--d", "2",
                     "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["certificate"] == veronese_gb.verify_exchange_basis(3, 2)


def _limit_address_space():
    # 800 MB, so that a run enumerating what the cap refuses dies with a
    # MemoryError instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (800 * 2**20, 800 * 2**20))


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NEEDS_INT_DIGITS = pytest.mark.skipif(
    not INT_DIGITS, reason="no limit on int() of a digit string")

# Inputs refused before any Groebner basis, lift or standard-monomial table,
# each with what its one error line says.  (2, 2000) has 2,001 variables,
# under the ring cap, and 4 * 10^6 candidate exchange pairs; (3, 120) has
# 7,381 variables.  "CI", "BIG", "LONG", "HUGE", "TEXT", "POINT", "COEFF" and
# "LAMBDA" name files that _refused_argv writes, and it replaces "NINES" with
# a digit run one past int()'s limit.  --budget and the coefficient cap act
# during the work, so they are not here.
REFUSED_BEFORE_WORK = [
    pytest.param(["veronese", "--s", "2", "--d", "2000"], "past the cap",
                 id="veronese-2-2000"),
    pytest.param(["veronese", "--s", "2", "--d", "300"], "past the cap",
                 id="veronese-2-300"),
    pytest.param(["pullback", "tests/data/square_square.json", "--d", "2000"],
                 "past the cap", id="monomial-pullback"),
    pytest.param(["pullback", "CI", "--d", "2000", "--omega", "2,1"],
                 "past the cap", id="weighted-pullback"),
    pytest.param(["toric", "tests/data/curve_config.json", "--veronese", "120"],
                 "past the cap", id="toric-veronese"),
    pytest.param(["veronese", "--s", "3", "--d", "200"],
                 "exceeds the cap of 10000", id="ring-size"),
    pytest.param(["gbasis", "BIG"], "exponent overflow (line 1, column 4)",
                 id="exponent"),
    pytest.param(["gbasis", "LONG"], f"integer has more than {INT_DIGITS} "
                 "digits (line 1, column 6)", id="digit-limit",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["gbasis", "HUGE"], f"HUGE.json has a number with more than "
                 f"{INT_DIGITS} digits", id="digit-limit-json",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["gbasis", "TEXT"], f"ring.s has a number with more than "
                 f"{INT_DIGITS} digits", id="digit-limit-json-string",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["toric", "POINT"], f"point coordinates has a number with "
                 f"more than {INT_DIGITS} digits", id="digit-limit-point",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["gbasis", "COEFF"], f"coeff has a number with more than "
                 f"{INT_DIGITS} digits", id="digit-limit-coeff",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["toric", "LAMBDA"], f"entries of lambda has a number with "
                 f"more than {INT_DIGITS} digits", id="digit-limit-lambda",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["pullback", "tests/data/conic.json", "--d", "2", "--omega",
                  "NINES,1,1"], f"--omega has a number with more than "
                 f"{INT_DIGITS} digits", id="digit-limit-omega",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["gbasis", "tests/data/elim_curve.json", "--order",
                  "block:NINES"], f"--order has a number with more than "
                 f"{INT_DIGITS} digits", id="digit-limit-block",
                 marks=NEEDS_INT_DIGITS),
    pytest.param(["gbasis", "tests/data/elim_curve.json", "--order",
                  "weighted:NINES,1,1"], f"--order has a number with more "
                 f"than {INT_DIGITS} digits", id="digit-limit-weighted",
                 marks=NEEDS_INT_DIGITS),
]


def _refused_argv(args, tmp_path):
    """``args`` with each input path absolute, NINES replaced, and CI, BIG
    and LONG written under ``tmp_path`` as base-ring ideal files, HUGE and
    TEXT as files whose ring has NINES variables, as a JSON number and as a
    string, POINT as a configuration with NINES as a string coordinate,
    COEFF as an ideal file with NINES as a string coefficient, and LAMBDA as
    a configuration with NINES as a string entry of its grading."""
    nines = "9" * (INT_DIGITS + 1)

    def ideal(generator):
        return json.dumps({"ring": {"kind": "S", "s": 2},
                           "generators": [generator]})

    files = {"CI": ideal("y1^2 - y2^2"),
             "BIG": ideal(f"y1^{MAX_EXPONENT + 1}"),
             "LONG": ideal(f"y1 + {nines}*y2"),
             "HUGE": f'{{"ring": {{"kind": "S", "s": {nines}}}}}',
             "TEXT": json.dumps({"ring": {"kind": "S", "s": nines}}),
             "POINT": json.dumps({"points": [[nines, 1], [1, 1]]}),
             "COEFF": json.dumps({"ring": {"kind": "S", "s": 2}, "generators": [
                 {"terms": [{"coeff": nines, "exps": [1, 0]}]}]}),
             "LAMBDA": json.dumps({"points": [[1, 0], [1, 1]],
                                   "lambda": [nines, 0]})}
    argv = []
    for a in args:
        if a in files:
            path = tmp_path / f"{a}.json"
            path.write_text(files[a])
            a = str(path)
        elif a.startswith("tests/"):
            a = str(HERE.parent / a)
        argv.append(a.replace("NINES", nines))
    return argv


@pytest.mark.parametrize("args, message", REFUSED_BEFORE_WORK)
def test_exchange_binomials_cap(args, message, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "veronese_gb.cli",
         *_refused_argv(args, tmp_path)], capture_output=True, text=True,
        cwd=HERE.parent, preexec_fn=_limit_address_space, timeout=120)
    assert_one_error_line(proc, 2)
    assert message in proc.stderr
    assert "9" * 50 not in proc.stderr


@pytest.mark.parametrize("args, message", REFUSED_BEFORE_WORK)
def test_refusals_come_before_any_work(args, message, tmp_path, monkeypatch,
                                       capsys):
    from veronese_gb import cli, groebner, veronese

    def no_work(*_, **__):
        raise AssertionError("work done before the refusal")

    for owner, name in ((groebner, "buchberger"), (veronese, "buchberger"),
                        (veronese.VeroneseMap, "lift"),
                        (veronese, "_standard_table")):
        monkeypatch.setattr(owner, name, no_work)
    assert cli.main(_refused_argv(args, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "9" * 50 not in err


@NEEDS_INT_DIGITS
@pytest.mark.parametrize("argv, name", [
    (["veronese", "--s", "NINES", "--d", "2"], "--s"),
    (["pullback", "tests/data/square_square.json", "--d", "NINES"], "--d"),
    (["--budget", "NINES", "bounds", "tests/data/square_square.json"],
     "--budget"),
    (["toric", "tests/data/curve_config.json", "--veronese", "NINES"],
     "--veronese"),
    (["bounds", "tests/data/square_square.json"], "VERONESE_GB_BUDGET"),
], ids=["s", "d", "budget", "veronese", "env-budget"])
def test_digit_limit_in_an_option_or_variable(argv, name):
    # the option's value, or VERONESE_GB_BUDGET when no option holds NINES,
    # is a digit run one past int()'s limit; the message names where it was
    # and the limit, and does not echo the run
    nines = "9" * (INT_DIGITS + 1)
    env = dict(os.environ, VERONESE_GB_BUDGET="" if "NINES" in argv
               else nines)
    proc = subprocess.run(
        [sys.executable, "-m", "veronese_gb.cli",
         *(a.replace("NINES", nines) for a in argv)],
        capture_output=True, text=True, cwd=HERE.parent, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr[-300:]
    assert len(proc.stderr.encode()) < 1024
    last = proc.stderr.splitlines()[-1]
    assert name in last and f"more than {INT_DIGITS} digits" in last
    assert "9" * 50 not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("generators", [["y1 - t", "y2 - t^2"], ["y1^2"]],
                         ids=["weighted-route", "monomial-route"])
def test_pullback_refuses_a_generic_ring(generators, tmp_path):
    # the library's refusal is the one message on either route
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({
        "ring": {"kind": "generic", "names": ["t", "y1", "y2"]},
        "generators": generators}))
    proc = run_cli("--json", "pullback", str(path), "--d", "2")
    assert_one_error_line(proc, 2)
    assert "pullbacks need a base ring y1..ys" in proc.stderr


def test_out_flag_writes_report(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("--json", "--out", str(target),
                   "bounds", "tests/data/square_square.json")
    assert proc.returncode == 0 and proc.stdout == ""
    obj = json.loads(target.read_text())
    assert obj["outputs"]["bound"] == 3


@pytest.mark.parametrize("args", [
    ["bounds", "tests/data/square_square.json"],
    ["veronese", "--s", "3", "--d", "3"],
], ids=["small-report", "large-report"])
def test_closed_stdout_exits_quietly(args):
    # The read end is closed before the child starts, so its first write to
    # stdout fails.  With stdout buffered, as it is unless PYTHONUNBUFFERED
    # is set, a small report fails in the flush and one larger than the
    # buffer inside print.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "veronese_gb.cli", "--json", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=HERE.parent, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr[-300:]
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_order_spec_variants():
    # explicit priorities and chains parse and compute
    for spec in ("lex", "lex:1,0", "grevlex:1,0", "weighted:3,1",
                 "weighted:3,1:tie=lex", "block:1:back=grevlex"):
        proc = run_cli("--json", "gbasis", "tests/data/empty_ideal.json",
                       "--order", spec)
        assert proc.returncode == 0, (spec, proc.stderr)
    proc = run_cli("gbasis", "tests/data/empty_ideal.json", "--order", "wat")
    assert proc.returncode == 2
    proc = run_cli("gbasis", "tests/data/empty_ideal.json",
                   "--order", "weighted:1,2,3")
    assert proc.returncode == 2  # wrong weight count
    proc = run_cli("gbasis", "tests/data/empty_ideal.json", "--order", "gamma")
    assert proc.returncode == 2  # gamma needs a Veronese ring


# quotes, a backslash, control characters, non-ASCII text and a separator
# that JavaScript reads as a line break
WRITER_STRINGS = ("", "ring", 'a "quoted" word', "back\\slash",
                  "tab\tline\nnul\x00unit\x1fdel\x7f", "é ü 𝔽 ∞", "\u2028")


def _json_value(rng, depth):
    """A random value that json.dumps accepts, nested at most 4 deep."""
    roll = rng.randrange(11 if depth < 4 else 6)
    if roll == 0:
        return rng.choice(WRITER_STRINGS) + str(rng.randrange(10))
    if roll == 1:
        return rng.choice((-1, 1)) * rng.randrange(2**70)
    if roll == 2:
        return rng.choice((True, False, None, 0.1, -2.5, float("inf")))
    if roll == 3:
        return rng.choice(((), [], {}, ""))
    if roll == 4:
        return [rng.randrange(-3, 2**65) for _ in range(rng.randrange(1, 6))]
    if roll == 5:
        return rng.randrange(-5, 5)
    size = rng.randrange(1, 5)
    if roll in (6, 7, 8):
        return {rng.choice(WRITER_STRINGS) + str(i): _json_value(rng, depth + 1)
                for i in range(size)}
    items = [_json_value(rng, depth + 1) for _ in range(size)]
    return items if roll == 9 else tuple(items)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


def test_report_writer_matches_json_dumps(rng):
    from veronese_gb.cli import report_json
    for _ in range(300):
        value = _json_value(rng, 0)
        assert report_json(value) == _dumps(value), value
    # one dict object twice at one depth and once at two others, as a basis
    # block shares its ring, inside and beside random values
    for _ in range(50):
        shared = {"index_table": [[2, 0], [1, 1], [0, 2]], "kind": "Rd",
                  "more": _json_value(rng, 2)}
        value = {"block": [shared, shared, _json_value(rng, 2)],
                 "deeper": {"ring": {"ring": shared}}, "top": shared,
                 "other": _json_value(rng, 1)}
        assert report_json(value) == _dumps(value)
    # every golden, parsed and written again, is its own text
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        assert report_json(json.loads(text)) + "\n" == text, path.name


def test_basis_block_shares_one_ring_object():
    from veronese_gb import cli
    from veronese_gb.groebner import Budget
    from veronese_gb.veronese import VeroneseMap, kernel_groebner_basis
    vmap = VeroneseMap(2, 3)
    block = cli.gb_block(list(kernel_groebner_basis(2, 3)), vmap.order,
                         vmap.ring, Budget())
    assert len(block["polynomials"]) == 3
    assert all(p["ring"] is block["ring"] for p in block["polynomials"])


def test_timing_survives_a_wall_clock_step_back(monkeypatch, capsys):
    # NTP or an operator may set the wall clock back while a command runs;
    # the elapsed time must come from a monotonic clock
    from itertools import count

    from veronese_gb import cli
    clock = count(1e9, -1.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    code = cli.main(["--json", "bounds", str(DATA / "square_square.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["timing_ms"] >= 0


def test_import_generates_no_dataclass_code():
    # Every CLI command starts a process, and dataclasses with inspect, plus
    # the methods they generate, cost a fifth of a small command; hashlib
    # maps OpenSSL's libcrypto through _hashlib, 3.5 MB resident.  -S keeps
    # site-packages, which may import any of them itself, out of the way.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import veronese_gb.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & "
            "(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_digest_falls_back_to_hashlib():
    # an interpreter built without the built-in hash modules
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from veronese_gb import cli\n"
            "assert cli.sha256 is hashlib.sha256, cli.sha256\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, "--json", *dict(GOLDEN_CASES)[
            "bounds_square"]], capture_output=True, text=True, env=env,
        cwd=HERE.parent, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((GOLDEN / "bounds_square.json").read_text())
    assert report_of(proc) == expected


@pytest.mark.parametrize("argv", [
    ["pullback", "conic.json", "--d", "5", "--omega", "2,1,1"],
    ["toric", "curve_config.json", "--veronese", "5"],
], ids=["pullback-conic-d5", "toric-veronese-5"])
def test_cold_at_bound_commands_enumerate_no_exchange_binomials(
        argv, monkeypatch, capsys):
    # the two slowest small commands read the (3,5) kernel basis off the
    # standard-monomial table; new shape caches, rather than emptied ones,
    # so that no earlier test's entry hides a call and the later tests keep
    # theirs
    from functools import lru_cache

    from veronese_gb import cli, veronese
    calls = []
    enumerate_pairs = veronese.exchange_binomials.__wrapped__

    def counted(s, d):
        calls.append((s, d))
        return enumerate_pairs(s, d)

    for name in ("kernel_groebner_basis", "kernel_initial"):
        monkeypatch.setattr(veronese, name, lru_cache(maxsize=None)(
            getattr(veronese, name).__wrapped__))
    counted = lru_cache(maxsize=None)(counted)
    monkeypatch.setattr(veronese, "exchange_binomials", counted)
    monkeypatch.setattr(cli, "exchange_binomials", counted)
    assert cli.main(["--json", *(str(DATA / a) if a.endswith(".json") else a
                                 for a in argv)]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]
    assert calls == []
