"""Command-line surface: golden outputs, exit codes, and determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

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


def test_malformed_json_exit_code():
    bad = DATA / "not_json.json"
    bad.write_text("{ nope")
    try:
        proc = run_cli("gbasis", str(bad.relative_to(HERE.parent)))
        assert proc.returncode == 2
    finally:
        bad.unlink()


def test_nonmonomial_weight_exit_code():
    proc = run_cli("pullback", "tests/data/conic.json", "--d", "2",
                   "--omega", "1,1,1")
    assert proc.returncode == 4
    assert "find_weight_vector" in proc.stderr


def test_bad_configuration_exit_code():
    proc = run_cli("toric", "tests/data/bad_config.json")
    assert proc.returncode == 5


def test_strict_partial_exit():
    args = ["pullback", "tests/data/square_square.json", "--d", "2",
            "--no-oracle", "--cap", "1"]
    relaxed = run_cli("--json", *args)
    assert relaxed.returncode == 0
    assert json.loads(relaxed.stdout)["outputs"]["partial"] is True
    strict = run_cli("--json", *args, "--strict")
    assert strict.returncode == 1


@pytest.mark.parametrize("args,code", [
    (["--d", "3", "--verify", "--cap", "1"], 0),
    (["--d", "2", "--no-oracle", "--cap", "1", "--strict"], 1),
], ids=["capped", "capped-no-oracle-strict"])
def test_method_both_capped_result_is_partial_not_a_defect(args, code):
    # the capped constructive basis misses generators the oracle has; the
    # certificate says so, and --strict, not exit 6, decides the exit code
    proc = run_cli("--json", "pullback", "tests/data/square_square.json",
                   "--method", "both", *args)
    assert proc.returncode == code, proc.stderr
    out = json.loads(proc.stdout)["outputs"]
    assert out["partial"] is True
    assert out["certificate"]["complete"] is False
    assert out["certificate"]["matches_oracle"] is False


@pytest.mark.parametrize("method", ["constructive", "oracle", "both"])
def test_pullback_verify_under_every_method(method):
    args = ["pullback", "tests/data/square_square.json", "--d", "3",
            "--method", method]
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


def test_pullback_with_weights_certifies_quadratic():
    proc = run_cli("--json", "pullback", "tests/data/conic.json",
                   "--d", "5", "--omega", "2,1,1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["outputs"]
    assert out["max_degree"] <= 2
    assert out["certificate"]["meets_bound"]
    assert out["certificate"]["initial_matches_monomial_pullback"]


def test_pullback_oracle_method():
    proc = run_cli("--json", "pullback", "tests/data/square_square.json",
                   "--d", "2", "--method", "oracle")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["outputs"]
    assert out["method"] == "elimination-oracle"
    assert out["groebner_basis"]["polynomials"]


def test_out_flag_writes_report(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("--json", "--out", str(target),
                   "bounds", "tests/data/square_square.json")
    assert proc.returncode == 0 and proc.stdout == ""
    obj = json.loads(target.read_text())
    assert obj["outputs"]["bound"] == 3


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
