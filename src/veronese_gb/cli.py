"""Batch command-line interface with deterministic, machine-readable reports.

Exit codes: 0 success, 2 unreadable input or a malformed
``VERONESE_GB_BUDGET``, 3 resource budget exhausted, 4 weight vector with a
non-monomial initial ideal, 5 point set that is not a configuration, 6 a
result that failed an internal consistency check (a defect in the package).
``--strict`` turns flagged-partial results into exit 1.
``pullback --method both`` runs the elimination oracle once and counts its
S-pairs once in ``spairs_used``; it exits 6 only when a complete
constructive basis disagrees with the oracle, and a basis that ``--cap`` or
``--no-oracle`` left partial is flagged partial instead.  ``--cap`` and
``--no-oracle`` shape only the constructive route; ``--verify`` checks the
returned basis under every method.
Reports are byte-identical across runs except for the ``timing_ms`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from .errors import (BudgetExceededError, DimensionError, DomainError,
                     InternalCheckError, NonMonomialInitialError,
                     NotAConfigurationError, ParseError, RingMismatchError)
from .groebner import Budget, Ideal, MonomialIdeal, eliminate
from .orders import Block, GammaRevLex, GrevLex, Lex, Weighted
from .polyring import (format_terms, generic_ring, parse_polynomial,
                       poly_from_json, poly_to_json, ring_from_json,
                       ring_to_json)
from .toric import Configuration, toric_ideal, verify_veronese_toric
from .veronese import (VeroneseMap, degree_bounds, exchange_binomials,
                       pullback_homogeneous_ideal, pullback_monomial_ideal,
                       verify_exchange_basis)

INPUT_ERROR, BUDGET_ERROR, WEIGHT_ERROR, CONFIG_ERROR, CHECK_ERROR = \
    2, 3, 4, 5, 6


class _Partial(Exception):
    """Raised under --strict when a result is flagged partial."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), fh.name
    except FileNotFoundError:
        raise DomainError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)


def load_ideal_file(path):
    obj, _ = _load_json(path)
    ring = ring_from_json(obj["ring"])
    gens = []
    for item in obj.get("generators", []):
        if isinstance(item, str):
            gens.append(parse_polynomial(item, ring))
        else:
            gens.append(poly_from_json(item, ring))
    return Ideal(ring, gens)


def load_configuration_file(path):
    obj, _ = _load_json(path)
    return Configuration.from_points(obj["points"], obj.get("lambda"))


def parse_order_spec(spec, ring):
    """Order grammar: lex[:perm] | grevlex[:chain] | gamma |
    weighted:w1,..,wn[:tie=SPEC] | block:K[:back=SPEC]."""
    head, _, rest = spec.partition(":")
    if head == "lex":
        prio = tuple(int(x) for x in rest.split(",")) if rest else None
        return Lex(ring.nvars, prio)
    if head == "grevlex":
        chain = tuple(int(x) for x in rest.split(",")) if rest else None
        return GrevLex(ring.nvars, chain)
    if head == "gamma":
        if ring.kind != "Rd":
            raise DomainError("the gamma order needs a Veronese ring")
        return GammaRevLex(ring.s, ring.d)
    if head == "weighted":
        wpart, _, tiepart = rest.partition(":")
        weights = tuple(int(x) for x in wpart.split(","))
        if len(weights) != ring.nvars:
            raise DimensionError("weight count must match the ring")
        tie = ring.default_order()
        if tiepart:
            if not tiepart.startswith("tie="):
                raise DomainError(f"bad weighted order spec {spec!r}")
            tie = parse_order_spec(tiepart[4:], ring)
        return Weighted(weights, tie)
    if head == "block":
        kpart, _, backpart = rest.partition(":")
        k = int(kpart)
        if not 0 <= k <= ring.nvars:
            raise DomainError("block size outside the ring")
        back_ring = generic_ring(ring.names[k:])
        back = GrevLex(ring.nvars - k)
        if backpart:
            if not backpart.startswith("back="):
                raise DomainError(f"bad block order spec {spec!r}")
            back = parse_order_spec(backpart[5:], back_ring)
        return Block(k, GrevLex(k), back)
    raise DomainError(f"unknown order spec {spec!r}")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def gb_block(polys, order, ring, budget):
    return {"ring": ring_to_json(ring),
            "polynomials": [poly_to_json(g, order) for g in polys],
            "metadata": {"order": order.fingerprint,
                         "spair_count": budget.spairs,
                         "reduced": True}}


def make_report(command, input_payload, outputs, budget, started):
    digest = hashlib.sha256(
        json.dumps(_jsonable(input_payload), sort_keys=True).encode()).hexdigest()
    return {"command": command,
            "inputs_digest": digest,
            "outputs": _jsonable(outputs),
            "budget": {"spair_cap": budget.spair_cap,
                       "spairs_used": budget.spairs},
            "timing_ms": int((time.time() - started) * 1000)}


def emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True) if args.json \
        else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def render_text(report):
    lines = [f"# {report['command']}"]

    def walk(prefix, value):
        if isinstance(value, dict):
            if set(value) == {"ring", "polynomials", "metadata"}:
                lines.append(f"{prefix} ({len(value['polynomials'])} elements, "
                             f"order {value['metadata']['order']}):")
                for p in value["polynomials"]:
                    names = ring_from_json(p["ring"]).names
                    lines.append("  " + format_terms(
                        names, ((t["exps"], Fraction(t["coeff"]))
                                for t in p["terms"])))
                return
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        else:
            lines.append(f"{prefix}: {value}")

    walk("", {k: v for k, v in report.items() if k != "command"})
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_gbasis(args, budget):
    started = time.time()
    ideal = load_ideal_file(args.ideal)
    order = parse_order_spec(args.order, ideal.ring)
    if not args.eliminate:
        out_ring, out_order = ideal.ring, order
        gb = ideal.groebner_basis(order, budget)
    elif isinstance(order, Block):
        out_ring = generic_ring(ideal.ring.names[order.front:])
        out_order = order.back_order
        gb = eliminate(ideal.generators, order.front, out_ring, out_order,
                       budget=budget)
    else:
        raise DomainError("--eliminate needs a block order")
    outputs = {"groebner_basis": gb_block(gb, out_order, out_ring, budget),
               "eliminated": bool(args.eliminate)}
    return make_report("gbasis", {"file": args.ideal, "order": args.order,
                                  "eliminate": bool(args.eliminate)},
                       outputs, budget, started)


def cmd_veronese(args, budget):
    started = time.time()
    basis = exchange_binomials(args.s, args.d)
    vmap = VeroneseMap(args.s, args.d)
    outputs = {"basis": gb_block(list(basis), vmap.order, vmap.ring, budget),
               "size": len(basis)}
    if args.verify:
        cert = verify_exchange_basis(args.s, args.d, budget)
        outputs["certificate"] = {
            "in_kernel": cert.in_kernel,
            "is_groebner": cert.is_groebner,
            "matches_oracle": cert.matches_oracle,
            "spairs_checked": cert.spairs,
            "reduced_size": cert.reduced_size,
            "ok": cert.ok}
    return make_report("veronese", {"s": args.s, "d": args.d,
                                    "verify": bool(args.verify)},
                       outputs, budget, started)


def cmd_pullback(args, budget):
    started = time.time()
    ideal = load_ideal_file(args.ideal)
    if ideal.ring.kind != "S":
        raise DomainError("pullback input must live in a base ring y1..ys")
    if args.omega:
        omega = tuple(int(x) for x in args.omega.split(","))
        res = pullback_homogeneous_ideal(ideal, args.d, omega,
                                         method=args.method, budget=budget)
    elif all(g.is_monomial() for g in ideal.generators):
        mono = MonomialIdeal.of_leading_terms(
            ideal.ring, ideal.generators, ideal.ring.default_order())
        res = pullback_monomial_ideal(mono, args.d, degree_cap=args.cap,
                                      verify=args.verify, budget=budget,
                                      use_oracle=not args.no_oracle,
                                      method=args.method)
    else:
        raise DomainError("non-monomial input needs --omega")
    vmap = VeroneseMap(ideal.ring.s, args.d)
    outputs = {"groebner_basis": gb_block(list(res.groebner_basis), res.order,
                                          vmap.ring, budget),
               "reduced": gb_block(list(res.reduced), res.order, vmap.ring,
                                   budget),
               "max_degree": res.max_degree,
               "method": res.method,
               "certificate": dict(res.certificate)}
    partial = res.certificate.get("complete") is False
    outputs["partial"] = partial
    report = make_report("pullback",
                         {"file": args.ideal, "d": args.d,
                          "omega": args.omega, "method": args.method,
                          "cap": args.cap},
                         outputs, budget, started)
    if partial and args.strict:
        raise _Partial(report)
    return report


def cmd_toric(args, budget):
    started = time.time()
    config = load_configuration_file(args.config)
    ideal = toric_ideal(config, budget)
    order = ideal.ring.default_order()
    outputs = {"lambda": [str(x) for x in config.grading],
               "groebner_basis": gb_block(list(ideal.generators), order,
                                          ideal.ring, budget)}
    if args.veronese:
        cert = verify_veronese_toric(config, args.veronese,
                                     method=args.method, budget=budget)
        vmap = VeroneseMap(config.size, args.veronese)
        outputs["veronese"] = {
            "d": args.veronese,
            "omega": list(cert.omega),
            "bound": cert.bound,
            "meets_bound": cert.meets_bound,
            "all_binomial": cert.all_binomial,
            "max_degree": cert.max_degree,
            "images_equal": cert.images_equal,
            "duplicates_linear": cert.duplicates_linear,
            "ok": cert.ok,
            "groebner_basis": gb_block(list(cert.pullback.reduced),
                                       cert.pullback.order, vmap.ring, budget)}
    return make_report("toric", {"file": args.config,
                                 "veronese": args.veronese},
                       outputs, budget, started)


def cmd_bounds(args, budget):
    started = time.time()
    ideal = load_ideal_file(args.ideal)
    if not ideal.generators:
        raise DomainError("bounds need a nonzero monomial ideal")
    if not all(g.is_monomial() for g in ideal.generators):
        raise DomainError("bounds need monomial generators")
    mono = MonomialIdeal.of_leading_terms(ideal.ring, ideal.generators,
                                          ideal.ring.default_order())
    rep = degree_bounds(mono)
    outputs = {"s": rep.s,
               "max_exponent": rep.max_exponent,
               "delta": rep.delta,
               "bound": rep.bound,
               "bound_raw": str(rep.bound_raw),
               "rival_rough": str(rep.rival_rough),
               "rival_stated": rep.rival_stated,
               "verdicts": rep.verdicts}
    return make_report("bounds", {"file": args.ideal}, outputs, budget, started)


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="veronese-gb",
        description="Exact Groebner bases for Veronese pullbacks and toric ideals.")
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    parser.add_argument("--out", help="write the report to a file")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on processed S-pairs (env VERONESE_GB_BUDGET)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gbasis", help="reduced basis of an ideal file")
    p.add_argument("ideal")
    p.add_argument("--order", default="grevlex")
    p.add_argument("--eliminate", action="store_true",
                   help="keep only the back-block elements of a block order")
    p.set_defaults(fn=cmd_gbasis)

    p = sub.add_parser("veronese", help="quadratic kernel basis for (s, d)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_veronese)

    p = sub.add_parser("pullback", help="basis of the degree-d pullback")
    p.add_argument("ideal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--omega", help="comma-separated base weights")
    p.add_argument("--method", default="constructive",
                   choices=["constructive", "oracle", "both"])
    p.add_argument("--cap", type=int, default=2,
                   help="degree cap for standard-monomial generators")
    p.add_argument("--no-oracle", action="store_true",
                   help="never fall back to elimination below the bound")
    p.add_argument("--verify", action="store_true",
                   help="check all S-pairs of the returned basis")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when the result is flagged partial")
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("toric", help="kernel of a configuration's monomial map")
    p.add_argument("config")
    p.add_argument("--veronese", type=int,
                   help="also certify the degree-d layer")
    p.add_argument("--method", default="constructive",
                   choices=["constructive", "oracle", "both"])
    p.set_defaults(fn=cmd_toric)

    p = sub.add_parser("bounds", help="degree bounds for a monomial ideal")
    p.add_argument("ideal")
    p.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = Budget(spair_cap=args.budget)
        report = args.fn(args, budget)
    except _Partial as exc:
        emit(exc.args[0], args)
        print("partial result under --strict", file=sys.stderr)
        return 1
    except NonMonomialInitialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return WEIGHT_ERROR
    except NotAConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ParseError, DomainError, DimensionError, RingMismatchError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return CHECK_ERROR
    emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
