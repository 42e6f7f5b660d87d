"""Batch command-line interface with deterministic, machine-readable reports.

Exit codes: 0 success, 141 a report that could not be written because
stdout was closed, and otherwise the ``exit_code`` of the error type raised,
which ``errors`` sets: 2 unreadable input (an unreadable path, an
unwritable ``--out``, JSON nested past the interpreter's limit, a
non-finite or zero-denominator number, a number past ``int()``'s digit
limit, a ring past the variable cap, a shape past the exchange-binomial
cap) or a malformed ``VERONESE_GB_BUDGET``, 3 resource budget exhausted, 4
weight vector with a non-monomial initial ideal, 5 point set that is not a
configuration, 6 a result that failed an internal consistency check (a
defect in the package), a false certificate verdict among them.
``pullback`` sends monomial generators without ``--omega`` to the monomial
route and every other input to the weighted route, under ``--omega`` or,
without it, under weights derived from the default order.  ``bounds``
reports the bound of a monomial ideal, or of the default-order initial
ideal of a homogeneous one.  A zero toric kernel reports ``bound: null``.
``pullback`` and ``toric --veronese`` return the constructive basis, which
is complete at every d.  ``--method both`` runs the elimination oracle
once, counts its S-pairs once in ``spairs_used``, and exits 6 when the
constructive basis disagrees with it; ``toric`` refuses ``--method``
without ``--veronese``.  ``--verify`` checks the returned basis on both
routes and under every method.  A
certificate's verdicts are checks, and a false one exits 6 with no report
and one line naming every false verdict: ``is_groebner``,
``members_in_target``, ``initial_matches_monomial_pullback`` and
``matches_oracle`` on ``pullback``; ``in_kernel``, ``is_groebner``,
``matches_oracle`` and ``ok`` on ``veronese --verify``; ``all_binomial``,
``images_equal``, ``duplicates_linear`` and ``ok`` on ``toric --veronese``,
whose ``ok`` also needs a basis of degree at most 2 at the bound, which the
line names too.  ``meets_bound`` and the verdicts of ``bounds`` state facts
about the input, not checks.
Reports are byte-identical across runs except for the ``timing_ms`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .errors import (DimensionError, DomainError, InternalCheckError,
                     ParseError, VeroneseGBError)
from .groebner import (Budget, Ideal, MonomialIdeal, eliminate,
                       elimination_order)
from .orders import Block, GammaRevLex, GrevLex, Lex, Weighted
from .polyring import (SCALAR, format_terms, generic_ring, json_shape,
                       parse_polynomial, poly_from_json, poly_to_json,
                       read_int, ring_from_json, ring_to_json)
from .toric import Configuration, toric_ideal, verify_veronese_toric
from .veronese import (METHODS, VeroneseMap, degree_bounds,
                       exchange_binomials, pullback_homogeneous_ideal,
                       pullback_monomial_ideal, verify_exchange_basis)

try:
    # hashlib maps OpenSSL, 3.5 MB and several ms of every command's start:
    # the interpreter's built-in module first, as the standard random does
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# what a shell reports for a writer killed by SIGPIPE
PIPE_CLOSED = 141


def _reject_constant(name):
    raise DomainError(f"{name} is not a JSON number")


def _int_option(text):
    """An integer option's value, read by :func:`read_int`; argparse names
    the option in front of the message."""
    try:
        return read_int(text, "the value")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant,
                             parse_int=lambda text: read_int(text, path))
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except RecursionError:
        raise DomainError(f"{path} is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)


def load_ideal_file(path):
    obj = json_shape(_load_json(path), dict, "ideal file")
    ring = ring_from_json(obj["ring"])
    gens = []
    for item in json_shape(obj.get("generators", []), list, "generators"):
        if isinstance(item, str):
            gens.append(parse_polynomial(item, ring))
        else:
            gens.append(poly_from_json(item, ring))
    return Ideal(ring, gens)


def load_configuration_file(path):
    obj = json_shape(_load_json(path), dict, "configuration file")
    points = [json_shape(p, list, "each point", SCALAR)
              for p in json_shape(obj["points"], list, "points")]
    grading = obj.get("lambda")
    if grading is not None:
        json_shape(grading, list, "lambda", SCALAR)
    return Configuration.from_points(points, grading)


def parse_order_spec(spec, ring):
    """Order grammar: lex[:perm] | grevlex[:chain] | gamma |
    weighted:w1,..,wn[:tie=SPEC] | block:K[:back=SPEC]."""
    head, _, rest = spec.partition(":")
    if head == "lex":
        prio = (tuple(read_int(x, "--order") for x in rest.split(","))
                    if rest else None)
        return Lex(ring.nvars, prio)
    if head == "grevlex":
        chain = (tuple(read_int(x, "--order") for x in rest.split(","))
                     if rest else None)
        return GrevLex(ring.nvars, chain)
    if head == "gamma":
        if ring.kind != "Rd":
            raise DomainError("the gamma order needs a Veronese ring")
        return GammaRevLex(ring.s, ring.d)
    if head == "weighted":
        wpart, _, tiepart = rest.partition(":")
        weights = tuple(read_int(x, "--order") for x in wpart.split(","))
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
        k = read_int(kpart, "--order")
        if not 0 <= k <= ring.nvars:
            raise DomainError("block size outside the ring")
        back_ring = generic_ring(ring.names[k:])
        back = GrevLex(ring.nvars - k)
        if backpart:
            if not backpart.startswith("back="):
                raise DomainError(f"bad block order spec {spec!r}")
            back = parse_order_spec(backpart[5:], back_ring)
        return elimination_order(k, back)
    raise DomainError(f"unknown order spec {spec!r}")


def gb_block(polys, order, ring, budget):
    # one ring object for the block and every polynomial in its ring, which
    # report_json renders once per depth
    rings = {ring: ring_to_json(ring)}
    polynomials = []
    for g in polys:
        p = poly_to_json(g, order)
        p["ring"] = rings.setdefault(g.ring, p["ring"])
        polynomials.append(p)
    return {"ring": rings[ring],
            "polynomials": polynomials,
            "metadata": {"order": order.fingerprint,
                         "spair_count": budget.spairs,
                         "reduced": True}}


def make_report(command, input_payload, outputs, budget, started):
    digest = sha256(
        json.dumps(input_payload, sort_keys=True).encode()).hexdigest()
    return {"command": command,
            "inputs_digest": digest,
            "outputs": outputs,
            "budget": {"spair_cap": budget.spair_cap,
                       "spairs_used": budget.spairs},
            "timing_ms": int((time.perf_counter() - started) * 1000)}


def report_json(value):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, byte for
    byte.

    With an indent, ``json.dumps`` runs its pure-Python encoder and renders
    every occurrence of a value anew, and a basis block repeats its ring's
    index table in each polynomial.  Here a first walk finds the dicts that
    occur more than once, and each of them is rendered once per depth.  A
    string is escaped by the encoder's own function, and any other value
    that is not a container or an exact int, and a key that is not a
    string, is rendered by ``json.dumps`` itself.
    """
    seen, repeated = set(), set()
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            if id(v) in seen:
                repeated.add(id(v))
                continue
            seen.add(id(v))
            stack.extend(v.values())
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
    encode = json.encoder.encode_basestring_ascii
    rendered = {}
    out = []

    def render(v, indent):
        if isinstance(v, str):
            out.append(encode(v))
        elif isinstance(v, dict):
            if not v:
                out.append("{}")
                return
            memo = (id(v), len(indent)) if id(v) in repeated else None
            text = rendered.get(memo)
            if text is not None:
                out.append(text)
                return
            start = len(out)
            inner = indent + "  "
            head = "{\n" + inner
            for k, x in sorted(v.items()):
                out.append(head)
                out.append(encode(k if isinstance(k, str) else json.dumps(k)))
                out.append(": ")
                render(x, inner)
                head = ",\n" + inner
            out.append("\n" + indent + "}")
            if memo is not None:
                rendered[memo] = out[start] = "".join(out[start:])
                del out[start + 1:]
        elif isinstance(v, (list, tuple)):
            if not v:
                out.append("[]")
                return
            inner = indent + "  "
            if all(type(x) is int for x in v):
                out.append("[\n" + inner + (",\n" + inner).join(map(repr, v))
                           + "\n" + indent + "]")
                return
            head = "[\n" + inner
            for x in v:
                out.append(head)
                render(x, inner)
                head = ",\n" + inner
            out.append("\n" + indent + "]")
        elif type(v) is int:
            out.append(repr(v))
        else:
            out.append(json.dumps(v))

    render(value, "")
    return "".join(out)


def emit(report, args):
    """Writes the report to stdout, or to ``--out``: under ``--json`` the
    text of :func:`report_json`, byte-identical to ``json.dumps(report,
    indent=2, sort_keys=True)``, and otherwise :func:`render_text`."""
    text = report_json(report) if args.json else render_text(report)
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None


def render_text(report):
    lines = [f"# {report['command']}"]
    names_of = {}  # id of a ring dict, which gb_block shares -> its names

    def walk(prefix, value):
        if isinstance(value, dict):
            if set(value) == {"ring", "polynomials", "metadata"}:
                lines.append(f"{prefix} ({len(value['polynomials'])} elements, "
                             f"order {value['metadata']['order']}):")
                for p in value["polynomials"]:
                    ring = p["ring"]
                    if id(ring) not in names_of:
                        names_of[id(ring)] = ring_from_json(ring).names
                    terms = ((t["exps"], Fraction(t["coeff"]))
                             for t in p["terms"])
                    lines.append("  " + format_terms(names_of[id(ring)], terms))
                return
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        else:
            lines.append(f"{prefix}: {value}")

    walk("", {k: v for k, v in report.items() if k != "command"})
    return "\n".join(lines)


def fail_on_false(command, verdicts):
    """Raises :class:`InternalCheckError`, before any report is written,
    when one of ``verdicts``, a mapping from names to the command's
    certificate checks, is false; the one-line message names each false
    one."""
    false = [name for name, value in verdicts.items() if not value]
    if false:
        raise InternalCheckError(f"false verdicts in the {command} "
                                 f"certificate: {', '.join(false)}")


# ---------------------------------------------------------------------------
# commands


def cmd_gbasis(args, budget):
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
    return {"file": args.ideal, "order": args.order,
            "eliminate": bool(args.eliminate)}, outputs


def cmd_veronese(args, budget):
    basis = exchange_binomials(args.s, args.d)
    vmap = VeroneseMap(args.s, args.d)
    outputs = {"basis": gb_block(list(basis), vmap.order, vmap.ring, budget),
               "size": len(basis)}
    if args.verify:
        cert = verify_exchange_basis(args.s, args.d, budget)
        fail_on_false("veronese", {name: cert[name] for name in (
            "in_kernel", "is_groebner", "matches_oracle", "ok")})
        outputs["certificate"] = cert
    return {"s": args.s, "d": args.d, "verify": bool(args.verify)}, outputs


def cmd_pullback(args, budget):
    ideal = load_ideal_file(args.ideal)
    if args.omega or not all(g.is_monomial() for g in ideal.generators):
        omega = (tuple(read_int(x, "--omega")
                       for x in args.omega.split(",")) if args.omega else None)
        res = pullback_homogeneous_ideal(ideal, args.d, omega,
                                         method=args.method, budget=budget,
                                         verify=args.verify)
    else:
        mono = MonomialIdeal.of_leading_terms(
            ideal.ring, ideal.generators, ideal.ring.default_order())
        res = pullback_monomial_ideal(mono, args.d, verify=args.verify,
                                      budget=budget, method=args.method)
    cert = res.certificate
    fail_on_false("pullback", {name: cert[name] for name in (
        "is_groebner", "members_in_target",
        "initial_matches_monomial_pullback", "matches_oracle")
        if name in cert})
    vmap = VeroneseMap(ideal.ring.s, args.d)
    outputs = {"groebner_basis": gb_block(list(res.groebner_basis), res.order,
                                          vmap.ring, budget),
               "reduced": gb_block(list(res.reduced), res.order, vmap.ring,
                                   budget),
               "max_degree": res.max_degree,
               "method": "constructive",
               "certificate": dict(cert),
               "partial": False}
    # "method", "partial" and "cap" are constants that the benchmark's pinned
    # digests hold until it is next revised
    return {"file": args.ideal, "d": args.d, "omega": args.omega,
            "method": args.method, "cap": 2}, outputs


def cmd_toric(args, budget):
    if args.method is not None and args.veronese is None:
        raise DomainError("--method needs --veronese")
    config = load_configuration_file(args.config)
    if args.veronese is not None:
        # refuse the layer's shape before computing the kernel
        vmap = VeroneseMap(config.size, args.veronese)
    ideal = toric_ideal(config, budget)
    order = ideal.ring.default_order()
    outputs = {"lambda": [str(x) for x in config.grading],
               "groebner_basis": gb_block(list(ideal.generators), order,
                                          ideal.ring, budget)}
    if args.veronese is not None:
        cert = verify_veronese_toric(config, args.veronese,
                                     method=args.method or "constructive",
                                     budget=budget)
        pb = cert.pullback
        meets_bound, max_degree = pb.certificate["meets_bound"], pb.max_degree
        fail_on_false("toric", {
            "all_binomial": cert.all_binomial,
            "images_equal": cert.images_equal,
            "duplicates_linear": cert.duplicates_linear,
            f"max_degree {max_degree} at the bound":
                not meets_bound or max_degree <= 2,
            "ok": cert.ok})
        outputs["veronese"] = {
            "d": args.veronese,
            "omega": list(pb.omega),
            "bound": pb.certificate["bound"],
            "meets_bound": meets_bound,
            "all_binomial": cert.all_binomial,
            "max_degree": max_degree,
            "images_equal": cert.images_equal,
            "duplicates_linear": cert.duplicates_linear,
            "ok": cert.ok,
            "groebner_basis": gb_block(list(pb.reduced), pb.order, vmap.ring,
                                       budget)}
    return {"file": args.config, "veronese": args.veronese}, outputs


def cmd_bounds(args, budget):
    ideal = load_ideal_file(args.ideal)
    if not ideal.generators:
        raise DomainError("bounds need a nonzero ideal")
    if not ideal.is_homogeneous():
        raise DomainError("bounds need homogeneous generators")
    order = ideal.ring.default_order()
    if all(g.is_monomial() for g in ideal.generators):
        mono = MonomialIdeal.of_leading_terms(ideal.ring, ideal.generators,
                                              order)
    else:
        mono = ideal.initial_ideal(order, budget)
    rep = degree_bounds(mono)
    outputs = {"s": rep.s,
               "max_exponent": rep.max_exponent,
               "delta": rep.delta,
               "bound": rep.bound,
               "bound_raw": str(rep.bound_raw),
               "rival_rough": str(rep.rival_rough),
               "rival_stated": rep.rival_stated,
               "verdicts": rep.verdicts}
    return {"file": args.ideal}, outputs


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="veronese-gb",
        description="Exact Groebner bases for Veronese pullbacks and toric ideals.")
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    parser.add_argument("--out", help="write the report to a file")
    parser.add_argument("--budget", type=_int_option, default=None,
                        help="cap on processed S-pairs (env VERONESE_GB_BUDGET)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gbasis", help="reduced basis of an ideal file")
    p.add_argument("ideal")
    p.add_argument("--order", default="grevlex")
    p.add_argument("--eliminate", action="store_true",
                   help="keep only the back-block elements of a block order")
    p.set_defaults(fn=cmd_gbasis)

    p = sub.add_parser("veronese", help="quadratic kernel basis for (s, d)")
    p.add_argument("--s", type=_int_option, required=True)
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_veronese)

    p = sub.add_parser("pullback", help="basis of the degree-d pullback")
    p.add_argument("ideal")
    p.add_argument("--d", type=_int_option, required=True)
    p.add_argument("--omega", help="comma-separated base weights (default: "
                   "derived from the default order for non-monomial input)")
    p.add_argument("--method", default="constructive", choices=METHODS)
    p.add_argument("--verify", action="store_true",
                   help="check all S-pairs of the returned basis")
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("toric", help="kernel of a configuration's monomial map")
    p.add_argument("config")
    p.add_argument("--veronese", type=_int_option,
                   help="also certify the degree-d layer")
    p.add_argument("--method", choices=METHODS,
                   help="with --veronese (default: constructive)")
    p.set_defaults(fn=cmd_toric)

    p = sub.add_parser("bounds", help="degree bounds for a monomial ideal, "
                       "or for the initial ideal of a homogeneous one")
    p.add_argument("ideal")
    p.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        budget = Budget(spair_cap=args.budget)
        inputs, outputs = args.fn(args, budget)
        emit(make_report(args.command, inputs, outputs, budget, started), args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python's flush at exit would fail on the
        # same pipe, so point stdout at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED
    except VeroneseGBError as exc:
        print(f"error: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except (KeyError, ValueError) as exc:
        # malformed input that no reader names: a missing JSON key or a file
        # that is not UTF-8 (read_int names every number it refuses)
        print(f"error: {exc}", file=sys.stderr)
        return VeroneseGBError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
