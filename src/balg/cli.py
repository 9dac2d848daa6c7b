"""Command line interface.

Subcommands:

* ``balg verify --config PATH [--report PATH] [--format json|text] [--seed N]``
  runs the configured suites; exit 0 when all pass, 1 on any failure
  (a suite that raises is one), 2 on configuration errors.
* ``balg eval --algebra SPEC --expr EXPR`` evaluates an element expression
  and prints the canonical form.
* ``balg certify --target evens|diagonal [--start EXPR] [--steps K]`` builds
  an incompleteness certificate (or reports that the start fails the
  upper-bound test) and revalidates it.

Algebra SPEC forms: ``P(3)`` or ``powerset:3``, ``finite_cofinite`` or
``fincof``, ``trivial``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .algebra import Algebra, AlgebraError, finite_cofinite, powerset, trivial_algebra
from .certificates import (Certificate, DIAGONAL_FAMILY, EVENS_FAMILY,
                           NotUpperBound, no_supremum_certificate)
from .config import ConfigError, parse_config
from .expr import ExprError, element_text, parse_element, serialize_value
from .free_product import FreeProduct
from .suites import Report, run_suites
from .validation import validate_certificate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def parse_algebra_spec(spec: str) -> Algebra:
    text = spec.strip()
    lowered = text.lower()
    if lowered in ("finite_cofinite", "fincof"):
        return finite_cofinite()
    if lowered == "trivial":
        return trivial_algebra()
    if lowered.startswith("p(") and lowered.endswith(")"):
        body = lowered[2:-1]
    elif lowered.startswith("powerset:"):
        body = lowered.split(":", 1)[1]
    else:
        raise AlgebraError(f"unknown algebra spec {spec!r}; "
                           "use P(n), powerset:n, finite_cofinite, or trivial")
    try:
        if body.isascii() and body.isdigit():  # int() also takes "+3", "1_6", non-ASCII
            return powerset(int(body))
    except ValueError:  # past the interpreter's limit on digit strings
        pass
    raise AlgebraError(f"bad atom count in {spec!r}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _render_text(report: Report) -> str:
    lines = []
    for s in report.suites:
        lines.append(f"{s.verdict.upper():4}  {s.name}  ({s.seconds:.3f}s)")
        for law, c in s.laws.items():
            lines.append(f"      {law}: runs {c['runs']}, skipped {c['skipped']}, "
                         f"failed {c['failed']}")
        for w in s.witnesses:
            lines.append(f"      {json.dumps(w, sort_keys=True)}")
    lines.append("RESULT: " + ("pass" if report.all_pass else "fail"))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = parse_config(json.dumps({**json.loads(text), "seed": args.seed}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # open the report before any suite runs, so a bad path costs no run
    try:
        sink = open(args.report, "w", encoding="utf-8") if args.report else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with sink as out:
        report = run_suites(cfg)
        if args.format == "text":
            out.write(_render_text(report))
        else:
            out.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return EXIT_PASS if report.all_pass else EXIT_FAIL


def cmd_eval(args) -> int:
    try:
        alg = parse_algebra_spec(args.algebra)
        value = parse_element(alg, args.expr)
    except (AlgebraError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(element_text(value))
    return EXIT_PASS


def cmd_certify(args) -> int:
    fc = finite_cofinite()
    if args.target == "evens":
        family = EVENS_FAMILY
        backend = fc
    else:
        family = DIAGONAL_FAMILY
        backend = FreeProduct(fc, fc)
    try:
        start = parse_element(backend, args.start) if args.start else backend.one
    except (AlgebraError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outcome = no_supremum_certificate(family, start, steps=args.steps)
    if isinstance(outcome, NotUpperBound):
        print(json.dumps({"verdict": "not_upper_bound", "family": family,
                          "witness": serialize_value(outcome.witness)},
                         sort_keys=True, indent=2))
        return EXIT_PASS
    assert isinstance(outcome, Certificate)
    payload = outcome.to_dict()
    check = validate_certificate(payload)
    payload["revalidated"] = check.ok
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_PASS if check.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balg",
                                     description="Boolean algebra verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run configured suites")
    p.add_argument("--config", required=True, help="path to a JSON configuration")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate an element expression")
    p.add_argument("--algebra", required=True,
                   help="P(n), powerset:n, finite_cofinite, or trivial")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("certify", help="build an incompleteness certificate")
    p.add_argument("--target", choices=("evens", "diagonal"), required=True)
    p.add_argument("--start", help="starting upper bound (default: the unit)")
    p.add_argument("--steps", type=positive_int, default=3)
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
