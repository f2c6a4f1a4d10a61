"""Command-line front end: evaluate and check `.pd` files, run the theorem suite.

Commands
    parse FILE...            syntax-check files, print a summary
    eval FILE                typecheck + contract diagrams, print Choi/scalar
    check FILE               run the file's `check` directives
    theorems                 run the seeded theorem suite
    quotient FILE            evaluate and print canonical (scale-quotient) forms

Exit codes: 0 success / all checks pass, 1 typecheck violations or failing
checks, 2 parse or semantic errors or a malformed flag, 3 unknown check
property. The environment variable PROCTHEORY_TOL_EQ overrides the default
equality tolerance; everything else is flag-configured.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import diagram as dlang
from . import groups, suite, theories
from .numerics import DEFAULT_TOL, max_abs
from .processes import LAWS, as_scalar, obeys
from .theories import THEORIES, membership, normalization_scalar, theory_by_name

EXIT_OK = 0
EXIT_TYPECHECK = 1
EXIT_PARSE = 2
EXIT_UNKNOWN_PROP = 3


def _fmt_complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _print_process(name, pt, tol):
    if pt.input.is_trivial() and pt.output.is_trivial():
        print(f"{name}: scalar {as_scalar(pt, tol).value!r}")
        return
    print(f"{name}: process {pt.input} -> {pt.output} choi {pt.choi.shape[0]}x{pt.choi.shape[1]}")
    for row in pt.choi:
        print(" ".join(_fmt_complex(z) for z in row))


def _tolerances(args):
    return dataclasses.replace(DEFAULT_TOL, zero_abs=args.tol_zero, eq_rel=args.tol_eq)


def _load(path):
    try:
        return dlang.parse_file(path), None
    except (dlang.ParseError, OSError) as exc:
        return None, str(exc) if isinstance(exc, dlang.ParseError) else f"{path}: {exc.strerror or exc}"


def _load_env(args):
    """``(parsed, env, tol)`` for ``args.file``, or None after a parse diagnostic."""
    parsed, err = _load(args.file)
    if err is not None:
        print(err, file=sys.stderr)
        return None
    tol = _tolerances(args)
    return parsed, dlang.build_env(parsed, tol), tol


def cmd_parse(args):
    code = EXIT_OK
    for path in args.files:
        parsed, err = _load(path)
        if err is not None:
            print(err, file=sys.stderr)
            code = EXIT_PARSE
            continue
        print(
            f"{path}: systems={len(parsed.systems)} boxes={len(parsed.boxes)} "
            f"diagrams={len(parsed.diagrams)} checks={len(parsed.checks)}"
        )
        for name, d in parsed.diagrams.items():
            print(f"  diagram {name}: nodes={len(d.nodes)} wires={len(d.wires)}")
    return code


def _compile(parsed, env, name, theory, args, memo, side=None):
    """Diagram ``name`` evaluated, or None after printing its typecheck violations under ``theory``.

    A covariant theory's wires must join equal orientations. With ``side``, the value is the
    diagram closed on that side, as ``dlang.evaluate_closed`` gives it. ``memo`` keeps each
    diagram's violations per ``(compact, covariant)`` pair and its value, so calls sharing it
    typecheck a diagram once per pair and evaluate it once. Wiring finite processes can
    overflow; a value that is not finite raises a SemanticError at the diagram keyword."""
    key, diagram = (name, theory.compact, theory.covariant), parsed.diagrams[name]
    if key not in memo:
        memo[key] = dlang.typecheck(diagram, compact=theory.compact, strict_orientation=theory.covariant)
    for v in memo[key]:
        print(v.format(args.file), file=sys.stderr)
    if memo[key]:
        return None
    if name not in memo:
        value = dlang.evaluate(diagram, env) if side is None else dlang.evaluate_closed(diagram, side, env)
        if not math.isfinite(max_abs(value.choi if side is None else value[0])):
            raise dlang.SemanticError(args.file, diagram.line, diagram.col, f"diagram {name!r} overflows")
        memo[name] = value
    return memo[name]


def _targets(args, parsed):
    """Diagrams named by ``--diagram`` (all when absent), or None after a diagnostic."""
    if not args.diagram:
        return list(parsed.diagrams)
    if args.diagram not in parsed.diagrams:
        print(f"{args.file}: no diagram named {args.diagram!r}", file=sys.stderr)
        return None
    return [args.diagram]


def _each_diagram(args, theory, show):
    """The exit code of ``eval`` or ``quotient``: each target diagram typechecked under
    ``theory`` and evaluated, and its value passed to ``show(name, f, tol)``."""
    loaded = _load_env(args)
    targets = loaded and _targets(args, loaded[0])
    if targets is None:
        return EXIT_PARSE
    parsed, env, tol = loaded
    ok = True
    for name in targets:
        f = _compile(parsed, env, name, theory, args, {})
        if f is not None:
            show(name, f, tol)
        ok = ok and f is not None
    return EXIT_OK if ok else EXIT_TYPECHECK


def cmd_eval(args):
    return _each_diagram(args, theory_by_name(args.theory), _print_process)


CHECK_PROPS = (*LAWS, "member", "intertwiner", "nosignalling")


def _judge(prop, theory, f, rep_in, rep_out, tol):
    """``(passed, detail)`` for one check directive on ``f``, or ``(None, diagnostic)``."""
    if prop in LAWS:  # ``f`` is a process or a diagram's (closed value, closed dimension)
        return obeys(prop, f, tol), ""
    if prop == "nosignalling":
        verdict = groups.no_signalling(f, tol=tol)
        return verdict.ok, "" if verdict.ok else f" (signalling: {', '.join(verdict.failed_directions())})"
    if prop == "member" and not theory.covariant:  # rep files bear only on covariant theories
        rep_in = rep_out = None
    if (rep_in is None) != (rep_out is None) or (prop == "intertwiner" and rep_in is None):
        return None, "supply --rep-in and --rep-out files"
    try:
        if rep_in:  # the loaded representations, moved onto f's input and output
            rep_in = groups.Representation(rep_in.group, f.input, rep_in.action)
            rep_out = groups.Representation(rep_out.group, f.output, rep_out.action)
        if prop == "intertwiner":
            return groups.is_intertwiner(f, rep_in, rep_out, tol), ""
        verdict = membership(theory, f, tol, rep_in, rep_out)
    except ValueError as exc:  # the rep files do not fit f, or represent different groups
        return None, str(exc)
    return verdict.ok, "" if verdict.ok else f" ({verdict})"


def cmd_check(args):
    loaded = _load_env(args)
    if loaded is None:
        return EXIT_PARSE
    parsed, env, tol = loaded
    reps = []
    for path in (args.rep_in, args.rep_out):
        try:
            reps.append(groups.load_representation(path) if path else None)
        except (OSError, ValueError) as exc:
            print(f"{path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return EXIT_PARSE

    sides = {}  # diagram -> the side closing it when all its directives are laws on that side
    for directive in parsed.checks:
        side = LAWS[directive.prop][0] if directive.prop in LAWS else None
        sides[directive.target] = side if sides.get(directive.target, side) == side else None
    all_pass, memo = True, {}
    for directive in parsed.checks:
        label = f"check {directive.prop} {directive.target} in {directive.theory}"
        if directive.prop not in CHECK_PROPS:
            print(f"{label}: unknown property {directive.prop!r}", file=sys.stderr)
            return EXIT_UNKNOWN_PROP
        try:
            theory = theory_by_name(directive.theory)
        except KeyError as exc:
            print(f"{label}: {exc.args[0]}", file=sys.stderr)
            return EXIT_PARSE
        f = (_compile(parsed, env, directive.target, theory, args, memo, sides[directive.target])
             if directive.target in parsed.diagrams else env[directive.target])
        if f is None:
            all_pass = False
            continue
        good, detail = _judge(directive.prop, theory, f, *reps, tol)
        if good is None:
            print(f"{label}: {detail}", file=sys.stderr)
            return EXIT_PARSE
        print(f"{label}: {'pass' if good else 'fail'}{detail}")
        all_pass = all_pass and good
    return EXIT_OK if all_pass else EXIT_TYPECHECK


def cmd_theorems(args):
    tol = _tolerances(args)
    reports = suite.run_all(seed=args.seed, dims=tuple(args.dims), trials=args.trials, tol=tol)
    for r in reports:
        print(suite.format_report(r))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_TYPECHECK


def _print_quotient(name, f, tol):
    n = normalization_scalar(f).value
    cls = theories.canonical_rep(f, tol)
    print(f"{name}: N={n!r} zero={cls.is_zero_class(tol)}")
    _print_process(f"{name} canonical", cls.canonical, tol)


def cmd_quotient(args):
    return _each_diagram(args, theories.QCALC, _print_quotient)


def _at_least(low, convert):
    """argparse type: ``convert(text)``, rejected unless it is ``>= low`` (NaN never is)."""
    def parse(text):
        try:
            value = convert(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {convert.__name__} >= {low}, got {text!r}")
    return parse


def _add_tol_flags(p):
    p.add_argument("--tol-zero", type=_at_least(0.0, float), default=DEFAULT_TOL.zero_abs,
                   help="absolute zero threshold")
    # argparse passes a string default (the environment variable) through ``type`` too
    p.add_argument("--tol-eq", type=_at_least(0.0, float),
                   default=os.environ.get("PROCTHEORY_TOL_EQ", DEFAULT_TOL.eq_rel),
                   help="relative equality tolerance (default from PROCTHEORY_TOL_EQ or 1e-9)")


def build_parser():
    parser = argparse.ArgumentParser(prog="proctheory",
                                     description="process-theory diagram evaluator and checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="syntax-check .pd files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="typecheck and evaluate diagrams")
    p.add_argument("file")
    p.add_argument("--theory", default="qcalc", type=str.lower, choices=sorted(THEORIES),
                   help="theory fixing the wiring capabilities")
    p.add_argument("--diagram", default=None, help="evaluate a single named diagram")
    _add_tol_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run a file's check directives")
    p.add_argument("file")
    p.add_argument("--rep-in", default=None, help="representation file for intertwiner checks (input)")
    p.add_argument("--rep-out", default=None, help="representation file for intertwiner checks (output)")
    _add_tol_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("theorems", help="run the seeded theorem suite")
    p.add_argument("--seed", type=_at_least(0, int), default=42)
    p.add_argument("--dims", type=_at_least(1, int), nargs="+", default=[2, 3])
    p.add_argument("--trials", type=_at_least(1, int), default=100)
    _add_tol_flags(p)
    p.set_defaults(fn=cmd_theorems)

    p = sub.add_parser("quotient", help="evaluate diagrams and print canonical class forms")
    p.add_argument("file")
    p.add_argument("--diagram", default=None)
    _add_tol_flags(p)
    p.set_defaults(fn=cmd_quotient)

    return parser


@functools.lru_cache(maxsize=1)
def _parser_for(tol_eq_env):
    """``build_parser()``, reused by later ``main`` calls while PROCTHEORY_TOL_EQ, the one
    input it reads, stays ``tol_eq_env``."""
    return build_parser()


def main(argv=None):
    args = _parser_for(os.environ.get("PROCTHEORY_TOL_EQ")).parse_args(argv)
    try:
        return args.fn(args)
    except dlang.SemanticError as exc:  # a box that does not build, or a diagram that overflows
        print(exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
