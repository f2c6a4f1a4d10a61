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
import os
import sys

from . import diagram as dlang
from . import groups, suite, theories
from .numerics import DEFAULT_TOL
from .processes import as_scalar, is_causal, preserves_identity, preserves_max_mixed
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
    """``(parsed, env, tol)`` for ``args.file``, or None after a parse or semantic diagnostic."""
    parsed, err = _load(args.file)
    if err is None:
        tol = _tolerances(args)
        try:
            return parsed, dlang.build_env(parsed, tol), tol
        except dlang.SemanticError as exc:
            err = exc
    print(err, file=sys.stderr)
    return None


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


def _compile(parsed, env, name, theory, args, memo):
    """Diagram ``name`` evaluated, or None after printing its typecheck violations under ``theory``.

    ``memo`` keeps each diagram's violations per wiring capability and its process, so calls
    sharing it typecheck and evaluate a diagram once."""
    key = (name, theory.compact)
    if key not in memo:
        memo[key] = dlang.typecheck(parsed.diagrams[name], compact=theory.compact,
                                    strict_orientation=args.strict_orientation)
    for v in memo[key]:
        print(v.format(args.file), file=sys.stderr)
    if memo[key]:
        return None
    if name not in memo:
        memo[name] = dlang.evaluate(parsed.diagrams[name], env)
    return memo[name]


def _targets(args, parsed):
    """Diagrams named by ``--diagram`` (all when absent), or None after a diagnostic."""
    if not args.diagram:
        return list(parsed.diagrams)
    if args.diagram not in parsed.diagrams:
        print(f"{args.file}: no diagram named {args.diagram!r}", file=sys.stderr)
        return None
    return [args.diagram]


def cmd_eval(args):
    loaded = _load_env(args)
    if loaded is None:
        return EXIT_PARSE
    parsed, env, tol = loaded
    theory = theory_by_name(args.theory)
    targets = _targets(args, parsed)
    if targets is None:
        return EXIT_PARSE
    ok = True
    for name in targets:
        f = _compile(parsed, env, name, theory, args, {})
        if f is None:
            ok = False
            continue
        _print_process(name, f, tol)
    return EXIT_OK if ok else EXIT_TYPECHECK


# directives may also name qpart (particles/antiparticles): it wires like qcalc
_QPART = theories.Theory("qpart", compact=True)
_DIRECTIVE_THEORIES = {**THEORIES, _QPART.name: _QPART}
_LAWS = {"causal": is_causal, "retrocausal": preserves_identity, "unital": preserves_max_mixed}
CHECK_PROPS = (*_LAWS, "member", "intertwiner", "nosignalling")


def _judge(prop, theory, f, rep_in, rep_out, tol):
    """``(passed, detail)`` for one check directive on ``f``, or ``(None, diagnostic)``."""
    if prop in _LAWS:
        return _LAWS[prop](f, tol), ""
    if prop == "nosignalling":
        verdict = groups.no_signalling(f, tol=tol)
        return verdict.ok, "" if verdict.ok else f" (signalling: {', '.join(verdict.failed_directions())})"
    if prop == "member" and theory is not _QPART:
        verdict = membership(theory, f, tol)
        return verdict.ok, "" if verdict.ok else f" ({verdict})"
    ri = ro = None  # the loaded representations, moved onto f's input and output
    if rep_in and rep_out:
        try:
            ri = groups.Representation(rep_in.group, f.input, rep_in.action)
            ro = groups.Representation(rep_out.group, f.output, rep_out.action)
        except ValueError as exc:
            return None, str(exc)
    if prop == "intertwiner":
        if ri is None:
            return None, "supply --rep-in and --rep-out files"
        return groups.is_intertwiner(f, ri, ro, tol), ""
    verdict = groups.qpart_membership(f, ri, ro, tol=tol)
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

    all_pass, memo = True, {}
    for directive in parsed.checks:
        label = f"check {directive.prop} {directive.target} in {directive.theory}"
        if directive.prop not in CHECK_PROPS:
            print(f"{label}: unknown property {directive.prop!r}", file=sys.stderr)
            return EXIT_UNKNOWN_PROP
        theory = _DIRECTIVE_THEORIES.get(directive.theory.lower())
        if theory is None:
            print(f"{label}: unknown theory {directive.theory!r}; "
                  f"expected one of {sorted(_DIRECTIVE_THEORIES)}", file=sys.stderr)
            return EXIT_PARSE
        f = (_compile(parsed, env, directive.target, theory, args, memo)
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


def cmd_quotient(args):
    loaded = _load_env(args)
    if loaded is None:
        return EXIT_PARSE
    parsed, env, tol = loaded
    theory = theories.QCALC
    targets = _targets(args, parsed)
    if targets is None:
        return EXIT_PARSE
    ok = True
    for name in targets:
        f = _compile(parsed, env, name, theory, args, {})
        if f is None:
            ok = False
            continue
        n = normalization_scalar(f).value
        cls = theories.canonical_rep(f, tol)
        print(f"{name}: N={n!r} zero={cls.is_zero_class(tol)}")
        _print_process(f"{name} canonical", cls.canonical, tol)
    return EXIT_OK if ok else EXIT_TYPECHECK


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


def _add_strict_flag(p):
    p.add_argument("--strict-orientation", action="store_true",
                   help="require wire orientations to match exactly")


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
    _add_strict_flag(p)
    _add_tol_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run a file's check directives")
    p.add_argument("file")
    p.add_argument("--rep-in", default=None, help="representation file for intertwiner checks (input)")
    p.add_argument("--rep-out", default=None, help="representation file for intertwiner checks (output)")
    _add_strict_flag(p)
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
    _add_strict_flag(p)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
