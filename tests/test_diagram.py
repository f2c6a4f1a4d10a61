import itertools
import re
from math import prod
from pathlib import Path
from typing import NamedTuple

import gen
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctheory import diagram as D
from proctheory import groups as G
from proctheory import higher_order as HO
from proctheory import processes as P
from proctheory.numerics import Tolerances, factors_in_order, partial_trace
from proctheory.systems import C, Q, SystemType

GOOD = Path(__file__).parent / "data" / "pd" / "good"
BAD = Path(__file__).parent / "data" / "pd" / "bad"


def test_parse_minimal_file():
    pf = D.parse(
        "system q = Q(2)\nbox d : q -> = discard\n"
        "diagram D { node n: d  wire bound.in[0] -> n.in[0] }"
    )
    dg = pf.diagrams["D"]
    assert len(dg.nodes) == 1 and len(dg.wires) == 1
    assert pf.boxes["d"].generator == "discard"


def test_parse_closed_loop_has_empty_boundary():
    pf = D.parse_file(GOOD / "loop_qubit.pd")
    dg = pf.diagrams["Loop"]
    boundary = [p for w in dg.wires for p in (w.a, w.b) if p.is_boundary()]
    assert boundary == []
    res = D.evaluate(dg, D.build_env(pf))
    assert res.input.is_trivial() and res.output.is_trivial()


def test_output_output_wire_parses_but_fails_acyclic_typecheck():
    pf = D.parse(
        "system q = Q(2)\nbox s : -> q = noise\n"
        "diagram OO { node a: s  node b: s  wire a.out[0] -> b.out[0] }"
    )
    dg = pf.diagrams["OO"]
    assert D.typecheck(dg, compact=True) == []
    rules = [v.rule for v in D.typecheck(dg, compact=False)]
    assert rules == ["i"]


def test_input_input_wire_needs_cups():
    pf = D.parse(
        "system q = Q(2)\nbox d : q -> = discard\n"
        "diagram II { node a: d  node b: d  wire a.in[0] -> b.in[0] }"
    )
    rules = [v.rule for v in D.typecheck(pf.diagrams["II"], compact=False)]
    assert rules == ["i"]
    assert D.typecheck(pf.diagrams["II"], compact=True) == []


def test_cycle_allowed_only_with_compact_wiring():
    pf = D.parse_file(BAD / "bad_rule_ii.pd")
    dg = pf.diagrams["Cycle"]
    assert D.typecheck(dg, compact=True) == []
    assert "ii" in [v.rule for v in D.typecheck(dg, compact=False)]
    # a cycle through cup and cap evaluates to the doubled loop value
    val = P.as_scalar(D.evaluate(dg, D.build_env(pf)))
    assert val.value == pytest.approx(4.0)


def test_dimension_mismatch_is_rule_iii():
    pf = D.parse_file(BAD / "bad_rule_iii.pd")
    rules = [v.rule for v in D.typecheck(pf.diagrams["Mismatch"], compact=True)]
    assert rules == ["iii"]


def test_bound_to_bound_wire_rejected():
    pf = D.parse("diagram P { wire bound.in[0] -> bound.out[0] }")
    rules = [v.rule for v in D.typecheck(pf.diagrams["P"], compact=True)]
    assert "iii" in rules


def test_strict_orientation():
    pf = D.parse(
        "system q = Q(2)\nbox u : -> q * dual(q) = cup\nbox d : q -> = discard\n"
        "diagram S { node c: u  node t: d  node t2: d\n"
        "  wire c.out[0] -> t.in[0]  wire c.out[1] -> t2.in[0] }"
    )
    dg = pf.diagrams["S"]
    assert D.typecheck(dg, compact=True) == []  # carrier match suffices by default
    strict = D.typecheck(dg, compact=True, strict_orientation=True)
    assert [v.rule for v in strict] == ["iii"]  # dual leg into an up-oriented port


def test_duplicate_and_undefined_are_parse_errors():
    with pytest.raises(D.ParseError, match="duplicate identifier"):
        D.parse_file(BAD / "bad_duplicate.pd")
    with pytest.raises(D.ParseError, match="undefined box reference"):
        D.parse_file(BAD / "bad_undefined.pd")
    with pytest.raises(D.ParseError, match="unexpected character"):
        D.parse_file(BAD / "bad_token.pd")


def test_diagnostic_positions():
    try:
        D.parse_file(BAD / "bad_token.pd")
    except D.ParseError as exc:
        assert (exc.line, exc.col) == (2, 16)
        assert str(BAD / "bad_token.pd") in str(exc)


def test_complex_literals():
    pf = D.parse("system q = Q(2)\nbox s : -> q = choi [0.5, 0.5i, -0.5i, 0.5]")
    env = D.build_env(pf)
    assert np.allclose(env["s"].choi, np.array([[0.5, 0.5j], [-0.5j, 0.5]]))


def test_bad_choi_literal_is_semantic_error():
    pf = D.parse("system q = Q(2)\nbox s : -> q = choi [1, 0, 0]")
    with pytest.raises(D.SemanticError, match="entries"):
        D.build_env(pf)
    pf2 = D.parse("system q = Q(2)\nbox s : -> q = choi [1, 0, 0, -1]")
    with pytest.raises(D.SemanticError, match="invalid choi literal"):
        D.build_env(pf2)


def test_generators_build_under_a_strict_tolerance():
    # psd_rel=0 admits no rounding, yet the generators are exact: only the
    # choi literal is data that the tolerance judges
    pf = D.parse("system q = Q(3)\nbox i : q -> q = id\nbox u : -> q * dual(q) = cup\n"
                 "box e : q * dual(q) -> = cap\nbox s : q * q -> q * q = swap")
    env = D.build_env(pf, Tolerances(psd_rel=0))
    assert sorted(env) == ["e", "i", "s", "u"]
    for name, f in D.build_env(pf).items():
        assert np.array_equal(env[name].choi, f.choi)


@pytest.mark.parametrize("decl", [
    "discard : dual(q) ->", "maxmix : -> dual(q)", "noise : -> dual(q)", "id : q -> dual(q)",
    "id : q * dual(q) -> dual(q) * q", "cup : -> dual(q) * q", "cap : dual(q) * q ->",
    "swap : q * dual(q) -> dual(q) * q",
])
def test_generators_keep_their_declared_orientations(decl):
    # a dual factor marks a retrocausal wire: every generator box carries its declared types exactly
    generator, signature = decl.split(" : ")
    pf = D.parse(f"system q = Q(2)\nbox b : {signature} = {generator}")
    f, declared = D.build_env(pf)["b"], pf.boxes["b"]
    assert (f.input, f.output) == (declared.s_in, declared.s_out)


def reference_generator(g, s_in, s_out):
    """The per-generator checks that box elaboration ran before one typing rule
    replaced them, kept as its oracle: the process that the ``processes``
    generator named ``g`` builds for these wires, or None where they reject it."""
    if g == "discard":
        return P.discard(s_in) if s_out.is_trivial() else None
    if g in ("maxmix", "noise"):
        return (P.max_mixed if g == "maxmix" else P.noise_state)(s_out) if s_in.is_trivial() else None
    if g == "id":
        return P.identity(s_in) if s_in.same_carrier(s_out) else None
    if g in ("cup", "cap"):
        s, other = (s_out, s_in) if g == "cup" else (s_in, s_out)
        m = len(s.factors)
        half, second = SystemType(s.factors[: m // 2]), SystemType(s.factors[m // 2 :])
        if not other.is_trivial() or m % 2 or not half.same_carrier(second):
            return None
        return P.cup(half) if g == "cup" else P.cap(half)
    f = s_in.factors
    splits = [k for k in range(1, len(f)) if SystemType(f[k:] + f[:k]).same_carrier(s_out)]
    return P.swap(SystemType(f[: splits[0]]), SystemType(f[splits[0] :])) if splits else None


def test_generator_typing_matches_reference_on_every_small_declaration():
    # every generator declaration with 0-3 factors a side
    sides = [" * ".join(c) for n in range(4) for c in itertools.product(("Q(2)", "C(2)", "dual(Q(2))"), repeat=n)]
    decls = [(g, a, b) for g in D.GENERATORS for a in sides for b in sides]
    pf = D.parse("".join(f"box b{k} : {a} -> {b} = {g}\n" for k, (g, a, b) in enumerate(decls)))
    accepted = 0
    for line, decl in enumerate(pf.boxes.values(), 1):
        g, s_in, s_out = decl.generator, decl.s_in, decl.s_out
        want = reference_generator(g, s_in, s_out)
        try:
            f = D.build_env(D.ParsedFile("gen.pd", boxes={decl.name: decl}))[decl.name]
        except D.SemanticError as exc:
            assert want is None and (exc.line, exc.col) == (line, 5), (decl, exc)
            if g == "swap":
                assert exc.message == f"swap output {s_out} is not a rotation of input {s_in}"
                continue
            # the diagnostic names a type that the generator has
            typed, declared = exc.message.removeprefix(f"{g} here is ").split(", not ")
            assert declared == f"{s_in} -> {s_out}"
            t_in, t_out = (D.parse(f"system t = {t}").systems["t"] if t != "I" else SystemType()
                           for t in typed.split(" -> "))
            assert reference_generator(g, t_in, t_out) is not None, exc.message
            continue
        assert want is not None, decl
        accepted += 1
        assert (f.input, f.output) == (s_in, s_out)
        assert f.choi.dtype == want.choi.dtype and f.choi.tobytes() == want.choi.tobytes()
    assert (len(pf.boxes), accepted) == (11200, 498)


# ---------------------------------------------------------------------------
# Planning


def chain_source(n_boxes, cycle=False):
    """Identities in series on Q(2), open at both ends or closed into a cycle."""
    lines = ["system q = Q(2)", "box w : q -> q = id", "diagram Chain {"]
    lines += [f"  node n{i}: w" for i in range(n_boxes)]
    lines += [f"  wire n{i}.out[0] -> n{i + 1}.in[0]" for i in range(n_boxes - 1)]
    if cycle:
        lines += [f"  wire n{n_boxes - 1}.out[0] -> n0.in[0]"]
    else:
        lines += ["  wire bound.in[0] -> n0.in[0]", f"  wire n{n_boxes - 1}.out[0] -> bound.out[0]"]
    return "\n".join(lines + ["}"])


def chain_diagram(n_boxes, cycle=False):
    return D.parse(chain_source(n_boxes, cycle))


def parsed(case):
    """The diagram of a ``gen.Case``."""
    return D.parse(case.text).diagrams[case.diagram]


def test_chain_plan_has_pairwise_steps():
    pf = chain_diagram(3)
    plan = D.plan(pf.diagrams["Chain"])
    assert len(plan.steps) == 2


def test_single_node_plan_empty():
    pf = D.parse("system q = Q(2)\nbox s : -> q = maxmix\ndiagram One { node n: s  wire n.out[0] -> bound.out[0] }")
    assert D.plan(pf.diagrams["One"]).steps == []


DIAMOND = """
system q = Q(2)
box src : -> q * q = choi [1, 0, 0, 1,  0, 0, 0, 0,  0, 0, 0, 0,  1, 0, 0, 1]
box w : q -> q = id
box snk : q * q -> = cap
diagram Diamond {
  node a: src
  node b: w
  node c: w
  node d: snk
  wire a.out[0] -> b.in[0]
  wire a.out[1] -> c.in[0]
  wire b.out[0] -> d.in[0]
  wire c.out[0] -> d.in[1]
}
"""


def port_factor(diagram, port):
    """Wire factor at a node port; None for boundary ports and out of range."""
    if port.is_boundary():
        return None
    node = diagram.nodes[port.node]
    s = node.s_in if port.side == "in" else node.s_out
    if port.index < 0 or port.index >= len(s.factors):
        return None
    return s.factors[port.index]


def reference_wire_dims(diagram):
    """Per wire, the dim of the factor at either end (a first), or 1 where neither has one."""
    dims = {}
    for w in diagram.wires:
        f = port_factor(diagram, w.a) or port_factor(diagram, w.b)
        dims[w] = f.dim if f is not None else 1
    return dims


def _open_dim(members, diagram, dims):
    """Product of dims of wires crossing the component boundary (boundary wires included)."""
    d = 1
    for w in diagram.wires:
        a_in = (not w.a.is_boundary()) and w.a.node in members
        b_in = (not w.b.is_boundary()) and w.b.node in members
        if a_in != b_in:
            d *= dims[w]
    return d


def reference_plan(diagram, order=None):
    """The rescanning greedy planner that ``D.plan`` replaced, kept as its oracle.

    Every step rescans every wire for every candidate pair; the incremental
    planner must reproduce its steps exactly, tie-break included.
    """
    names = diagram.node_order()
    if len(names) < 2:
        return D.ContractionPlan([])
    dims = reference_wire_dims(diagram)
    comps = {i: {names[i]} for i in range(len(names))}

    def connected(i, j):
        for w in diagram.wires:
            if w.a.is_boundary() or w.b.is_boundary():
                continue
            ends = {w.a.node, w.b.node}
            if ends & comps[i] and ends & comps[j]:
                return True
        return False

    steps = []
    forced = list(order) if order is not None else None
    while len(comps) > 1:
        if forced:
            i, j = forced.pop(0)
            if i not in comps or j not in comps:
                raise ValueError(f"invalid forced merge ({i}, {j}); live components: {sorted(comps)}")
            best = (min(i, j), max(i, j))
            cost = _open_dim(comps[best[0]] | comps[best[1]], diagram, dims)
        else:
            reps = sorted(comps)
            pairs = [(i, j) for ai, i in enumerate(reps) for j in reps[ai + 1 :] if connected(i, j)]
            if not pairs:  # disconnected remainder: outer products
                pairs = [(reps[0], reps[1])]
            cost, i, j = min((_open_dim(comps[i] | comps[j], diagram, dims), i, j) for i, j in pairs)
            best = (i, j)
        steps.append((best[0], best[1], cost))
        comps[best[0]] = comps[best[0]] | comps[best[1]]
        del comps[best[1]]
    return D.ContractionPlan(steps)


def random_order(diagram, rng):
    """The merge order ``D.random_plan`` draws from ``rng``."""
    live = list(range(len(diagram.nodes)))
    order = []
    while len(live) > 1:
        i, j = sorted(rng.choice(len(live), size=2, replace=False))
        a, b = live[i], live[j]
        order.append((a, b))
        live.remove(max(a, b))
    return order


def enumerate_orders(diagram):
    """All merge orders with their worst intermediate dimension (brute force)."""
    names = diagram.node_order()
    dims = reference_wire_dims(diagram)

    def rec(comps):
        if len(comps) == 1:
            yield 1, []
            return
        reps = sorted(comps)
        for i_pos, i in enumerate(reps):
            for j in reps[i_pos + 1 :]:
                merged = dict(comps)
                merged[i] = comps[i] | comps[j]
                del merged[j]
                cost = _open_dim(merged[i], diagram, dims)
                for worst, steps in rec(merged):
                    yield max(cost, worst), [(i, j)] + steps

    comps = {k: {names[k]} for k in range(len(names))}
    return rec(comps)


def test_diamond_plan_is_optimal():
    pf = D.parse(DIAMOND)
    dg = pf.diagrams["Diamond"]
    plan = D.plan(dg)
    greedy_worst = max(cost for _, _, cost in plan.steps)
    best = min(worst for worst, _ in enumerate_orders(dg))
    worst_possible = max(worst for worst, _ in enumerate_orders(dg))
    assert greedy_worst == best
    assert worst_possible > best  # a bad order would build a bigger intermediate


def plan_corpus():
    """Diagrams on which the planner must reproduce ``reference_plan`` step for step."""
    cases = [(f"{path.name}:{name}", dg) for path in sorted(GOOD.glob("*.pd"))
             for name, dg in D.parse_file(path).diagrams.items()]
    cases += [(f"chain{n}", chain_diagram(n).diagrams["Chain"]) for n in (2, 3, 7, 40)]
    cases += [("cycle12", chain_diagram(12, cycle=True).diagrams["Chain"])]
    cases += [("closed40", parsed(gen.identity_chain("Chain", 40)))]
    cases += [(f"ladder{2 * k}", parsed(gen.snake_ladder("Ladder", k))) for k in (1, 3, 20)]
    rng = np.random.default_rng(0)
    cases += [(f"brick{layers}", parsed(gen.brick_circuit(rng, "Brick", layers=layers))) for layers in (1, 5, 20)]
    cases += [("pairs40", parsed(gen.pair_product(rng, "Pairs", 40)))]
    cases += [("diamond", D.parse(DIAMOND).diagrams["Diamond"])]
    return cases


def test_plan_matches_reference_planner():
    for label, dg in plan_corpus():
        assert D.plan(dg).steps == reference_plan(dg).steps, label


def test_forced_plan_matches_reference_planner():
    for label, dg in plan_corpus():
        for seed in (0, 1, 2):
            order = random_order(dg, np.random.default_rng(seed))
            forced = D.random_plan(dg, np.random.default_rng(seed)).steps
            assert forced == reference_plan(dg, order=order).steps, (label, seed)
            # a forced prefix, finished greedily
            prefix = order[: len(order) // 2]
            assert D.plan(dg, order=prefix).steps == reference_plan(dg, order=prefix).steps, (label, seed)


def test_forced_merge_of_dead_component_raises():
    dg = chain_diagram(4).diagrams["Chain"]
    with pytest.raises(ValueError, match="invalid forced merge"):
        D.plan(dg, order=[(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="invalid forced merge"):
        D.plan(dg, order=[(2, 2)])


def test_long_chains_typecheck_without_recursion_limit():
    assert D.typecheck(chain_diagram(5000).diagrams["Chain"], compact=False) == []
    cycle = D.typecheck(chain_diagram(5000, cycle=True).diagrams["Chain"], compact=False)
    assert [v.rule for v in cycle] == ["ii"]


def is_source(port):
    # A source emits a wire end: node outputs and the diagram's own inputs.
    return (port.side == "out") if not port.is_boundary() else (port.side == "in")


def reference_typecheck(diagram, compact, strict_orientation=False):
    """The Port-keyed type checker that ``D.typecheck`` replaced, kept as its
    oracle. Rule iii's "two boundary ports" needs both ends at ``bound``, so
    an out-of-range node port is reported once, under ``structure``."""
    violations = []
    seen = {}
    for w in diagram.wires:
        for p in (w.a, w.b):
            if not p.is_boundary():
                node = diagram.nodes[p.node]
                s = node.s_in if p.side == "in" else node.s_out
                if p.index < 0 or p.index >= len(s.factors):
                    violations.append(D.Violation(
                        "structure",
                        f"port {p} out of range (box {node.box!r} has "
                        f"{len(s.factors)} {p.side} ports)", w.line, w.col))
            if p in seen:
                violations.append(D.Violation(
                    "structure", f"port {p} used by more than one wire", w.line, w.col))
            seen[p] = w
        if w.a == w.b:
            violations.append(D.Violation("structure", f"wire connects {w.a} to itself", w.line, w.col))

    for node in diagram.nodes.values():
        for side, s in (("in", node.s_in), ("out", node.s_out)):
            for k in range(len(s.factors)):
                if D.Port(node.name, side, k) not in seen:
                    violations.append(D.Violation(
                        "structure", f"port {node.name}.{side}[{k}] is not wired", node.line, node.col))

    for side in ("in", "out"):
        idxs = sorted(p.index for p in seen if p.is_boundary() and p.side == side)
        if idxs != list(range(len(idxs))):
            violations.append(D.Violation(
                "structure", f"boundary {side} ports must be bound.{side}[0..n-1], got {idxs}",
                diagram.line, diagram.col))

    for w in diagram.wires:
        fa, fb = port_factor(diagram, w.a), port_factor(diagram, w.b)
        if w.a.is_boundary() and w.b.is_boundary():
            violations.append(D.Violation(
                "iii", f"wire {w} connects two boundary ports; its type cannot be inferred", w.line, w.col))
        elif fa is not None and fb is not None:
            ok = fa.same_carrier(fb) and (not strict_orientation or fa.orientation == fb.orientation)
            if not ok:
                violations.append(D.Violation(
                    "iii", f"wire {w} connects mismatched systems {fa} and {fb}", w.line, w.col))
        sa, sb = is_source(w.a), is_source(w.b)
        if sa and sb and not compact:
            violations.append(D.Violation(
                "i", f"wire {w} connects two outputs; the theory has no caps", w.line, w.col))
        if not sa and not sb and not compact:
            violations.append(D.Violation(
                "i", f"wire {w} connects two inputs; the theory has no cups", w.line, w.col))

    if not compact:
        order = diagram.node_order()
        adj = {name: set() for name in order}
        for w in diagram.wires:
            if not w.a.is_boundary() and not w.b.is_boundary():
                if is_source(w.a) and not is_source(w.b):
                    adj[w.a.node].add(w.b.node)
                elif is_source(w.b) and not is_source(w.a):
                    adj[w.b.node].add(w.a.node)
        state = {name: 0 for name in order}  # 0 unvisited, 1 on stack, 2 done
        for root in order:
            if state[root]:
                continue
            state[root] = 1
            stack = [(root, iter(sorted(adj[root])))]
            while stack:
                u, successors = stack[-1]
                for v in successors:
                    if state[v] == 1:
                        violations.append(D.Violation(
                            "ii", f"wiring cycle through node {v!r}; the theory is acyclic-only",
                            diagram.nodes[v].line, diagram.nodes[v].col))
                    elif state[v] == 0:
                        state[v] = 1
                        stack.append((v, iter(sorted(adj[v]))))
                        break
                else:
                    state[u] = 2
                    stack.pop()
    return violations


def mutated(diagram, rng, mutations=3):
    """A copy of ``diagram`` with up to ``mutations`` wiring faults: a port out
    of range (at the boundary's far end or not), a reused port, a port wired
    to itself, a boundary-to-boundary wire, two node-to-node wires with their
    sinks swapped (a cycle, on a chain), a dropped wire, or a moved boundary
    index."""
    wires = list(diagram.wires)
    for _ in range(rng.integers(1, mutations + 1)):
        if not wires:
            wires.append(D.Wire(D.Port("bound", "in", 0), D.Port("bound", "out", 0), 9, 1))
            continue
        k = int(rng.integers(len(wires)))
        w = wires[k]
        kind = int(rng.integers(7))
        if kind == 0:
            end = w.a if rng.integers(2) else w.b
            index = int(rng.choice([5, 2**53 + 1, 10**20]))
            moved = D.Port(end.node, end.side, index)
            wires[k] = D.Wire(moved, w.b, w.line, w.col) if end is w.a else D.Wire(w.a, moved, w.line, w.col)
        elif kind == 1:
            other = wires[int(rng.integers(len(wires)))]
            wires.insert(int(rng.integers(len(wires) + 1)), D.Wire(w.b if rng.integers(2) else w.a, other.b, 7, 3))
        elif kind == 2:
            wires[k] = D.Wire(w.a, w.a, w.line, w.col)
        elif kind == 3:
            wires.append(D.Wire(D.Port("bound", "in", len(wires)), D.Port("bound", "out", 0), 8, 2))
        elif kind == 4:
            inner = [j for j, v in enumerate(wires) if not v.a.is_boundary() and not v.b.is_boundary()]
            if len(inner) >= 2:
                i, j = rng.choice(inner, size=2, replace=False)
                wi, wj = wires[i], wires[j]
                wires[i], wires[j] = D.Wire(wi.a, wj.b, wi.line, wi.col), D.Wire(wj.a, wi.b, wj.line, wj.col)
        elif kind == 5:
            del wires[k]
        else:
            bound = D.Port("bound", "out" if rng.integers(2) else "in", int(rng.integers(4)))
            wires[k] = D.Wire(w.a, bound, w.line, w.col)
    return D.Diagram(diagram.name, diagram.nodes, wires, diagram.line, diagram.col)


# A cycle y -> x -> y entered from r, whose successors' name order (x, y) is
# not their node order (y, x): the order of the search decides the node reported.
FORK = """system q = Q(2)
box f : q * q -> q * q = swap
box s : -> q * q = cup
diagram Fork {
  node r : s
  node y : f
  node x : f
  wire r.out[0] -> y.in[0]
  wire r.out[1] -> x.in[0]
  wire y.out[0] -> x.in[1]
  wire x.out[0] -> y.in[1]
  wire y.out[1] -> bound.out[0]
  wire x.out[1] -> bound.out[1]
}"""


# bad_rule_ii.pd's two-node cycle with each wire written input port first
CYCLE_INPUT_FIRST = (BAD / "bad_rule_ii.pd").read_text().replace(
    "a.out[0] -> b.in[0]", "b.in[0] -> a.out[0]").replace("b.out[0] -> a.in[0]", "a.in[0] -> b.out[0]")


def typecheck_corpus():
    """``plan_corpus()``, FORK, the diagrams of the bad files that parse and CYCLE_INPUT_FIRST."""
    paths = [BAD / f"bad_{name}.pd" for name in ("port_reuse", "rule_i", "rule_ii", "rule_iii")]
    return plan_corpus() + [("fork", D.parse(FORK).diagrams["Fork"])] + [
        (f"{path.name}:{name}", dg) for path in paths for name, dg in D.parse_file(path).diagrams.items()] + [
        ("cycle input first", D.parse(CYCLE_INPUT_FIRST).diagrams["Cycle"])]


MODES = [(compact, strict) for compact in (False, True) for strict in (False, True)]


def test_typecheck_matches_reference_on_corpus():
    for label, dg in typecheck_corpus():
        for compact, strict in MODES:
            assert D.typecheck(dg, compact, strict) == reference_typecheck(dg, compact, strict), label


VIOLATION_KINDS = ["out of range", "more than one wire", "to itself", "not wired", "must be bound",
                   "two boundary", "mismatched", "two outputs", "two inputs", "cycle"]


def test_typecheck_matches_reference_on_mutated_wirings():
    rng = np.random.default_rng(12)
    seen = set()
    for label, dg in typecheck_corpus():
        for variant in range(16):
            bad = mutated(dg, rng)
            for compact, strict in MODES:
                got = D.typecheck(bad, compact, strict)
                assert got == reference_typecheck(bad, compact, strict), (label, variant, bad.wires)
                seen |= {kind for v in got for kind in VIOLATION_KINDS if kind in v.message}
    assert seen == set(VIOLATION_KINDS)


# ---------------------------------------------------------------------------
# Evaluation


def test_long_identity_chain_evaluates_to_one():
    case = gen.identity_chain("Chain", 200)
    pf = D.parse(case.text)
    dg = pf.diagrams["Chain"]
    assert D.typecheck(dg, compact=False) == []
    assert P.as_scalar(D.evaluate(dg, D.build_env(pf))).value == pytest.approx(case.expect, abs=1e-12)


def test_long_snake_ladder_evaluates_to_identity():
    case = gen.snake_ladder("Ladder", 20)
    pf = D.parse(case.text)
    dg = pf.diagrams["Ladder"]
    assert len(dg.nodes) == 40 and D.typecheck(dg, compact=True) == []
    assert np.max(np.abs(D.evaluate(dg, D.build_env(pf)).choi - case.expect)) < 1e-12


def test_layout_invariance():
    base = """
system q = Q(2)
box r : -> q = maxmix
box u : q -> q = id
box d : q -> = discard
diagram A {{
  node s: r
  node m: u
  node t: d
  {wires}
}}
"""
    w1 = "wire s.out[0] -> m.in[0]  wire m.out[0] -> t.in[0]"
    w2 = "wire m.out[0] -> t.in[0]  wire s.out[0] -> m.in[0]"
    res = []
    for wires in (w1, w2):
        pf = D.parse(base.format(wires=wires))
        res.append(D.evaluate(pf.diagrams["A"], D.build_env(pf)).choi)
    assert np.allclose(res[0], res[1])


def test_boundary_factors_follow_port_indices_not_wire_order():
    # a swap whose outputs are crossed back: the identity, read in bound index order
    pf = D.parse("system a = Q(2)\nsystem b = Q(3)\nbox s : a * b -> b * a = swap\ndiagram X {\n node g : s\n"
                 " wire g.out[0] -> bound.out[1]\n wire bound.in[1] -> g.in[1]\n"
                 " wire g.out[1] -> bound.out[0]\n wire bound.in[0] -> g.in[0]\n}")
    res = D.evaluate(pf.diagrams["X"], D.build_env(pf))
    assert res.input == res.output == Q(2) * Q(3)
    assert np.array_equal(res.choi, P.identity(Q(2) * Q(3)).choi)


def test_contraction_order_invariance():
    rng = np.random.default_rng(31)
    pf = D.parse_file(GOOD / "state_effect_pairing.pd")
    dg = pf.diagrams["Pairing"]
    env = D.build_env(pf)
    ref = D.evaluate(dg, env).choi
    for _ in range(5):
        alt = D.evaluate(dg, env, contraction=D.random_plan(dg, rng)).choi
        assert np.allclose(alt, ref)


def test_evaluate_measurement_matches_dense_oracle():
    pf = D.parse_file(GOOD / "born_rule.pd")
    env = D.build_env(pf)
    res = D.evaluate(pf.diagrams["Born"], env)
    assert np.allclose(np.diag(res.choi).real, [0.75, 0.25])


def test_evaluation_is_functorial():
    rng = np.random.default_rng(32)
    f = P.random_cptp(rng, Q(2), Q(2))
    g = P.random_cptp(rng, Q(2), Q(2))
    src = f"""
system q = Q(2)
box f : q -> q = {gen.choi_literal(f.choi)}
box g : q -> q = {gen.choi_literal(g.choi)}
diagram Seq {{
  node a: f
  node b: g
  wire bound.in[0] -> a.in[0]
  wire a.out[0] -> b.in[0]
  wire b.out[0] -> bound.out[0]
}}
diagram Par {{
  node a: f
  node b: g
  wire bound.in[0] -> a.in[0]
  wire bound.in[1] -> b.in[0]
  wire a.out[0] -> bound.out[0]
  wire b.out[0] -> bound.out[1]
}}
"""
    pf = D.parse(src)
    env = D.build_env(pf)
    seq = D.evaluate(pf.diagrams["Seq"], env)
    par = D.evaluate(pf.diagrams["Par"], env)
    assert np.max(np.abs(seq.choi - P.compose_seq(g, f).choi)) < 1e-9
    assert np.max(np.abs(par.choi - P.compose_par(f, g).choi)) < 1e-9


def test_unresolved_box_raises():
    pf = D.parse("system q = Q(2)\nbox s : -> q = maxmix\ndiagram X { node n: s  wire n.out[0] -> bound.out[0] }")
    with pytest.raises(KeyError, match="unresolved box"):
        D.evaluate(pf.diagrams["X"], {})


def test_self_loop_traces_node():
    pf = D.parse("system q = Q(3)\nbox w : q -> q = id\ndiagram L { node n: w  wire n.out[0] -> n.in[0] }")
    dg = pf.diagrams["L"]
    assert D.typecheck(dg, compact=True) == []
    assert "ii" in [v.rule for v in D.typecheck(dg, compact=False)]
    val = P.as_scalar(D.evaluate(dg, D.build_env(pf)))
    assert val.value == pytest.approx(9.0)  # doubled loop on Q(3)


def traced_loop(f):
    """``f`` with its last output wired back into its last input, as a dense oracle: the Choi
    operator times the unnormalised projector onto sum_i |ii> on those two factors, traced
    out there."""
    dims = list(f.input.dims) + list(f.output.dims)
    i, o = len(f.input.dims) - 1, len(dims) - 1
    rest = [k for k in range(len(dims)) if k not in (i, o)]
    d = dims[i]
    phi = np.eye(d).reshape(d * d, 1)
    pair = factors_in_order(np.kron(phi @ phi.T, np.eye(prod(dims) // (d * d))), dims, [i, o] + rest)
    mat = partial_trace(f.choi @ pair, dims, rest)
    return P.ProcessTensor(SystemType(f.input.factors[:-1]), SystemType(f.output.factors[:-1]), mat)


SELF_LOOPS = """
system q = Q(2)
system r = Q(3)
box f : q -> q = id
box g : q -> q = id
box h : q -> q = id
box l : q * r -> q * r = id
box ll : q * r * q -> q * r * q = id
diagram Middle {
  node a : f
  node b : g
  node c : h
  node n : l
  wire bound.in[0] -> a.in[0]
  wire a.out[0] -> b.in[0]
  wire b.out[0] -> n.in[0]
  wire n.out[1] -> n.in[1]
  wire n.out[0] -> c.in[0]
  wire c.out[0] -> bound.out[0]
}
diagram Last {
  node n : l
  node a : f
  node b : g
  wire n.out[0] -> bound.out[1]
  wire bound.in[0] -> a.in[0]
  wire n.out[1] -> n.in[1]
  wire a.out[0] -> b.in[0]
  wire bound.in[1] -> n.in[0]
  wire b.out[0] -> bound.out[0]
}
diagram Twice {
  node a : f
  node n : ll
  node b : g
  wire n.out[2] -> n.in[2]
  wire bound.in[0] -> a.in[0]
  wire a.out[0] -> n.in[0]
  wire n.out[1] -> n.in[1]
  wire n.out[0] -> b.in[0]
  wire b.out[0] -> bound.out[0]
}
"""


def self_loop_cases(rng):
    """(diagram, env, dense value, the loop node's index, the greedy plan's step that first
    merges it) for a self-loop node merged mid-plan, one merged last and one with two loops."""
    pf = D.parse(SELF_LOOPS)
    env = {name: P.random_cp(rng, box.s_in, box.s_out) for name, box in pf.boxes.items()}
    f, g, h, l, ll = (env[name] for name in ("f", "g", "h", "l", "ll"))
    middle = P.compose_seq(h, P.compose_seq(traced_loop(l), P.compose_seq(g, f)))
    last = P.compose_par(P.compose_seq(g, f), traced_loop(l))
    # ll's loops are its last two factors: the third wires back first, then the second
    twice_ll = traced_loop(traced_loop(ll))
    return [(pf.diagrams["Middle"], env, middle, 3, 1), (pf.diagrams["Last"], env, last, 0, 1),
            (pf.diagrams["Twice"], env, P.compose_seq(g, P.compose_seq(twice_ll, f)), 1, 0)]


def test_self_loops_are_summed_inside_merges():
    """A self-loop's labels are summed by the first merge that meets its node, wherever that
    falls in the plan, and the value matches the dense oracle under any merge order."""
    for dg, env, oracle, node, step in self_loop_cases(np.random.default_rng(41)):
        assert D.typecheck(dg, compact=True) == [], dg.name
        greedy = D.plan(dg)
        assert next(k for k, (i, j, _) in enumerate(greedy.steps) if node in (i, j)) == step, dg.name
        plans = [greedy] + [D.random_plan(dg, np.random.default_rng(seed)) for seed in (1, 2, 3)]
        for cplan in plans:
            value = D.evaluate(dg, env, contraction=cplan)
            assert value.input.same_carrier(oracle.input) and value.output.same_carrier(oracle.output)
            assert np.abs(value.choi - oracle.choi).max() <= 1e-12 * max(1.0, np.abs(oracle.choi).max())


def test_good_corpus_typechecks_and_evaluates():
    files = sorted(GOOD.glob("*.pd"))
    assert len(files) >= 10
    for path in files:
        pf = D.parse_file(path)
        env = D.build_env(pf)
        for name, dg in pf.diagrams.items():
            assert D.typecheck(dg, compact=True) == [], (path, name)
            D.evaluate(dg, env)


def closing_cases():
    """(label, diagram, env) for every good-corpus diagram and two open brick circuits of distinct
    random 2-qubit channels."""
    files = [(path.name, D.parse_file(path)) for path in sorted(GOOD.glob("*.pd"))]
    for seed in (777, 9):
        case = gen.brick_circuit(np.random.default_rng(seed), "Brick", closed=False)
        files.append((f"brick seed {seed}", D.parse(case.text)))
    for label, pf in files:
        env = D.build_env(pf)
        for name, dg in pf.diagrams.items():
            yield f"{label}:{name}", dg, env


def test_closed_diagram_is_the_partial_trace_of_the_full_value():
    """Discarding the outputs traces them out; feeding noise to the inputs traces out the
    inputs. ``close`` leaves the original diagram as it was."""
    seen = 0
    for label, dg, env in closing_cases():
        full = D.evaluate(dg, env)
        nodes, wires = list(dg.nodes), list(dg.wires)
        for side, keep, kept in (("out", 0, full.input), ("in", 1, full.output)):
            closed, boxes = D.close(dg, side)
            assert set(boxes).isdisjoint(env) and set(boxes).isdisjoint(dg.nodes), label
            assert closed.wiring.bound[side] == [] and D.typecheck(closed, compact=True) == [], label
            value = D.evaluate(closed, {**env, **boxes})
            assert value.input.is_trivial() or value.output.is_trivial(), label
            assert (value.input * value.output).same_carrier(kept), label
            expected = partial_trace(full.choi, [full.din, full.dout], [keep])
            assert np.abs(value.choi - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max()), label
            seen += 1
        assert (list(dg.nodes), dg.wires) == (nodes, wires), label
    assert seen == 2 * 16


def test_evaluate_contracts_only_along_its_plan(monkeypatch):
    """Each ``contract`` call of ``evaluate`` on a diagram of two or more nodes is a merge of its
    plan: no pass sums self-loops before the merges, and none reorders the boundary after them."""
    calls, plugged = [], []
    contract, evaluate = D.contract, D.evaluate

    def counting_contract(*operands):
        calls.append(len(operands))
        return contract(*operands)

    def recording_evaluate(dg, env, *rest):
        plugged.append((dg, env))
        return evaluate(dg, env, *rest)

    monkeypatch.setattr(D, "contract", counting_contract)
    monkeypatch.setattr(D, "evaluate", recording_evaluate)
    w = HO.realize_process_matrix(HO.ordered_process_channel(Q(2), Q(2), Q(2)), ("past", "a-out", "b-out"),
                                  ("a-in", "b-in", "future"))
    rng = np.random.default_rng(43)
    HO.apply_process_matrix(w, P.random_cptp(rng, Q(2), Q(2) * Q(3)), P.random_cptp(rng, Q(2) * Q(3), Q(2)))
    assert [dg.name for dg, _ in plugged] == ["plug"]
    cases = [(label, dg, env) for label, dg, env in closing_cases() if len(dg.nodes) >= 2]
    cases += [(dg.name, dg, env) for dg, env, *_ in self_loop_cases(rng)] + [("plug", *plugged[0])]
    assert len(cases) == 13
    for label, dg, env in cases:
        calls.clear()
        evaluate(dg, env)
        assert calls == [5] * len(D.plan(dg).steps) and calls, label


def identity_diagram(body):
    """Diagram ``X`` of ``body``'s statements over the box ``w : Q(2) -> Q(2) = id``, and its env."""
    pf = D.parse(f"system q = Q(2)\nbox w : q -> q = id\ndiagram X {{\n{body}}}\n")
    return pf.diagrams["X"], D.build_env(pf)


THROUGH = "  node a : w\n  wire bound.in[0] -> a.in[0]\n  wire a.out[0] -> bound.out[0]\n"
TWICE = "  node a : w\n  node b : w\n  wire bound.in[0] -> a.in[0]\n  wire a.out[0] -> b.in[0]\n" \
        "  wire b.out[0] -> bound.out[0]\n"

# Input checks: each row calls a public function with an input it rejects, and names
# the exception and its message.
REJECTED = [
    (lambda: D.evaluate(identity_diagram(THROUGH)[0], {"w": P.identity(Q(3))}), ValueError,
     "process bound to box 'w' does not match its declared type"),
    (lambda: D.evaluate(*identity_diagram("  node a : w\n")), ValueError, "node 'a' has an unwired port"),
    (lambda: D.evaluate(*identity_diagram(TWICE), contraction=D.ContractionPlan([])), ValueError,
     "contraction plan did not merge the diagram into one component"),
    (lambda: D.evaluate(*identity_diagram("  wire bound.in[0] -> bound.out[0]\n")), ValueError,
     "boundary wire bound.in[0] -> bound.out[0] has no typed endpoint"),
    # a.out[0] feeds two boundary wires; the first is left with no node to hold it
    (lambda: D.evaluate(*identity_diagram(THROUGH + "  wire a.out[0] -> bound.out[1]\n")), ValueError,
     "evaluation did not leave exactly the boundary wires open"),
]


@pytest.mark.parametrize("call, exc, message", REJECTED)
def test_rejected_input_raises_its_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Lexer


class Token(NamedTuple):
    """A token with named fields; ``D._lex`` builds plain tuples in this order."""

    kind: str
    text: str
    value: object
    line: int
    col: int


def lex_tokens(text):
    return [Token(*tok) for tok in D._lex(text, "f.pd")]


def reference_lex(text, path):
    """The character-at-a-time scanner the compiled pattern replaced, kept as an oracle."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # interior hyphen joined only when a letter follows (theory names)
            while j + 1 < n and text[j] == "-" and text[j + 1].isalpha():
                j += 2
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            word = text[i:j]
            toks.append(Token("IDENT", word, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            word = text[i:j]
            kind = "NUMBER"
            if j < n and text[j] == "i":
                kind = "IMAG"
                j += 1
            toks.append(Token(kind, text[i:j], float(word), start_line, start_col))
            col += j - i
            i = j
            continue
        if text[i : i + 2] == "->":
            toks.append(Token("ARROW", "->", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in D._PUNCT:
            toks.append(Token(D._PUNCT[ch], ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise D.ParseError(path, line, col, f"unexpected character {ch!r}")
    toks.append(Token("EOF", "", None, line, col))
    return toks


def entry_bits(entries):
    """Complex entries by the bits of their parts, so -0.0 differs from 0.0."""
    return [(z.real.hex(), z.imag.hex()) for z in entries]


BOX_PREFIX = reference_lex("box b : -> = choi", "f.pd")[:-1]


def literal_run(toks, k):
    """The entries of the '[' ... ']' run at ``toks[k]``, read by the parser's
    token-by-token path, and the index after the run; None if it does not parse."""
    end = next((j for j in range(k, len(toks)) if toks[j].kind == "RBRACK"), None)
    if end is None:
        return None, k
    eof = Token("EOF", "", None, 0, 0)
    try:
        pf = D._Parser(BOX_PREFIX + list(toks[k : end + 1]) + [eof], "f.pd", "").parse_file()
    except D.ParseError:
        return None, k
    return pf.boxes["b"].choi_entries, end + 1


PORT_KINDS = ("IDENT", "DOT", "IDENT", "LBRACK", "NUMBER", "RBRACK")
STATEMENT_KINDS = {"node": ("IDENT", "COLON", "IDENT"), "wire": PORT_KINDS + ("ARROW",) + PORT_KINDS}


def statement_run(toks, k, keyword):
    """The NODE or WIRE tuple of the ``X : Y`` (after ``node``) or
    ``X.side[k] -> Y.side[k]`` (after ``wire``) run of tokens at ``toks[k]``,
    on the line of the keyword at ``toks[k - 1]``, and the index after the
    run; None if there is no such run. An index is 1 to 15 ASCII digits,
    valued as the parser's ``int(text)``."""
    kinds = STATEMENT_KINDS[keyword]
    run = toks[k : k + len(kinds)]
    if tuple(t.kind for t in run) != kinds or len({t.line for t in toks[k - 1 : k + len(kinds)]}) != 1:
        return None, k
    if keyword == "node":
        return ("NODE", run[0].text, run[2].text, run[0].line, run[0].col), k + len(kinds)
    ports = [run[:6], run[7:]]
    if any(p[2].text not in ("in", "out") or not re.fullmatch(r"[0-9]{1,15}", p[4].text) for p in ports):
        return None, k
    return ("WIRE", *[(p[0].text, p[2].text, int(p[4].text)) for p in ports], run[0].line, run[0].col), k + len(kinds)


def lex_outcome(lex, text):
    """Token tuples, or the ParseError diagnostic text. A CHOI token, and a
    '[' ... ']' run after ``choi`` that parses, both become one
    ('CHOI', '[', entry bits, line, col) tuple: a one-pass literal is compared
    with the run of reference tokens it replaces. Likewise a NODE or WIRE
    token, and the one-line run it stands for after ``node`` or ``wire``, both
    become one ('NODE', name, box, line, col) or ('WIRE', port, port, line,
    col) tuple. A run follows its keyword as the previous tuple, so a keyword
    or ``choi`` that a fold took in is no keyword for the next run."""
    try:
        toks = [Token(*tok) for tok in lex(text, "f.pd")]
    except D.ParseError as exc:
        return str(exc)
    out, k = [], 0
    while k < len(toks):
        tok, entries, folded, end = toks[k], None, None, k + 1
        after = out[-1][:2] if out else None
        if tok.kind == "CHOI":
            entries = tok.value
        elif tok.kind == "LBRACK" and after == ("IDENT", "choi"):
            entries, end = literal_run(toks, k)
        elif tok.kind == "NODE":
            folded = ("NODE", tok.text, tok.value, tok.line, tok.col)
        elif tok.kind == "WIRE":
            folded = ("WIRE", *[(p.node, p.side, p.index) for p in tok.value], tok.line, tok.col)
        elif after in (("IDENT", "node"), ("IDENT", "wire")):
            folded, end = statement_run(toks, k, after[1])
        if entries is not None:
            folded = ("CHOI", "[", entry_bits(entries), tok.line, tok.col)
        if folded is None:
            out.append(tuple(tok))
            k += 1
        else:
            out.append(folded)
            k = end
    return out


def reference_parse(text):
    """The parser as it was before CHOI tokens: reference_lex emits none, so
    every literal is read token by token."""
    return D._Parser(reference_lex(text, "f.pd"), "f.pd", text).parse_file()


def parse_outcome(parse, text):
    """Every declaration with its line/col, literal entries by bits, or the
    ParseError diagnostic text."""
    try:
        pf = parse(text)
    except D.ParseError as exc:
        return str(exc)
    boxes = [(name, b.s_in, b.s_out, b.generator,
              None if b.choi_entries is None else entry_bits(b.choi_entries), b.line, b.col)
             for name, b in pf.boxes.items()]
    diagrams = [(name, d, list(d.nodes)) for name, d in pf.diagrams.items()]
    return list(pf.systems.items()), boxes, diagrams, pf.checks


def parse_new(text):
    return D.parse(text, "f.pd")


def corpus_and_builder_texts():
    texts = [path.read_text() for path in sorted(GOOD.glob("*.pd")) + sorted(BAD.glob("*.pd"))]
    texts += [chain_source(n, cycle) for n in (1, 2, 40) for cycle in (False, True)]
    rng = np.random.default_rng(0)
    texts += [gen.snake_ladder("Ladder", n).text for n in (1, 30)]
    texts += [gen.pair_product(rng, "Pairs", 2 * n).text for n in (1, 30)]
    texts += [gen.brick_circuit(rng, "Brick", width, layers).text for layers, width in ((1, 2), (6, 4), (9, 7))]
    return texts


def test_lexer_matches_reference_on_corpus_and_builders():
    for text in corpus_and_builder_texts():
        assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text), text[:60]


def test_parser_matches_reference_on_corpus_and_builders():
    for text in corpus_and_builder_texts():
        assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text), text[:60]


# Fragments that single characters rarely assemble: arrows, exponents, IMAG forms,
# the hyphen rule, comments at the end of the text.
ASCII_FRAGMENTS = ["->", "1e", "1e+", "2.5e-3i", "1.e5i", "0i", "qcalc-bullet", "a-b-c", "a-1",
                   "_x-_y", "# c", "#", "\n", "choi [", "Q(", "1ei"]
ascii_text = st.lists(
    st.one_of(st.characters(min_codepoint=32, max_codepoint=126), st.sampled_from("\t\r\n\x0b"),
              st.sampled_from(ASCII_FRAGMENTS)),
    max_size=40,
).map("".join)


@given(ascii_text)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_lexer_matches_reference_on_ascii_text(text):
    assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text)


@given(ascii_text)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parser_matches_reference_on_ascii_text(text):
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)


# Literal bodies: signed zeros, exponents, blanks and newlines around signs,
# comments, malformed entries; then closings that are missing, doubled or
# trailing a comma; in a box and in places no literal may stand.
CHOI_OPENINGS = ["choi [", "choi[", "choi \t[", "choi\n[", "choi # c\n[", "choi-x [", "choi_x ["]
CHOI_ENTRIES = ["-0", "-0i", "-0+0i", "0-0i", "-0-0i", "+0", "1.e5", "2.5e+2i", "- 1", "1 +\n2i",
                "3 - 4.5E-1i", "0.5", " 7 ", "\n1", "1, # c\n2", "# 3, 4i\n5", "1+2", "1e", "1ix",
                "+ -2i", "1 2", "1i+2", "", "1e999", "1..2"]
CHOI_CLOSINGS = ["]", " ]", "\n]", ",]", "", "] ]", "[]"]
CHOI_PLACES = ["box b : q -> = ", "box b : -> = ", "system choi = Q(1)\nsystem r = ", "", "check causal ",
               "diagram D { node n: ", "diagram D { wire n.", "box b : -> = choi [1]\nbox c : -> = "]
choi_text = st.tuples(
    st.sampled_from(CHOI_PLACES), st.sampled_from(CHOI_OPENINGS),
    st.lists(st.sampled_from(CHOI_ENTRIES), max_size=6), st.sampled_from([",", ", ", " ,\n", "\n,"]),
    st.sampled_from(CHOI_CLOSINGS),
    st.sampled_from(["", "\n", " x", "\n  bogus", "\ncheck causal b in qphys"]),
).map(lambda t: "system q = Q(1)\n" + t[0] + t[1] + t[3].join(t[2]) + t[4] + t[5])


@given(choi_text)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_one_pass_literals_match_reference_on_choi_bodies(text):
    assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text)
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)


# The CHOI alternative as it was written with capture groups and backtracking, kept as the
# oracle for the capture-free, possessive one in ``D._TOKEN``.
REF_NUM = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
REF_BLANKS = r"[ \t\r\n]*"
REF_ENTRY = rf"(?:([+-]){REF_BLANKS})?({REF_NUM})(?:(i)|{REF_BLANKS}([+-]){REF_BLANKS}({REF_NUM})i)?"
REFERENCE_CHOI = re.compile(
    rf"choi[ \t\r]*\[{REF_BLANKS}(?:{REF_ENTRY}(?:{REF_BLANKS},{REF_BLANKS}{REF_ENTRY})*{REF_BLANKS})?\]",
    re.ASCII)


def choi_spans(text):
    """The span the reference CHOI pattern matches at the start of ``text``, and the span of
    the CHOI token ``D._TOKEN`` matches there; None where either matches none."""
    ref, new = REFERENCE_CHOI.match(text), D._TOKEN.match(text)
    return (ref and ref.span()), (new.span("CHOI") if new.lastgroup == "CHOI" else None)


literal_body = st.text(st.sampled_from("0123456789.eE+-i, \t\n"), max_size=30)


@given(st.sampled_from(["choi [", "choi[", "choi \t["]), literal_body, st.sampled_from(["]", " ]x", ",]", ""]))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_possessive_choi_pattern_matches_the_reference(opening, body, closing):
    ref, new = choi_spans(opening + body + closing)
    assert ref == new
    # ENTRY, which representation files use, accepts one entry as the capturing pattern did
    assert (D.ENTRY.fullmatch(body) is None) == (re.fullmatch(REF_ENTRY, body, re.ASCII) is None)


# (body, whether ``choi [body]`` is one well-formed literal)
CHOI_EDGES = [("1.e5", True), ("1e5i", True), ("1 e5", False), ("1 - 2i", True), ("1-2", False),
              ("- 1", True), ("1 ,2", True), ("1,,2", False), ("1,", False), (".5", False), ("i", False),
              ("1+i", False), (" \n ", True), ("", True), ("1e", False), ("1e+5", True), ("-1 +\t2.5E-3i", True)]


@pytest.mark.parametrize("body, literal", CHOI_EDGES)
def test_possessive_choi_pattern_on_edge_cases(body, literal):
    text = f"choi [{body}]"
    ref, new = choi_spans(text)
    assert ref == new == ((0, len(text)) if literal else None)


def complex_bits(entries):
    """The bits ``complex`` reads from each entry text, blanks dropped and ``j`` for ``i``."""
    return entry_bits(complex(re.sub(r"[ \t\r\n]", "", e).replace("i", "j")) for e in entries)


def bits_on_each_path(entries):
    """Each entry's bits as a one-pass literal, a token-by-token literal (``reference_parse``
    makes no CHOI token) and a representation file (blanks dropped, one entry per file) read it."""
    text = "box b : -> = choi [" + ", ".join(entries) + "]"
    reps = [G.parse_representation("1 0 0 1 " + re.sub(r"[ \t\r\n]", "", e))[1][0][0, 0] for e in entries]
    return [entry_bits(parse_new(text).boxes["b"].choi_entries),
            entry_bits(reference_parse(text).boxes["b"].choi_entries), entry_bits(reps)]


def test_well_formed_literal_is_one_choi_token_with_signed_zeros_kept():
    toks = lex_tokens("box b : -> = choi [-0, -0i, -0+0i, 0-0i, - 1,\n 1 +\n2i, 2.5e+2i]  x")
    ident, choi, x = toks[-4:-1]
    assert (tuple(ident), choi[:2], choi[3:]) == (("IDENT", "choi", "choi", 1, 14), ("CHOI", "["), (1, 19))
    entries = ["-0", "-0i", "-0+0i", "0-0i", "- 1", "1 +\n2i", "2.5e+2i"]
    assert entry_bits(choi.value) == complex_bits(entries) == entry_bits(
        [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), -1 + 0j, 1 + 2j, 250j])
    assert bits_on_each_path(entries) == [complex_bits(entries)] * 3
    assert (x.kind, x.line, x.col) == ("IDENT", 3, 15)


# Every form with a negative-zero part, written with blanks or a newline around
# its signs: the last two underflow to a zero part without writing ``-0``.
SIGNED_ZERO_ENTRIES = ["-0", "-0i", "-0+0i", "0-0i", "-0-0i", "- 0", "-\n0i", " -0 +\n0i", "0 -\t0i",
                       "-0 - 0i", "1 -\n1e-999i", "-1E-400 + 2i"]


def long_literal_entries(n=256):
    """``n`` entries: a signed-zero form at every fifth index, cycling through
    ``SIGNED_ZERO_ENTRIES``, and a distinct nonzero ``a+bi`` everywhere else, so
    an entry read at a wrong index shows."""
    return [SIGNED_ZERO_ENTRIES[(k // 5) % len(SIGNED_ZERO_ENTRIES)] if k % 5 == 2
            else f"{k}.5 {'-+'[k % 2]}\n{k + 1}e-3i" for k in range(n)]


def long_literal_text(n=256):
    """A box whose ``choi`` literal holds ``long_literal_entries(n)``."""
    return "box b : -> Q(16) = choi [" + "".join(
        entry + (", " if k % 3 else ",\n") for k, entry in enumerate(long_literal_entries(n)))[:-2] + "]\n"


def test_long_literal_keeps_each_signed_zero_at_its_index():
    text = long_literal_text()
    assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text)
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)
    (choi,) = [tok for tok in lex_tokens(text) if tok.kind == "CHOI"]
    assert (choi.value.dtype, choi.value.shape) == (np.complex128, (256,))
    assert entry_bits(choi.value) == complex_bits(long_literal_entries())
    # each part keeps its sign, written or from underflow, in ``a+bi`` as in the plain forms
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0)] * 2
    underflows = [complex(1.0, -0.0), complex(-0.0, 2.0)] * 2
    assert entry_bits(choi.value[[2, 7, 12, 17, 27, 32, 52, 57, 232, 237, 242, 247]]) == entry_bits(
        zeros + zeros[:2] + underflows + zeros[:2])
    assert bits_on_each_path(SIGNED_ZERO_ENTRIES) == [complex_bits(SIGNED_ZERO_ENTRIES)] * 3


def test_parts_that_underflow_follow_the_signed_zero_rule():
    # no "-0" is written, yet a part of each entry underflows to -0.0
    entries = ["1 -\n1e-999i", "-1E-400 + 2i", "-1e-999", "-1e-999i"]
    text = "box b : -> = choi [" + ", ".join(entries) + "]"
    assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text)
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)
    assert entry_bits(parse_new(text).boxes["b"].choi_entries) == complex_bits(entries) == entry_bits(
        [complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, 0.0), complex(0.0, -0.0)])
    assert bits_on_each_path(entries) == [complex_bits(entries)] * 3


def test_choi_entries_are_a_complex128_array_on_both_paths():
    one_pass = parse_new("box b : -> = choi [1, -0i, 2 + 3i]").boxes["b"].choi_entries
    token_by_token = parse_new("box b : -> = choi [1, # c\n -0i, 2 + 3i]").boxes["b"].choi_entries
    empty = parse_new("box b : -> = choi [ # c\n]").boxes["b"].choi_entries
    for entries in (one_pass, token_by_token, empty):
        assert isinstance(entries, np.ndarray) and entries.dtype == np.complex128
    assert entry_bits(one_pass) == entry_bits(token_by_token) == entry_bits([1 + 0j, complex(0.0, -0.0), 2 + 3j])
    assert entry_bits(parse_new("box b : -> = choi [ ]").boxes["b"].choi_entries) == entry_bits(empty) == []


def test_diagnostic_after_a_multiline_literal_keeps_its_place():
    text = "box b : -> = choi [1,\n  0,\n  0]\n  bogus\n"
    with pytest.raises(D.ParseError) as exc:
        parse_new(text)
    assert str(exc.value) == "f.pd:4:3: parse: expected system/box/diagram/check, got 'bogus'"
    assert parse_outcome(reference_parse, text) == str(exc.value)


def test_long_literal_missing_its_bracket_keeps_the_diagnostic():
    text = "box b : -> = choi [" + ", ".join(["1"] * 100_000) + "\ncheck causal b in qphys\n"
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)
    assert parse_outcome(parse_new, text) == "f.pd:2:1: parse: expected ']', got 'check'"


# Node and wire statements, one-match and not: newlines and comments inside,
# blanks between all tokens, indices that are not 1 to 15 digits, unknown
# sides, 'bound' as a name and the reserved 'node' and 'wire' as names, a
# duplicate node, an undefined box, an undefined node on either side; after the
# places of CHOI_PLACES, in a diagram, and where ``node``/``wire`` is read as a name.
STATEMENT_HEADER = "system q = Q(1)\nbox e : q -> q = id\nbox w : q -> q = id\n"
NODE_LINES = ["node n : e", "node m:e", "node j \t: w", "node k \t: wire", "node wire : wire", "node n :e",
              "node y-x : e", "node\n o : e", "node p :\n e", "node r : e # c", "node s # c\n: e", "node bound : e",
              "node t : ghost", "node u : choi [1]", "node v", "node : e", "node 1n : e", "node x : e-1",
              "node z : e . x"]
WIRE_LINES = ["wire n.out[0] -> m.in[0]", "wire bound.in[0]->n.in[0]", "wire m . out [ 0 ] -> bound . out [ 0 ]",
              "wire\tn.out[1] -> m.in[1]", "wire ghost.out[0] -> n.in[0]", "wire n.out[0] -> ghost.in[0]",
              "wire wire.out[0] -> node.in[0]", "wire\n n.out[0] -> m.in[0]", "wire a.out[0] ->\n b.in[0]",
              "wire a . out [ 0 ]", "wire a.inx[0]", "wire n.inx[0] -> m.in[0]", "wire n.out[1.0] -> m.in[0]",
              "wire n.out[0] -> m.in[1e0]", "wire n.out[007] -> m.in[0]", "wire n.out[" + "1" * 20 + "] -> m.in[0]",
              "wire n.out[0] -> m.in[1e999]", "wire n.out[1.5] -> m.in[0]", "wire n.out[0i] -> m.in[0]",
              "wire n.out[0] # c\n-> m.in[0]", "wire n.out[0] -> m.in[0] # c", "wire n.out[0] -> m.in[0] -> x",
              "node k : e"]
STATEMENT_PLACES = CHOI_PLACES + ["diagram D {\n", "diagram D { node n : e\n", "check ", "check causal D in ",
                                  "system node = Q(1)\nsystem r = ", "box wire : q -> q = id\ndiagram D {\n"]
statement_text = st.tuples(
    st.sampled_from(STATEMENT_PLACES), st.lists(st.sampled_from(NODE_LINES), max_size=4, unique=True),
    st.lists(st.sampled_from(WIRE_LINES), max_size=4), st.sampled_from(["\n", " ", "\n  ", " # c\n"]),
    st.sampled_from(["", "}", "\n}", "\n} x", "\n}\ncheck causal D in qphys"]),
).map(lambda t: STATEMENT_HEADER + t[0] + t[3].join(t[1] + t[2]) + t[4])


@given(statement_text)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_one_match_statements_match_reference(text):
    assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text)
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text)
    # and every one-line statement is one match: none is left as separate tokens
    toks = lex_tokens(text)
    keywords = [k for k in range(1, len(toks)) if toks[k - 1][:2] in (("IDENT", "node"), ("IDENT", "wire"))]
    assert [k for k in keywords if statement_run(toks, k, toks[k - 1].value)[0]] == []


def test_one_line_statements_are_one_token_each():
    toks = lex_tokens("diagram C {\n  node i0 : w\n  wire i0.out[0] -> i1 . in [ 12 ]\n}")
    assert [t.kind for t in toks] == ["IDENT", "IDENT", "LBRACE", "IDENT", "NODE", "IDENT", "WIRE", "RBRACE", "EOF"]
    assert [tuple(t) for t in toks[3:7]] == [
        ("IDENT", "node", "node", 2, 3), ("NODE", "i0", "w", 2, 8),
        ("IDENT", "wire", "wire", 3, 3), ("WIRE", "i0", (D.Port("i0", "out", 0), D.Port("i1", "in", 12)), 3, 8),
    ]


def test_diagnostic_after_one_match_statements_keeps_its_place():
    text = ("system q = Q(2)\nbox w : q -> q = id\ndiagram C {\n  node a : w\n  node b : w\n"
            "  wire a.out[0] -> b.in[0]\n  bogus\n}\n")
    assert [t.kind for t in lex_tokens(text)].count("WIRE") == 1
    with pytest.raises(D.ParseError) as exc:
        parse_new(text)
    assert str(exc.value) == "f.pd:7:3: parse: expected '}', got 'bogus'"
    assert parse_outcome(reference_parse, text) == str(exc.value)


# A one-match statement that fails a check is reported where the tokens it
# stands for would be, with no second reading of the text; ``node`` and
# ``wire`` are reserved, so one read where a name stands fails at the keyword.
DIRECT = [
    ("diagram D {\n node n : e\n node n : e\n}", "6:7: parse: duplicate identifier 'n' in diagram 'D'"),
    ("diagram D {\n node bound : e\n}", "5:7: parse: 'bound' is reserved for boundary ports"),
    ("diagram D {\n node n : ghost\n}", "5:11: parse: undefined box reference 'ghost'"),
    ("diagram D {\n node n : e\n wire ghost.out[0] -> n.in[0]\n}", "6:7: parse: undefined node reference 'ghost'"),
    ("diagram D {\n node n : e\n wire n.out[0] -> ghost.in[0]\n}", "6:19: parse: undefined node reference 'ghost'"),
    ("diagram D {\n node wire : e\n}", "5:7: parse: expected node name, got 'wire'"),
    ("diagram D {\n node n :\tnode\n}", "5:11: parse: expected box name, got 'node'"),
    ("diagram D {\n node n : e\n wire node.out[0] -> n.in[0]\n}",
     "6:7: parse: expected port (node.in[k] / bound.out[k]), got 'node'"),
    ("diagram D {\n node n : e\n wire n . out [0]->  wire.in[0]\n}",
     "6:22: parse: expected port (node.in[k] / bound.out[k]), got 'wire'"),
    ("check node a : b in qphys", "4:7: parse: expected property name, got 'node'"),
    ("diagram a {}\ncheck node a : b in qphys", "5:7: parse: expected property name, got 'node'"),
    ("check causal e in node a : e\n", "4:19: parse: expected theory name, got 'node'"),
    ("check wire a.out[0] -> b.in[0]", "4:7: parse: expected property name, got 'wire'"),
]


@pytest.mark.parametrize("text, diagnostic", DIRECT)
def test_statement_failing_at_its_token_is_reread(text, diagnostic):
    """Its diagnostic is the one a token-by-token reading (``reference_parse``) gives."""
    text = STATEMENT_HEADER + text
    assert {"NODE", "WIRE"} & {t.kind for t in lex_tokens(text)}
    assert parse_outcome(parse_new, text) == parse_outcome(reference_parse, text) == f"f.pd:{diagnostic}"


@pytest.mark.parametrize("text", [pytest.param(STATEMENT_HEADER + text, id=f"direct{k}")
                                  for k, (text, _) in enumerate(DIRECT)]
                         + [pytest.param(path.read_text(), id=path.name) for path in sorted(BAD.glob("*.pd"))])
def test_parse_lexes_once(text, monkeypatch):
    calls = []
    lex = D._lex
    monkeypatch.setattr(D, "_lex", lambda *args: calls.append(args) or lex(*args))
    try:
        D.parse(text, "f.pd")
    except D.ParseError:
        pass
    assert len(calls) == 1


PD_FRAGMENTS = ["system q = ", "Q(2)", "C(3)", "Q(", "dual(", ")", " * ", "box b : ", " -> ", " = ",
                "choi [", "1e999", "-2.5i", ", ", "]", "discard", "diagram D {", "node n: b",
                "wire ", "bound.in[0]", "n.out[0]", "}", "check causal D in qphys", "\n", "# é"]


@given(st.lists(st.one_of(st.text(max_size=3), st.sampled_from(PD_FRAGMENTS)), max_size=30).map("".join))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_raises_only_parse_errors_on_any_text(text):
    # parse only: elaborating a generated Q(99999) box would allocate gigabytes
    try:
        D.parse(text)
    except D.ParseError:
        pass


NON_ASCII = [
    ("system q = Q(²)", 14, "²"),  # a digit to str.isdigit, but not to float()
    ("system q = Q(٣)", 14, "٣"),  # once read as 3
    ("system xⅧy = Q(2)", 9, "Ⅷ"),  # once part of an identifier
    ("system q² = Q(2) # é", 9, "²"),
]


@pytest.mark.parametrize("text, col, char", NON_ASCII)
def test_non_ascii_outside_comments_is_a_parse_error(text, col, char):
    with pytest.raises(D.ParseError) as exc:
        D.parse(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (1, col, f"unexpected character {char!r}")


def test_comments_may_hold_any_text():
    assert list(D.parse("system q = Q(2) # é Ⅷ ² ٣\n").systems) == ["q"]


def test_eof_after_final_comment_sits_at_the_hash():
    assert tuple(D._lex("a  # c", "f.pd")[-1]) == ("EOF", "", None, 1, 4)
    assert tuple(D._lex("a  # c\n", "f.pd")[-1]) == ("EOF", "", None, 2, 1)
    assert tuple(D._lex("a  ", "f.pd")[-1]) == ("EOF", "", None, 1, 4)
    with pytest.raises(D.ParseError) as exc:
        D.parse("system q = # c")
    assert str(exc.value) == "<string>:1:12: parse: expected wire factor, got ''"


def test_non_finite_literals_are_rejected():
    with pytest.raises(D.ParseError, match="1:14: parse: expected integer dimension, got 1e999"):
        D.parse("system q = Q(1e999)")
    pf = D.parse("box b : -> = choi [1e999]\ndiagram X { node n: b }")
    with pytest.raises(D.SemanticError, match="1:5: semantic: .*non-finite"):
        D.build_env(pf)


def test_deeply_nested_dual_parses_without_recursion():
    nest = lambda depth, factor: "dual(" * depth + factor + ")" * depth
    pf = D.parse(f"system q = {nest(5001, 'Q(2)')} * {nest(5000, 'C(3)')}")
    assert pf.systems["q"] == Q(2).dual() * C(3)
