from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctheory import diagram as D
from proctheory import processes as P
from proctheory.systems import C, Q

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


def closed_chain(n):
    """maxmix -> (n - 2) identities -> discard on Q(2); a channel closed by discard: value 1."""
    lines = ["system q = Q(2)", "box mu : -> q = maxmix", "box w : q -> q = id",
             "box tr : q -> = discard", "diagram Chain {", "  node a: mu"]
    lines += [f"  node n{i}: w" for i in range(n - 2)]
    lines += ["  node z: tr"]
    ends = ["a"] + [f"n{i}" for i in range(n - 2)] + ["z"]
    lines += [f"  wire {x}.out[0] -> {y}.in[0]" for x, y in zip(ends, ends[1:])]
    return D.parse("\n".join(lines + ["}"])).diagrams["Chain"]


def ladder_source(snakes):
    """``snakes`` cup/cap zig-zags in series on Q(2); by the snake equation, the identity."""
    lines = ["system q = Q(2)", "box u : -> q * dual(q) = cup", "box e : q * dual(q) -> = cap",
             "diagram Ladder {"]
    wires, src = [], "bound.in[0]"
    for k in range(snakes):
        lines += [f"  node c{k}: u", f"  node k{k}: e"]
        wires += [f"  wire {src} -> k{k}.in[0]", f"  wire c{k}.out[1] -> k{k}.in[1]"]
        src = f"c{k}.out[0]"
    wires.append(f"  wire {src} -> bound.out[0]")
    return "\n".join(lines + wires + ["}"])


def snake_ladder(snakes):
    return D.parse(ladder_source(snakes)).diagrams["Ladder"]


def brick_source(layers, width=4):
    """Swaps in a brick pattern on ``width`` Q(2) lines, opened by maxmix and closed by discard."""
    lines = ["system q = Q(2)", "box mu : -> q = maxmix", "box g : q * q -> q * q = swap",
             "box tr : q -> = discard", "diagram Brick {"]
    lines += [f"  node s{k}: mu" for k in range(width)]
    wires, src = [], [f"s{k}.out[0]" for k in range(width)]
    gate = 0
    for layer in range(layers):
        for top in range(layer % 2, width - 1, 2):
            lines.append(f"  node g{gate}: g")
            wires += [f"  wire {src[top]} -> g{gate}.in[0]", f"  wire {src[top + 1]} -> g{gate}.in[1]"]
            src[top], src[top + 1] = f"g{gate}.out[0]", f"g{gate}.out[1]"
            gate += 1
    lines += [f"  node t{k}: tr" for k in range(width)]
    wires += [f"  wire {src[k]} -> t{k}.in[0]" for k in range(width)]
    return "\n".join(lines + wires + ["}"])


def brick_circuit(layers, width=4):
    return D.parse(brick_source(layers, width)).diagrams["Brick"]


def pairs_source(pairs):
    """``pairs`` disconnected maxmix -> discard pairs on Q(2): only outer products join them."""
    lines = ["system q = Q(2)", "box mu : -> q = maxmix", "box tr : q -> = discard", "diagram Pairs {"]
    lines += [f"  node p{k}: mu\n  node f{k}: tr" for k in range(pairs)]
    lines += [f"  wire p{k}.out[0] -> f{k}.in[0]" for k in range(pairs)]
    return "\n".join(lines + ["}"])


def pair_product(pairs):
    return D.parse(pairs_source(pairs)).diagrams["Pairs"]


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
    dims = D._wire_dims(diagram)
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
    dims = D._wire_dims(diagram)

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
    cases += [("cycle12", chain_diagram(12, cycle=True).diagrams["Chain"]), ("closed40", closed_chain(40))]
    cases += [(f"ladder{2 * k}", snake_ladder(k)) for k in (1, 3, 20)]
    cases += [(f"brick{layers}", brick_circuit(layers)) for layers in (1, 5, 20)]
    cases += [("pairs40", pair_product(20)), ("diamond", D.parse(DIAMOND).diagrams["Diamond"])]
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


# ---------------------------------------------------------------------------
# Evaluation


def test_long_identity_chain_evaluates_to_one():
    dg = closed_chain(200)
    assert D.typecheck(dg, compact=False) == []
    env = D.build_env(D.parse("system q = Q(2)\nbox mu : -> q = maxmix\nbox w : q -> q = id\n"
                              "box tr : q -> = discard"))
    assert P.as_scalar(D.evaluate(dg, env)).value == pytest.approx(1.0, abs=1e-12)


def test_long_snake_ladder_evaluates_to_identity():
    dg = snake_ladder(20)
    assert len(dg.nodes) == 40 and D.typecheck(dg, compact=True) == []
    env = D.build_env(D.parse("system q = Q(2)\nbox u : -> q * dual(q) = cup\n"
                              "box e : q * dual(q) -> = cap"))
    bell = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
    assert np.max(np.abs(D.evaluate(dg, env).choi - bell)) < 1e-12


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
    def literal(mat):
        return ", ".join(
            f"{float(z.real)!r}{'+' if z.imag >= 0 else '-'}{abs(float(z.imag))!r}i"
            for z in mat.reshape(-1)
        )

    entries_f, entries_g = literal(f.choi), literal(g.choi)
    src = f"""
system q = Q(2)
box f : q -> q = choi [{entries_f}]
box g : q -> q = choi [{entries_g}]
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


def test_good_corpus_typechecks_and_evaluates():
    files = sorted(GOOD.glob("*.pd"))
    assert len(files) >= 10
    for path in files:
        pf = D.parse_file(path)
        env = D.build_env(pf)
        for name, dg in pf.diagrams.items():
            assert D.typecheck(dg, compact=True) == [], (path, name)
            D.evaluate(dg, env)


# ---------------------------------------------------------------------------
# Lexer


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
            toks.append(D.Token("IDENT", word, word, start_line, start_col))
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
            toks.append(D.Token(kind, text[i:j], float(word), start_line, start_col))
            col += j - i
            i = j
            continue
        if text[i : i + 2] == "->":
            toks.append(D.Token("ARROW", "->", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in D._PUNCT:
            toks.append(D.Token(D._PUNCT[ch], ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise D.ParseError(path, line, col, f"unexpected character {ch!r}")
    toks.append(D.Token("EOF", "", None, line, col))
    return toks


def lex_outcome(lex, text):
    """Token tuples, or the ParseError diagnostic text."""
    try:
        return [tuple(tok) for tok in lex(text, "f.pd")]
    except D.ParseError as exc:
        return str(exc)


def test_lexer_matches_reference_on_corpus_and_builders():
    texts = [path.read_text() for path in sorted(GOOD.glob("*.pd")) + sorted(BAD.glob("*.pd"))]
    texts += [chain_source(n, cycle) for n in (1, 2, 40) for cycle in (False, True)]
    texts += [ladder_source(n) for n in (1, 30)] + [pairs_source(n) for n in (1, 30)]
    texts += [brick_source(layers, width) for layers, width in ((1, 2), (6, 4), (9, 7))]
    for text in texts:
        assert lex_outcome(D._lex, text) == lex_outcome(reference_lex, text), text[:60]


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
