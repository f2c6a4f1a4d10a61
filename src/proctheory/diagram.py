"""Textual wiring-diagram language: parser, type checker, planner, evaluator.

Files use the ``.pd`` extension and contain four kinds of statement::

    system q = Q(2) * C(3)          # wire types: Q(n), C(n), dual(...), names
    box m : q -> = discard          # generator or explicit "choi [ ... ]"
    diagram D {
        node a : m                  # nodes first ...
        wire bound.in[0] -> a.in[0] # ... then wires
    }
    check causal D in qphys

Ports name one wire factor each: ``node.in[k]``/``node.out[k]``, with the
diagram's own boundary addressed as ``bound.in[k]``/``bound.out[k]``.
Complex entries in ``choi`` literals are written ``a``, ``bi`` or ``a+bi``
(imaginary parts carry an explicit coefficient, e.g. ``1i``). ``#`` starts
a comment, which may hold any text; outside comments the language is ASCII,
and any other character is a parse error. Tokenisation is whitespace
insensitive; identifiers may contain interior hyphens when followed by a
letter, so theory names such as ``qcalc-bullet`` are single tokens. A
literal too large for a float (``1e999``) is rejected: as an integer at
parse time, and in a ``choi`` literal by the finiteness check of
``ProcessTensor``.

Wiring is checked against the active theory's capabilities:

  i.   a wire between two outputs (or two inputs) needs caps (cups);
  ii.  cycles through nodes need cups & caps;
  iii. wire endpoints must carry the same wire factor.

Evaluation contracts Choi tensors pairwise along a plan; any valid order
gives the same process, and a greedy order keeps intermediates small.
Diagnostics are rendered ``file:line:col: rule: message``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import DEFAULT_TOL, Tolerances, contract
from .processes import ProcessTensor, cap as cap_gen, cup as cup_gen, discard as discard_gen
from .processes import identity as id_gen, max_mixed, noise_state, swap as swap_gen
from .systems import SystemType, TRIVIAL, WireFactor, CLASSICAL, QUANTUM, UP

__all__ = [
    "ParseError",
    "SemanticError",
    "Violation",
    "Port",
    "Wire",
    "DiagramNode",
    "Diagram",
    "BoxDecl",
    "CheckDirective",
    "ParsedFile",
    "parse",
    "parse_file",
    "build_env",
    "typecheck",
    "ContractionPlan",
    "plan",
    "random_plan",
    "evaluate",
]

GENERATORS = ("discard", "maxmix", "noise", "id", "swap", "cup", "cap")
CHECK_PROPS = ("causal", "retrocausal", "unital", "member", "intertwiner", "nosignalling")


def format_diagnostic(path, line, col, rule, message):
    return f"{path}:{line}:{col}: {rule}: {message}"


class ParseError(Exception):
    def __init__(self, path, line, col, message):
        self.path, self.line, self.col, self.message = path, line, col, message
        super().__init__(format_diagnostic(path, line, col, "parse", message))


class SemanticError(Exception):
    """A declaration parsed but does not denote a valid process."""

    def __init__(self, path, line, col, message):
        self.path, self.line, self.col, self.message = path, line, col, message
        super().__init__(format_diagnostic(path, line, col, "semantic", message))


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {
    "->": "ARROW", "=": "EQUALS", ":": "COLON", "*": "STAR", "(": "LPAREN",
    ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ".": "DOT", "+": "PLUS", "-": "MINUS",
}


class Token(NamedTuple):
    kind: str  # IDENT | NUMBER | IMAG | punctuation kind | EOF
    text: str
    value: object
    line: int
    col: int


# One alternative per token class, tried in order; some alternative matches
# at every offset, so finditer skips no text. The last group matched names the
# token, so a trailing ``i`` makes a NUMBER an IMAG. A comment is eaten with
# the newline (or end of text) after it, so EOF after a final comment sits at
# its '#'. BAD catches any other character.
_TOKEN = re.compile(
    r"""
      (?P<IDENT>[A-Za-z_]\w*(?:-[A-Za-z]\w*)*)    # interior hyphen only before a letter
    | (?P<NUMBER>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)(?P<IMAG>i)?
    | (?P<PUNCT>->|[=:*()\[\]{},.+-])
    | (?P<SKIP>[ \t\r]+)
    | (?P<NEWLINE>(?:\#[^\n]*)?\n)
    | (?P<EOF>(?:\#[^\n]*)?\Z)
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.ASCII,
)


def _lex(text, path):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "IDENT":
            toks.append(Token(kind, word, word, line, col))
        elif kind == "NUMBER" or kind == "IMAG":
            toks.append(Token(kind, word, float(m["NUMBER"]), line, col))
        elif kind == "PUNCT":
            toks.append(Token(_PUNCT[word], word, word, line, col))
        elif kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "EOF":
            toks.append(Token(kind, "", None, line, col))
            break
        elif kind == "BAD":
            raise ParseError(path, line, col, f"unexpected character {word!r}")
    return toks


# ---------------------------------------------------------------------------
# Syntax objects

@dataclass(frozen=True)
class Port:
    node: str  # node name, or "bound"
    side: str  # "in" | "out"
    index: int

    def is_boundary(self):
        return self.node == "bound"

    def __str__(self):
        return f"{self.node}.{self.side}[{self.index}]"


@dataclass(frozen=True)
class Wire:
    a: Port
    b: Port
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"{self.a} -> {self.b}"


@dataclass
class DiagramNode:
    name: str
    box: str
    s_in: SystemType
    s_out: SystemType
    line: int = 0
    col: int = 0


@dataclass
class Diagram:
    name: str
    nodes: dict  # name -> DiagramNode, insertion ordered
    wires: list
    line: int = 0
    col: int = 0

    def node_order(self):
        return list(self.nodes)


@dataclass
class BoxDecl:
    name: str
    s_in: SystemType
    s_out: SystemType
    generator: str | None  # one of GENERATORS, or None for a choi literal
    choi_entries: list | None
    line: int = 0
    col: int = 0


@dataclass
class CheckDirective:
    prop: str
    target: str
    theory: str
    line: int = 0
    col: int = 0


@dataclass
class ParsedFile:
    path: str
    systems: dict = field(default_factory=dict)
    boxes: dict = field(default_factory=dict)
    diagrams: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens, path):
        self.toks = tokens
        self.pos = 0
        self.path = path
        self.names = {}  # shared namespace: name -> "system" | "box" | "diagram"

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok, message):
        raise ParseError(self.path, tok.line, tok.col, message)

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            self.error(tok, f"expected {what or kind}, got {tok.text!r}")
        return self.advance()

    def expect_word(self, word):
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            self.error(tok, f"expected {word!r}, got {tok.text!r}")
        return self.advance()

    def expect_int(self, what):
        tok = self.expect("NUMBER", what)
        if not tok.value.is_integer():
            self.error(tok, f"expected integer {what}, got {tok.text}")
        return int(tok.value)

    def declare(self, name_tok, kind):
        name = name_tok.value
        if name == "bound":
            self.error(name_tok, "'bound' is reserved for boundary ports")
        if name in self.names:
            self.error(name_tok, f"duplicate identifier {name!r} (already a {self.names[name]})")
        self.names[name] = kind
        return name

    # -- grammar ------------------------------------------------------------

    def parse_file(self):
        out = ParsedFile(self.path)
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.error(tok, f"expected a statement, got {tok.text!r}")
            if tok.value == "system":
                self.parse_system(out)
            elif tok.value == "box":
                self.parse_box(out)
            elif tok.value == "diagram":
                self.parse_diagram(out)
            elif tok.value == "check":
                self.parse_check(out)
            else:
                self.error(tok, f"expected system/box/diagram/check, got {tok.text!r}")
        return out

    def parse_system(self, out):
        self.expect_word("system")
        name_tok = self.expect("IDENT", "system name")
        name = self.declare(name_tok, "system")
        self.expect("EQUALS", "'='")
        out.systems[name] = self.parse_sysexpr(out)

    def parse_sysexpr(self, out):
        factors = list(self.parse_factor(out))
        while self.peek().kind == "STAR":
            self.advance()
            factors.extend(self.parse_factor(out))
        return SystemType(tuple(factors))

    def parse_factor(self, out):
        tok = self.expect("IDENT", "wire factor")
        duals = 0  # nested dual(...) is counted, not recursed into, so no depth overflows
        while tok.value == "dual":
            self.expect("LPAREN", "'('")
            duals += 1
            tok = self.expect("IDENT", "wire factor")
        if tok.value in ("Q", "C"):
            self.expect("LPAREN", "'('")
            dim = self.expect_int("dimension")
            if dim < 1:
                self.error(tok, f"wire dimension must be >= 1, got {dim}")
            self.expect("RPAREN", "')'")
            factors = (WireFactor(QUANTUM if tok.value == "Q" else CLASSICAL, dim, UP),)
        elif tok.value in out.systems:
            factors = out.systems[tok.value].factors
        else:
            self.error(tok, f"undefined system reference {tok.value!r}")
        for _ in range(duals):
            self.expect("RPAREN", "')'")
        return factors if duals % 2 == 0 else tuple(f.dual() for f in factors)

    def parse_box(self, out):
        self.expect_word("box")
        name_tok = self.expect("IDENT", "box name")
        name = self.declare(name_tok, "box")
        self.expect("COLON", "':'")
        s_in = TRIVIAL if self.peek().kind == "ARROW" else self.parse_sysexpr(out)
        self.expect("ARROW", "'->'")
        s_out = TRIVIAL if self.peek().kind == "EQUALS" else self.parse_sysexpr(out)
        self.expect("EQUALS", "'='")
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "choi":
            self.advance()
            self.expect("LBRACK", "'['")
            entries = []
            if self.peek().kind != "RBRACK":
                entries.append(self.parse_complex())
                while self.peek().kind == "COMMA":
                    self.advance()
                    entries.append(self.parse_complex())
            self.expect("RBRACK", "']'")
            decl = BoxDecl(name, s_in, s_out, None, entries, name_tok.line, name_tok.col)
        elif tok.kind == "IDENT" and tok.value in GENERATORS:
            self.advance()
            decl = BoxDecl(name, s_in, s_out, tok.value, None, name_tok.line, name_tok.col)
        else:
            self.error(tok, f"expected a generator {GENERATORS} or 'choi', got {tok.text!r}")
        out.boxes[name] = decl

    def parse_complex(self):
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.advance().kind == "MINUS" else 1.0
        tok = self.peek()
        if tok.kind == "IMAG":
            self.advance()
            return complex(0.0, sign * tok.value)
        if tok.kind != "NUMBER":
            self.error(tok, f"expected a complex entry, got {tok.text!r}")
        self.advance()
        val = complex(sign * tok.value, 0.0)
        if self.peek().kind in ("PLUS", "MINUS"):
            s2 = -1.0 if self.advance().kind == "MINUS" else 1.0
            itok = self.expect("IMAG", "imaginary part (e.g. 2i)")
            val += complex(0.0, s2 * itok.value)
        return val

    def parse_port(self):
        tok = self.expect("IDENT", "port (node.in[k] / bound.out[k])")
        self.expect("DOT", "'.'")
        side_tok = self.expect("IDENT", "'in' or 'out'")
        if side_tok.value not in ("in", "out"):
            self.error(side_tok, f"port side must be 'in' or 'out', got {side_tok.text!r}")
        self.expect("LBRACK", "'['")
        idx = self.expect_int("port index")
        self.expect("RBRACK", "']'")
        return Port(tok.value, side_tok.value, idx), tok

    def parse_diagram(self, out):
        kw = self.expect_word("diagram")
        name_tok = self.expect("IDENT", "diagram name")
        name = self.declare(name_tok, "diagram")
        self.expect("LBRACE", "'{'")
        nodes = {}
        wires = []
        while self.peek().kind == "IDENT" and self.peek().value == "node":
            self.advance()
            node_tok = self.expect("IDENT", "node name")
            if node_tok.value == "bound":
                self.error(node_tok, "'bound' is reserved for boundary ports")
            if node_tok.value in nodes:
                self.error(node_tok, f"duplicate identifier {node_tok.value!r} in diagram {name!r}")
            self.expect("COLON", "':'")
            box_tok = self.expect("IDENT", "box name")
            if box_tok.value not in out.boxes:
                self.error(box_tok, f"undefined box reference {box_tok.value!r}")
            decl = out.boxes[box_tok.value]
            nodes[node_tok.value] = DiagramNode(
                node_tok.value, box_tok.value, decl.s_in, decl.s_out, node_tok.line, node_tok.col
            )
        while self.peek().kind == "IDENT" and self.peek().value == "wire":
            wtok = self.advance()
            a, a_tok = self.parse_port()
            if not a.is_boundary() and a.node not in nodes:
                self.error(a_tok, f"undefined node reference {a.node!r}")
            self.expect("ARROW", "'->'")
            b, b_tok = self.parse_port()
            if not b.is_boundary() and b.node not in nodes:
                self.error(b_tok, f"undefined node reference {b.node!r}")
            wires.append(Wire(a, b, wtok.line, wtok.col))
        self.expect("RBRACE", "'}'")
        out.diagrams[name] = Diagram(name, nodes, wires, kw.line, kw.col)

    def parse_check(self, out):
        self.expect_word("check")
        prop_tok = self.expect("IDENT", "property name")
        target_tok = self.expect("IDENT", "diagram or box name")
        if target_tok.value not in out.diagrams and target_tok.value not in out.boxes:
            self.error(target_tok, f"undefined reference {target_tok.value!r}")
        self.expect_word("in")
        theory_tok = self.expect("IDENT", "theory name")
        out.checks.append(
            CheckDirective(prop_tok.value, target_tok.value, theory_tok.value,
                           prop_tok.line, prop_tok.col)
        )


def parse(text, path="<string>"):
    """Parse `.pd` source text into declarations and diagrams."""
    return _Parser(_lex(text, path), path).parse_file()


def parse_file(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:  # bad bytes lex as U+FFFD
        return parse(fh.read(), str(path))


# ---------------------------------------------------------------------------
# Box elaboration

def _build_box(decl: BoxDecl, path, tol):
    err = lambda msg: SemanticError(path, decl.line, decl.col, msg)
    s_in, s_out = decl.s_in, decl.s_out
    if decl.generator is None:
        side = s_in.total_dim * s_out.total_dim
        if len(decl.choi_entries) != side * side:
            raise err(
                f"choi literal for {decl.name!r} needs {side * side} entries "
                f"({side}x{side}), got {len(decl.choi_entries)}"
            )
        mat = np.array(decl.choi_entries, dtype=complex).reshape(side, side)
        try:
            return ProcessTensor(s_in, s_out, mat, tol)
        except ValueError as exc:
            raise err(f"invalid choi literal for {decl.name!r}: {exc}") from None
    g = decl.generator
    if g == "discard":
        if not s_out.is_trivial():
            raise err("discard takes no output system")
        return discard_gen(s_in, tol)
    if g in ("maxmix", "noise"):
        if not s_in.is_trivial():
            raise err(f"{g} takes no input system")
        make = max_mixed if g == "maxmix" else noise_state
        return make(s_out, tol)
    if g == "id":
        if not s_in.same_carrier(s_out):
            raise err(f"id requires matching input and output, got {s_in} -> {s_out}")
        return id_gen(s_in, tol)
    if g == "cup" or g == "cap":
        s = s_out if g == "cup" else s_in
        other = s_in if g == "cup" else s_out
        if not other.is_trivial():
            raise err(f"{g} must be a {'state' if g == 'cup' else 'effect'}")
        m = len(s.factors)
        if m % 2 != 0:
            raise err(f"{g} needs an even number of factors, got {m}")
        half = SystemType(s.factors[: m // 2])
        second = SystemType(s.factors[m // 2 :])
        if not half.same_carrier(second):
            raise err(f"{g} halves do not match: {half} vs {second}")
        base = cup_gen(half, tol) if g == "cup" else cap_gen(half, tol)
        return ProcessTensor._trusted(s_in, s_out, base.choi, tol)
    if g == "swap":
        m = len(s_in.factors)
        splits = [
            k
            for k in range(1, m)
            if SystemType(s_in.factors[k:] + s_in.factors[:k]).same_carrier(s_out)
        ]
        if not splits:
            raise err(f"swap output {s_out} is not a rotation of input {s_in}")
        k = splits[0]
        a, b = SystemType(s_in.factors[:k]), SystemType(s_in.factors[k:])
        base = swap_gen(a, b, tol)
        return ProcessTensor._trusted(s_in, s_out, base.choi, tol)
    raise err(f"unknown generator {g!r}")


def build_env(parsed: ParsedFile, tol: Tolerances = DEFAULT_TOL):
    """Elaborate every box declaration into a ProcessTensor."""
    return {name: _build_box(decl, parsed.path, tol) for name, decl in parsed.boxes.items()}


# ---------------------------------------------------------------------------
# Type checking

@dataclass
class Violation:
    rule: str  # "i" | "ii" | "iii" | "structure"
    message: str
    line: int = 0
    col: int = 0

    def format(self, path):
        return format_diagnostic(path, self.line, self.col, self.rule, self.message)


def _port_factor(diagram: Diagram, port: Port):
    """Wire factor at a node port, or None for boundary ports."""
    if port.is_boundary():
        return None
    node = diagram.nodes[port.node]
    s = node.s_in if port.side == "in" else node.s_out
    if port.index < 0 or port.index >= len(s.factors):
        return None
    return s.factors[port.index]


def _is_source(port: Port):
    # A source emits a wire end: node outputs and the diagram's own inputs.
    return (port.side == "out") if not port.is_boundary() else (port.side == "in")


def typecheck(diagram: Diagram, compact: bool, strict_orientation=False):
    """Check the wiring rules; returns all violations (empty when well typed).

    ``compact`` enables cups & caps: output-output/input-input wires and
    cycles become legal. With ``strict_orientation`` wire factors must agree
    on orientation, not only on kind and dimension.
    """
    violations = []
    seen = {}
    for w in diagram.wires:
        for p in (w.a, w.b):
            if not p.is_boundary():
                node = diagram.nodes[p.node]
                s = node.s_in if p.side == "in" else node.s_out
                if p.index < 0 or p.index >= len(s.factors):
                    violations.append(Violation(
                        "structure",
                        f"port {p} out of range (box {node.box!r} has "
                        f"{len(s.factors)} {p.side} ports)", w.line, w.col))
            if p in seen:
                violations.append(Violation(
                    "structure", f"port {p} used by more than one wire", w.line, w.col))
            seen[p] = w
        if w.a == w.b:
            violations.append(Violation("structure", f"wire connects {w.a} to itself", w.line, w.col))

    # every node port must be wired exactly once
    for node in diagram.nodes.values():
        for side, s in (("in", node.s_in), ("out", node.s_out)):
            for k in range(len(s.factors)):
                if Port(node.name, side, k) not in seen:
                    violations.append(Violation(
                        "structure", f"port {node.name}.{side}[{k}] is not wired",
                        node.line, node.col))

    # boundary indices contiguous from 0
    for side in ("in", "out"):
        idxs = sorted(p.index for p in seen if p.is_boundary() and p.side == side)
        if idxs != list(range(len(idxs))):
            violations.append(Violation(
                "structure", f"boundary {side} ports must be bound.{side}[0..n-1], got {idxs}",
                diagram.line, diagram.col))

    for w in diagram.wires:
        fa, fb = _port_factor(diagram, w.a), _port_factor(diagram, w.b)
        if fa is None and fb is None:
            violations.append(Violation(
                "iii", f"wire {w} connects two boundary ports; its type cannot be inferred",
                w.line, w.col))
        elif fa is not None and fb is not None:
            ok = fa.same_carrier(fb) and (not strict_orientation or fa.orientation == fb.orientation)
            if not ok:
                violations.append(Violation(
                    "iii", f"wire {w} connects mismatched systems {fa} and {fb}", w.line, w.col))
        sa, sb = _is_source(w.a), _is_source(w.b)
        if sa and sb and not compact:
            violations.append(Violation(
                "i", f"wire {w} connects two outputs; the theory has no caps", w.line, w.col))
        if not sa and not sb and not compact:
            violations.append(Violation(
                "i", f"wire {w} connects two inputs; the theory has no cups", w.line, w.col))

    if not compact:
        order = diagram.node_order()
        adj = {name: set() for name in order}
        for w in diagram.wires:
            if not w.a.is_boundary() and not w.b.is_boundary():
                src, dst = None, None
                if _is_source(w.a) and not _is_source(w.b):
                    src, dst = w.a.node, w.b.node
                elif _is_source(w.b) and not _is_source(w.a):
                    src, dst = w.b.node, w.a.node
                if src is not None:
                    adj[src].add(dst)
        # Depth-first search with an explicit stack of successor iterators, so
        # long chains do not hit the interpreter's recursion limit.
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
                        violations.append(Violation(
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


# ---------------------------------------------------------------------------
# Contraction planning

@dataclass
class ContractionPlan:
    """Ordered pairwise merges; components named by their least node index."""

    steps: list  # of (rep_a, rep_b, predicted_open_dim)


def _wire_dims(diagram: Diagram):
    dims = {}
    for w in diagram.wires:
        f = _port_factor(diagram, w.a) or _port_factor(diagram, w.b)
        dims[w] = f.dim if f is not None else 1
    return dims


def plan(diagram: Diagram, order=None):
    """Greedy contraction order minimising the largest intermediate dimension.

    Each step merges the connected pair of components whose union has the
    smallest open dimension (product of the dims of the wires crossing its
    boundary, boundary wires included); ties break on the lowest component
    representatives. With no connected pair left, the two lowest
    representatives merge as an outer product. ``order`` forces an explicit
    merge sequence (pairs of component representatives) instead; once it runs
    out, the greedy order finishes the plan.

    Per component the planner keeps its open dimension and, per neighbouring
    component, the product of the dims of the wires between them, so a merge
    costs ``open[i] * open[j] // shared**2``. Candidate pairs sit in a heap
    ordered by ``(cost, i, j)``; entries made stale by a merge are dropped when
    they reach the top. Planning costs O(merges * degree * log n).
    """
    names = diagram.node_order()
    if len(names) < 2:
        return ContractionPlan([])
    index = {n: i for i, n in enumerate(names)}
    open_ = [1] * len(names)  # indexed by representative; live ones are keys of nbr
    nbr = {i: {} for i in range(len(names))}  # rep -> {neighbour rep: shared dim}
    dims = _wire_dims(diagram)
    for w in diagram.wires:
        d = dims[w]
        a = None if w.a.is_boundary() else index[w.a.node]
        b = None if w.b.is_boundary() else index[w.b.node]
        if a == b:  # self-loop, or boundary to boundary
            continue
        for k in (a, b):
            if k is not None:
                open_[k] *= d
        if a is not None and b is not None:
            nbr[a][b] = nbr[b][a] = nbr[a].get(b, 1) * d

    def cost(i, j):
        return open_[i] * open_[j] // nbr[i].get(j, 1) ** 2

    heap = [(cost(i, j), i, j) for i in nbr for j in nbr[i] if i < j]
    heapq.heapify(heap)
    second = 1  # lowest live representative after 0, which never dies

    steps = []
    forced = iter(order if order is not None else ())
    for _ in range(len(names) - 1):
        pair = next(forced, None)
        if pair is not None:
            i, j = pair
            if i == j or i not in nbr or j not in nbr:
                raise ValueError(f"invalid forced merge ({i}, {j}); live components: {sorted(nbr)}")
            i, j = min(i, j), max(i, j)
        else:
            while heap:
                c, i, j = heapq.heappop(heap)
                if i in nbr and j in nbr and c == cost(i, j):
                    break
            else:  # disconnected remainder: outer products
                while second not in nbr:
                    second += 1
                i, j = 0, second
        c = cost(i, j)
        steps.append((i, j, c))
        # fold j into i: j's neighbours become i's, sharing both sets of wires
        nbr[i].pop(j, None)
        for k, d in nbr.pop(j).items():
            if k != i:
                del nbr[k][j]
                nbr[i][k] = nbr[k][i] = nbr[k].get(i, 1) * d
        open_[i] = c
        for k in nbr[i]:
            heapq.heappush(heap, (cost(i, k), min(i, k), max(i, k)))
    return ContractionPlan(steps)


def random_plan(diagram: Diagram, rng):
    """A uniformly random valid merge order (for order-invariance tests)."""
    names = diagram.node_order()
    live = list(range(len(names)))
    order = []
    while len(live) > 1:
        i, j = sorted(rng.choice(len(live), size=2, replace=False))
        a, b = live[i], live[j]
        order.append((a, b))
        live.remove(max(a, b))
    return plan(diagram, order=order)


# ---------------------------------------------------------------------------
# Evaluation

def _boundary_ports(diagram: Diagram, side):
    ports = [p for w in diagram.wires for p in (w.a, w.b) if p.is_boundary() and p.side == side]
    return sorted(ports, key=lambda p: p.index)


def evaluate(diagram: Diagram, env, tol: Tolerances = DEFAULT_TOL, contraction=None):
    """Contract a typechecked diagram to a single ProcessTensor.

    ``env`` maps box names to processes; ``contraction`` overrides the greedy
    plan. The result's input (output) factors follow the bound.in (bound.out)
    indices; a closed diagram yields a trivial -> trivial process, readable
    with :func:`proctheory.processes.as_scalar`.
    """
    names = diagram.node_order()
    # wire labels: ket 2w, bra 2w+1
    wire_of_port = {}
    for wi, w in enumerate(diagram.wires):
        for p in (w.a, w.b):
            wire_of_port[p] = wi

    tensors = {}
    for ni, name in enumerate(names):
        node = diagram.nodes[name]
        if node.box not in env:
            raise KeyError(f"unresolved box {node.box!r} for node {name!r}")
        pt = env[node.box]
        if not (pt.input.same_carrier(node.s_in) and pt.output.same_carrier(node.s_out)):
            raise ValueError(f"process bound to box {node.box!r} does not match its declared type")
        ports = [Port(name, "in", k) for k in range(len(pt.input.factors))] + [
            Port(name, "out", k) for k in range(len(pt.output.factors))
        ]
        kets, bras = [], []
        for p in ports:
            wi = wire_of_port[p]
            kets.append(2 * wi)
            bras.append(2 * wi + 1)
        subs = kets + bras
        # contract self-loops (labels occurring twice) right away
        out_subs = sorted(l for l in set(subs) if subs.count(l) == 1)
        t = contract(pt.legs(), subs, out_subs)
        tensors[ni] = (out_subs, t)

    if not names:
        result_labels, result = [], np.ones(())
    else:
        cplan = contraction if contraction is not None else plan(diagram)
        comps = dict(tensors)
        for a, b, _cost in cplan.steps:
            subs_a, ta = comps[a]
            subs_b, tb = comps[b]
            shared = set(subs_a) & set(subs_b)
            out_subs = sorted((set(subs_a) | set(subs_b)) - shared)
            merged = contract(ta, subs_a, tb, subs_b, out_subs)
            comps[min(a, b)] = (out_subs, merged)
            del comps[max(a, b)]
        if len(comps) != 1:
            raise ValueError("contraction plan did not merge the diagram into one component")
        (result_labels, result), = comps.values()

    bin_ports = _boundary_ports(diagram, "in")
    bout_ports = _boundary_ports(diagram, "out")

    def port_ket_bra(p):
        wi = wire_of_port[p]
        return 2 * wi, 2 * wi + 1

    def port_factor_at_boundary(p):
        w = diagram.wires[wire_of_port[p]]
        other = w.b if w.a == p else w.a
        f = _port_factor(diagram, other)
        if f is None:
            raise ValueError(f"boundary wire {w} has no typed endpoint")
        return f

    in_factors = [port_factor_at_boundary(p) for p in bin_ports]
    out_factors = [port_factor_at_boundary(p) for p in bout_ports]
    kets = [port_ket_bra(p)[0] for p in bin_ports] + [port_ket_bra(p)[0] for p in bout_ports]
    bras = [port_ket_bra(p)[1] for p in bin_ports] + [port_ket_bra(p)[1] for p in bout_ports]
    want = kets + bras
    if sorted(want) != sorted(result_labels):
        raise ValueError("evaluation did not leave exactly the boundary wires open")
    final = contract(result, result_labels, want) if want else result
    s_in = SystemType(tuple(in_factors))
    s_out = SystemType(tuple(out_factors))
    side = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, final.reshape(side, side), tol)
