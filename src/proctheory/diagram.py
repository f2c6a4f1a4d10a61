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
(imaginary parts carry an explicit coefficient, e.g. ``1i``); each is read as
``complex`` reads it, so every part keeps its sign. A well-formed,
comment-free literal lexes in one pass; any other is read token by token.
So does a one-line, comment-free ``node X : Y`` or ``wire X.side[k] ->
Y.side[k]`` with sides ``in``/``out`` and indices of 1 to 15 digits. ``node``
and ``wire`` are reserved words, so a file is lexed and parsed once.
``#`` starts a comment, which may hold any text; outside comments the language
is ASCII, and any other character is a parse error. Identifiers may contain
interior hyphens when followed by a letter, so ``qcalc-bullet`` is one token.
A literal too large for a float (``1e999``) is rejected: as an integer at
parse time, and in a ``choi`` literal by the finiteness check of
``ProcessTensor``.

Wiring is checked against the active theory's capabilities:

  i.   a wire between two outputs (or two inputs) needs caps (cups);
  ii.  cycles through nodes need cups & caps;
  iii. wire endpoints must carry the same wire factor.

Evaluation contracts Choi tensors pairwise along a plan; any valid order gives the
same process. A merge sums each label met twice, a self-loop's too, and the last
merge orders the boundary. Diagnostics are rendered ``file:line:col: rule: message``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
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
    "close",
    "evaluate_closed",
    "evaluate",
]

# each generator and the ``processes`` function that builds it
_BUILDERS = {"discard": discard_gen, "maxmix": max_mixed, "noise": noise_state, "id": id_gen,
             "swap": swap_gen, "cup": cup_gen, "cap": cap_gen}
GENERATORS = tuple(_BUILDERS)


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


# A token is a plain tuple (kind, text, value, line, col), read by these
# indices: it costs a seventh of a NamedTuple to build. Its kind is IDENT,
# NUMBER, IMAG, CHOI, NODE, WIRE, a punctuation kind, or EOF.
KIND, TEXT, VALUE, LINE, COL = range(5)


# One complex entry, ``a``, ``bi`` or ``a+bi``, signed and with blanks around
# its signs: the entry syntax of choi literals and representation files.
# Capture-free and possessive: backtracking never helps here (no digit follows
# a number, a failed ``, entry`` ends a list), so it accepts the same text.
_NUM_ONCE = r"\d++(?:\.\d*+)?+(?:[eE][+-]?+\d++)?+"
_BLANKS_ONCE = r"[ \t\r\n]*+"
_ENTRY_ONCE = rf"(?:[+-]{_BLANKS_ONCE})?+{_NUM_ONCE}(?>i|{_BLANKS_ONCE}[+-]{_BLANKS_ONCE}{_NUM_ONCE}i)?+"
ENTRY = re.compile(_ENTRY_ONCE, re.ASCII)

_TO_COMPLEX_SYNTAX = str.maketrans({" ": None, "\t": None, "\r": None, "\n": None, "i": "j"})


def read_entries(text):
    """Comma-separated ``ENTRY`` texts as a complex128 array. An entry's value is
    what ``complex`` reads with blanks dropped and ``j`` for ``i``, so every part
    keeps its sign, written or from underflow. Blanks stand only around signs and
    commas, so dropping them joins no two numbers."""
    text = text.translate(_TO_COMPLEX_SYNTAX)
    texts = text.split(",") if text else []
    return np.fromiter(map(complex, texts), complex, len(texts))


# Blanks, then one alternative per token class, tried in order; some
# alternative matches at every offset, so finditer skips no text. The last
# group matched names the token, so a trailing ``i`` makes a NUMBER an IMAG.
# CHOI, a comment-free ``choi [...]`` literal with ``[`` on the line of
# ``choi``, lexes as the IDENT ``choi`` and a CHOI token at ``[`` whose
# value is the entries, read from the body in bulk by ``read_entries``;
# any other literal is read token by token. NODE and WIRE, a
# one-line ``node X : Y`` or ``wire X.side[k] -> Y.side[k]``, lex as the
# keyword's IDENT and one token at ``X`` (text ``X``) whose value is the box
# name or the two ``Port``s; each takes the newline that ends its line. Any
# other form is read token by token. A comment is eaten with the newline (or
# end of text) after it, so EOF after a final comment sits at its '#'. BAD
# catches any other character.
_NAME = r"[A-Za-z_]\w*(?:-[A-Za-z]\w*)*"  # interior hyphen only before a letter
_SP = r"[ \t\r]*"


def _port(p):
    return rf"(?P<{p}>{_NAME}){_SP}\.{_SP}(?P<{p}_side>in|out){_SP}\[{_SP}(?P<{p}_index>\d{{1,15}}){_SP}\]"


_TOKEN = re.compile(
    rf"""{_SP}(?:
      (?P<CHOI>choi{_SP}\[{_BLANKS_ONCE}
        (?:{_ENTRY_ONCE}(?:{_BLANKS_ONCE},{_BLANKS_ONCE}{_ENTRY_ONCE})*+{_BLANKS_ONCE})?+\])
    | (?P<NODE>node[ \t\r]+(?P<node>{_NAME}){_SP}:{_SP}(?P<box>{_NAME})(?:{_SP}\n)?)
    | (?P<WIRE>wire[ \t\r]+{_port("a")}{_SP}->{_SP}{_port("b")}(?:{_SP}\n)?)
    | (?P<IDENT>{_NAME})
    | (?P<NUMBER>{_NUM_ONCE})(?P<IMAG>i)?
    | (?P<PUNCT>->|[=:*()\[\]{{}},.+-])
    | (?P<NEWLINE>(?:\#[^\n]*)?\n)
    | (?P<EOF>(?:\#[^\n]*)?\Z)
    | (?P<BAD>.)
    )""",
    re.VERBOSE | re.ASCII,
)


def _lex(text, path):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT" or kind == "PUNCT":
            word = m[kind]
            toks.append((_PUNCT.get(word, "IDENT"), word, word, line, m.start(kind) - line_start + 1))
        elif kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "NODE":
            toks += [("IDENT", "node", "node", line, m.start(kind) - line_start + 1),
                     (kind, m["node"], m["box"], line, m.start("node") - line_start + 1)]
            if text[m.end() - 1] == "\n":
                line, line_start = line + 1, m.end()
        elif kind == "WIRE":
            a, a_side, a_index, b, b_side, b_index = m.group("a", "a_side", "a_index", "b", "b_side", "b_index")
            toks += [("IDENT", "wire", "wire", line, m.start(kind) - line_start + 1),
                     (kind, a, (Port(a, a_side, int(a_index)), Port(b, b_side, int(b_index))),
                           line, m.start("a") - line_start + 1)]
            if text[m.end() - 1] == "\n":
                line, line_start = line + 1, m.end()
        elif kind == "NUMBER" or kind == "IMAG":  # an IMAG token spans its NUMBER
            start = m.start("NUMBER")
            toks.append((kind, text[start:m.end()], float(m["NUMBER"]), line, start - line_start + 1))
        elif kind == "CHOI":
            # the CHOI token's text is the '[' it starts at, so a diagnostic there reads as before
            at = text.index("[", m.start(kind))
            toks += [("IDENT", "choi", "choi", line, m.start(kind) - line_start + 1),
                     (kind, "[", read_entries(text[at + 1 : m.end() - 1]), line, at - line_start + 1)]
            line += text.count("\n", at, m.end())
            line_start = text.rfind("\n", 0, m.end()) + 1
        else:
            col = m.start(kind) - line_start + 1
            if kind == "EOF":
                toks.append((kind, "", None, line, col))
                break
            raise ParseError(path, line, col, f"unexpected character {m[kind]!r}")
    return toks


# ---------------------------------------------------------------------------
# Syntax objects

class Port(NamedTuple):
    node: str  # node name, or "bound"
    side: str  # "in" | "out"
    index: int

    def is_boundary(self):
        return self.node == "bound"

    def __str__(self):
        return f"{self.node}.{self.side}[{self.index}]"


class Wire(NamedTuple):
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
    """Nodes and wires as parsed. Nothing mutates a parsed diagram, so its
    ``wiring`` is built once, on first use, and kept."""

    name: str
    nodes: dict  # name -> DiagramNode, insertion ordered
    wires: list
    line: int = 0
    col: int = 0

    def node_order(self):
        return list(self.nodes)

    @cached_property
    def wiring(self):
        return _wiring(self)


class Wiring(NamedTuple):
    """A diagram's wire table, read by ``typecheck``, ``plan`` and ``evaluate``.

    ``ends[w]`` holds wire ``w``'s two ends, ``a`` then ``b``, each as (node index
    or None at the boundary, whether the end is a source, its ``WireFactor`` or None
    at the boundary or out of range). ``reused`` holds the ``(w, 0 | 1)`` ends whose
    port an earlier wire uses. ``node_wires[n]`` is the wire at each input, then
    output, port of node ``n`` (None where unwired): the node's ket labels are
    ``2w``, its bra labels ``2w + 1``; ``evaluate``'s merges sum each label met
    twice, a self-loop's too, and the last one orders the boundary. ``bound[side]``
    lists ``(index, w)`` for each boundary port of that side, by index.
    """

    ends: list
    reused: set
    node_wires: list
    bound: dict


def _wiring(diagram):
    nodes = {name: (n, node.s_in.factors, node.s_out.factors)
             for n, (name, node) in enumerate(diagram.nodes.items())}
    node_wires = [[None] * (len(ins) + len(outs)) for _, ins, outs in nodes.values()]
    ports = [port for wire in diagram.wires for port in (wire.a, wire.b)]
    flat, reused, seen, bound = [], set(), set(), {"in": [], "out": []}
    for i, port in enumerate(ports):  # wire w's ends are ports[2w] and ports[2w + 1]
        w = i // 2
        if port in seen:
            reused.add((w, i % 2))
        seen.add(port)
        name, side, k = port
        if name == "bound":
            bound[side].append((k, w))
            flat.append((None, side == "in", None))  # the diagram's inputs are sources
            continue
        n, ins, outs = nodes[name]
        factors, at = (ins, k) if side == "in" else (outs, len(ins) + k)
        factor = None
        if 0 <= k < len(factors):
            factor = factors[k]
            node_wires[n][at] = w
        flat.append((n, side == "out", factor))
    for side_ports in bound.values():
        side_ports.sort(key=lambda entry: entry[0])  # stable: a reused index keeps wire order
    return Wiring(list(zip(flat[0::2], flat[1::2])), reused, node_wires, bound)


@dataclass
class BoxDecl:
    name: str
    s_in: SystemType
    s_out: SystemType
    generator: str | None  # one of GENERATORS, or None for a choi literal
    choi_entries: np.ndarray | None  # complex128, the literal's entries in order
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

_RESERVED = ("node", "wire")  # they start statements in a diagram, so they name nothing
_PORT = "port (node.in[k] / bound.out[k])"
_SECOND_NAME = re.compile(r"[^:>]*[:>][ \t\r]*")  # a NODE or WIRE's first name, its ':' or '->'


class _Parser:
    def __init__(self, tokens, path, text):
        self.toks = tokens
        self.pos = 0
        self.path = path
        self.text = text  # read only to place a diagnostic inside a NODE or WIRE token
        self.names = {}  # shared namespace: name -> "system" | "box" | "diagram"

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        if tok[KIND] != "EOF":
            self.pos += 1
        return tok

    def error(self, tok, message, second=False):
        """Raise at ``tok``, or at the second name of a NODE or WIRE ``tok``."""
        col = tok[COL]
        if second and tok[KIND] != "IDENT":
            col = _SECOND_NAME.match(self.text.split("\n")[tok[LINE] - 1], col - 1).end() + 1
        raise ParseError(self.path, tok[LINE], col, message)

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[KIND] != kind or tok[TEXT] in _RESERVED:
            self.error(tok, f"expected {what or kind}, got {tok[TEXT]!r}")
        return self.advance()

    def expect_word(self, word):
        tok = self.peek()
        if tok[KIND] != "IDENT" or tok[VALUE] != word:
            self.error(tok, f"expected {word!r}, got {tok[TEXT]!r}")
        return self.advance()

    def expect_int(self, what):
        tok = self.expect("NUMBER", what)
        if tok[TEXT].isdigit():  # exact, where a float would round past 2**53
            return int(tok[TEXT])
        if not tok[VALUE].is_integer():
            self.error(tok, f"expected integer {what}, got {tok[TEXT]}")
        return int(tok[VALUE])

    def declare(self, name_tok, kind):
        name = name_tok[VALUE]
        if name == "bound":
            self.error(name_tok, "'bound' is reserved for boundary ports")
        if name in self.names:
            self.error(name_tok, f"duplicate identifier {name!r} (already a {self.names[name]})")
        self.names[name] = kind
        return name

    # -- grammar ------------------------------------------------------------

    def parse_file(self):
        out = ParsedFile(self.path)
        while self.peek()[KIND] != "EOF":
            tok = self.peek()
            if tok[KIND] != "IDENT":
                self.error(tok, f"expected a statement, got {tok[TEXT]!r}")
            if tok[VALUE] == "system":
                self.parse_system(out)
            elif tok[VALUE] == "box":
                self.parse_box(out)
            elif tok[VALUE] == "diagram":
                self.parse_diagram(out)
            elif tok[VALUE] == "check":
                self.parse_check(out)
            else:
                self.error(tok, f"expected system/box/diagram/check, got {tok[TEXT]!r}")
        return out

    def parse_system(self, out):
        self.expect_word("system")
        name_tok = self.expect("IDENT", "system name")
        name = self.declare(name_tok, "system")
        self.expect("EQUALS", "'='")
        out.systems[name] = self.parse_sysexpr(out)

    def parse_sysexpr(self, out):
        factors = list(self.parse_factor(out))
        while self.peek()[KIND] == "STAR":
            self.advance()
            factors.extend(self.parse_factor(out))
        return SystemType(tuple(factors))

    def parse_factor(self, out):
        tok = self.expect("IDENT", "wire factor")
        duals = 0  # nested dual(...) is counted, not recursed into, so no depth overflows
        while tok[VALUE] == "dual":
            self.expect("LPAREN", "'('")
            duals += 1
            tok = self.expect("IDENT", "wire factor")
        if tok[VALUE] in ("Q", "C"):
            self.expect("LPAREN", "'('")
            dim = self.expect_int("dimension")
            if dim < 1:
                self.error(tok, f"wire dimension must be >= 1, got {dim}")
            self.expect("RPAREN", "')'")
            factors = (WireFactor(QUANTUM if tok[VALUE] == "Q" else CLASSICAL, dim, UP),)
        elif tok[VALUE] in out.systems:
            factors = out.systems[tok[VALUE]].factors
        else:
            self.error(tok, f"undefined system reference {tok[VALUE]!r}")
        for _ in range(duals):
            self.expect("RPAREN", "')'")
        return factors if duals % 2 == 0 else tuple(f.dual() for f in factors)

    def parse_box(self, out):
        self.expect_word("box")
        name_tok = self.expect("IDENT", "box name")
        name = self.declare(name_tok, "box")
        self.expect("COLON", "':'")
        s_in = TRIVIAL if self.peek()[KIND] == "ARROW" else self.parse_sysexpr(out)
        self.expect("ARROW", "'->'")
        s_out = TRIVIAL if self.peek()[KIND] == "EQUALS" else self.parse_sysexpr(out)
        self.expect("EQUALS", "'='")
        tok = self.peek()
        if tok[KIND] == "IDENT" and tok[VALUE] == "choi":
            self.advance()
            if self.peek()[KIND] == "CHOI":
                entries = self.advance()[VALUE]
            else:  # a literal CHOI rejects, read token by token so diagnostics keep their place
                self.expect("LBRACK", "'['")
                entries = []
                if self.peek()[KIND] != "RBRACK":
                    entries.append(self.parse_complex())
                    while self.peek()[KIND] == "COMMA":
                        self.advance()
                        entries.append(self.parse_complex())
                self.expect("RBRACK", "']'")
                entries = np.array(entries, dtype=complex)
            decl = BoxDecl(name, s_in, s_out, None, entries, name_tok[LINE], name_tok[COL])
        elif tok[KIND] == "IDENT" and tok[VALUE] in GENERATORS:
            self.advance()
            decl = BoxDecl(name, s_in, s_out, tok[VALUE], None, name_tok[LINE], name_tok[COL])
        else:
            self.error(tok, f"expected a generator {GENERATORS} or 'choi', got {tok[TEXT]!r}")
        out.boxes[name] = decl

    def parse_complex(self):
        sign = 1.0
        if self.peek()[KIND] in ("PLUS", "MINUS"):
            sign = -1.0 if self.advance()[KIND] == "MINUS" else 1.0
        tok = self.peek()
        if tok[KIND] == "IMAG":
            self.advance()
            return complex(0.0, sign * tok[VALUE])
        if tok[KIND] != "NUMBER":
            self.error(tok, f"expected a complex entry, got {tok[TEXT]!r}")
        self.advance()
        imag = 0.0
        if self.peek()[KIND] in ("PLUS", "MINUS"):
            s2 = -1.0 if self.advance()[KIND] == "MINUS" else 1.0
            imag = s2 * self.expect("IMAG", "imaginary part (e.g. 2i)")[VALUE]
        return complex(sign * tok[VALUE], imag)

    def node_ref(self, nodes, port, tok, second=False):
        if not port.is_boundary() and port.node not in nodes:
            what = f"expected {_PORT}, got" if port.node in _RESERVED else "undefined node reference"
            self.error(tok, f"{what} {port.node!r}", second)

    def parse_port(self, nodes):
        tok = self.expect("IDENT", _PORT)
        self.expect("DOT", "'.'")
        side_tok = self.expect("IDENT", "'in' or 'out'")
        if side_tok[VALUE] not in ("in", "out"):
            self.error(side_tok, f"port side must be 'in' or 'out', got {side_tok[TEXT]!r}")
        self.expect("LBRACK", "'['")
        idx = self.expect_int("port index")
        self.expect("RBRACK", "']'")
        port = Port(tok[VALUE], side_tok[VALUE], idx)
        self.node_ref(nodes, port, tok)
        return port

    # A NODE or WIRE token is read with the same checks, in the same order, as
    # the tokens it stands for. Its shape is fixed, so only its names can fail.
    def parse_node(self, out, nodes, diagram):
        self.advance()  # 'node'
        tok = box_tok = self.advance() if self.peek()[KIND] == "NODE" else self.expect("IDENT", "node name")
        if tok[TEXT] in {"bound", "node", "wire"}:  # a reserved word only in a NODE: expect rejects it
            self.error(tok, "'bound' is reserved for boundary ports" if tok[TEXT] == "bound"
                       else f"expected node name, got {tok[TEXT]!r}")
        if tok[TEXT] in nodes:
            self.error(tok, f"duplicate identifier {tok[TEXT]!r} in diagram {diagram!r}")
        if tok[KIND] == "IDENT":  # else a NODE, whose value is its box
            self.expect("COLON", "':'")
            box_tok = self.expect("IDENT", "box name")
        box = box_tok[VALUE]
        if box not in out.boxes:
            what = "expected box name, got" if box in _RESERVED else "undefined box reference"
            self.error(box_tok, f"{what} {box!r}", second=True)
        decl = out.boxes[box]
        nodes[tok[TEXT]] = DiagramNode(tok[TEXT], box, decl.s_in, decl.s_out, tok[LINE], tok[COL])

    def parse_wire(self, nodes):
        wtok = self.advance()  # 'wire'
        if self.peek()[KIND] == "WIRE":
            tok = self.advance()
            a, b = tok[VALUE]
            self.node_ref(nodes, a, tok)
            self.node_ref(nodes, b, tok, True)
        else:
            a = self.parse_port(nodes)
            self.expect("ARROW", "'->'")
            b = self.parse_port(nodes)
        return Wire(a, b, wtok[LINE], wtok[COL])

    def parse_diagram(self, out):
        kw = self.expect_word("diagram")
        name_tok = self.expect("IDENT", "diagram name")
        name = self.declare(name_tok, "diagram")
        self.expect("LBRACE", "'{'")
        nodes = {}
        wires = []
        while self.peek()[:2] == ("IDENT", "node"):
            self.parse_node(out, nodes, name)
        while self.peek()[:2] == ("IDENT", "wire"):
            wires.append(self.parse_wire(nodes))
        self.expect("RBRACE", "'}'")
        out.diagrams[name] = Diagram(name, nodes, wires, kw[LINE], kw[COL])

    def parse_check(self, out):
        self.expect_word("check")
        prop_tok = self.expect("IDENT", "property name")
        target_tok = self.expect("IDENT", "diagram or box name")
        if target_tok[VALUE] not in out.diagrams and target_tok[VALUE] not in out.boxes:
            self.error(target_tok, f"undefined reference {target_tok[VALUE]!r}")
        self.expect_word("in")
        theory_tok = self.expect("IDENT", "theory name")
        out.checks.append(
            CheckDirective(prop_tok[VALUE], target_tok[VALUE], theory_tok[VALUE],
                           prop_tok[LINE], prop_tok[COL])
        )


def parse(text, path="<string>"):
    """Parse `.pd` source text into declarations and diagrams."""
    return _Parser(_lex(text, path), path, text).parse_file()


def parse_file(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:  # bad bytes lex as U+FFFD
        return parse(fh.read(), str(path))


# ---------------------------------------------------------------------------
# Box elaboration

def _generator_type(g, s_in, s_out):
    """Generator ``g``'s type on the declared wires and the systems it is built on,
    read off the one declared side that carries its system: discard s -> I, maxmix
    and noise I -> s, id s -> s, cup I -> h * h, cap h * h -> I (h the first half),
    swap a * b -> b * a at the first split rotating onto the output (else None)."""
    if g == "discard":
        return s_in, TRIVIAL, (s_in,)
    if g == "maxmix" or g == "noise":
        return TRIVIAL, s_out, (s_out,)
    if g == "id":
        return s_in, s_in, (s_in,)
    if g == "swap":
        f = s_in.factors
        k = next((k for k in range(1, len(f)) if SystemType(f[k:] + f[:k]).same_carrier(s_out)), 0)
        return (s_in, s_out, (SystemType(f[:k]), SystemType(f[k:]))) if k else None
    bent = s_out if g == "cup" else s_in
    h = SystemType(bent.factors[: len(bent) // 2])
    return (TRIVIAL, h * h, (h,)) if g == "cup" else (h * h, TRIVIAL, (h,))


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
        mat = decl.choi_entries.reshape(side, side)  # ProcessTensor keeps a copy
        try:
            return ProcessTensor(s_in, s_out, mat, tol)
        except ValueError as exc:
            raise err(f"invalid choi literal for {decl.name!r}: {exc}") from None
    typed = _generator_type(decl.generator, s_in, s_out)
    if typed is None:
        raise err(f"swap output {s_out} is not a rotation of input {s_in}")
    t_in, t_out, systems = typed
    if not (t_in.same_carrier(s_in) and t_out.same_carrier(s_out)):
        raise err(f"{decl.generator} here is {t_in} -> {t_out}, not {s_in} -> {s_out}")
    base = _BUILDERS[decl.generator](*systems)
    return ProcessTensor._trusted(s_in, s_out, base.choi)  # keep the declared orientations


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


def typecheck(diagram: Diagram, compact: bool, strict_orientation=False):
    """Check the wiring rules; returns all violations (empty when well typed).

    ``compact`` enables cups & caps: output-output/input-input wires and
    cycles become legal. With ``strict_orientation`` wire factors must agree
    on orientation, not only on kind and dimension.
    """
    wiring = diagram.wiring
    nodes = list(diagram.nodes.values())
    violations = []
    for w, wire in enumerate(diagram.wires):
        for e, (port, (n, _, factor)) in enumerate(zip((wire.a, wire.b), wiring.ends[w])):
            if factor is None and n is not None:
                s = nodes[n].s_in if port.side == "in" else nodes[n].s_out
                violations.append(Violation(
                    "structure",
                    f"port {port} out of range (box {nodes[n].box!r} has "
                    f"{len(s.factors)} {port.side} ports)", wire.line, wire.col))
            if (w, e) in wiring.reused:
                violations.append(Violation(
                    "structure", f"port {port} used by more than one wire", wire.line, wire.col))
        if wire.a == wire.b:
            violations.append(Violation("structure", f"wire connects {wire.a} to itself", wire.line, wire.col))

    # every node port must be wired exactly once
    for node, ws in zip(nodes, wiring.node_wires):
        if None in ws:
            n_in = len(node.s_in.factors)
            for at, w in enumerate(ws):
                if w is None:
                    side, k = ("in", at) if at < n_in else ("out", at - n_in)
                    violations.append(Violation(
                        "structure", f"port {node.name}.{side}[{k}] is not wired", node.line, node.col))

    # boundary indices contiguous from 0
    for side in ("in", "out"):
        idxs = sorted({k for k, _ in wiring.bound[side]})
        if idxs != list(range(len(idxs))):
            violations.append(Violation(
                "structure", f"boundary {side} ports must be bound.{side}[0..n-1], got {idxs}",
                diagram.line, diagram.col))

    for wire, ((na, sa, fa), (nb, sb, fb)) in zip(diagram.wires, wiring.ends):
        if fa is None or fb is None:
            if na is None and nb is None:
                violations.append(Violation(
                    "iii", f"wire {wire} connects two boundary ports; its type cannot be inferred",
                    wire.line, wire.col))
        elif not (fa.same_carrier(fb) and (not strict_orientation or fa.orientation == fb.orientation)):
            violations.append(Violation(
                "iii", f"wire {wire} connects mismatched systems {fa} and {fb}", wire.line, wire.col))
        if sa == sb and not compact:
            ends, gen = ("outputs", "caps") if sa else ("inputs", "cups")
            violations.append(Violation(
                "i", f"wire {wire} connects two {ends}; the theory has no {gen}", wire.line, wire.col))

    if not compact:
        names = list(diagram.nodes)
        adj = [set() for _ in names]  # source node -> sink nodes
        for (na, sa, _), (nb, sb, _) in wiring.ends:
            if na is not None and nb is not None and sa != sb:
                if sa:
                    adj[na].add(nb)
                else:
                    adj[nb].add(na)
        # Depth-first search with an explicit stack of successor iterators, so
        # long chains do not hit the interpreter's recursion limit; successors
        # are visited in name order.
        by_name = names.__getitem__
        state = [0] * len(names)  # 0 unvisited, 1 on stack, 2 done
        for root in range(len(names)):
            if state[root]:
                continue
            state[root] = 1
            stack = [(root, iter(sorted(adj[root], key=by_name)))]
            while stack:
                u, successors = stack[-1]
                for v in successors:
                    if state[v] == 1:
                        violations.append(Violation(
                            "ii", f"wiring cycle through node {names[v]!r}; the theory is acyclic-only",
                            nodes[v].line, nodes[v].col))
                    elif state[v] == 0:
                        state[v] = 1
                        stack.append((v, iter(sorted(adj[v], key=by_name))))
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
    open_ = [1] * len(names)  # indexed by representative; live ones are keys of nbr
    nbr = {i: {} for i in range(len(names))}  # rep -> {neighbour rep: shared dim}
    for (a, _, fa), (b, _, fb) in diagram.wiring.ends:
        if a == b:  # self-loop, or boundary to boundary
            continue
        f = fa or fb
        d = f.dim if f is not None else 1
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
            c = cost(i, j)
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
        ni = nbr[i]
        ni.pop(j, None)
        for k, d in nbr.pop(j).items():
            if k != i:
                nk = nbr[k]
                del nk[j]
                ni[k] = nk[i] = nk.get(i, 1) * d
        open_[i] = c
        for k, d in ni.items():  # cost(i, k): open_[i] is c, and i and k share d
            heapq.heappush(heap, (c * open_[k] // d ** 2, min(i, k), max(i, k)))
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

def close(diagram: Diagram, side):
    """A typechecked ``diagram`` with each ``bound.<side>[k]`` wired into the ``discard``
    (outputs) or fed by the ``noise`` (inputs) of its factor, and the processes of the new
    nodes' boxes by name; these names hold ``~``, which no parsed name does."""
    nodes, wires, boxes = dict(diagram.nodes), list(diagram.wires), {}
    for k, w in diagram.wiring.bound[side]:
        (_, _, fa), (_, _, fb) = diagram.wiring.ends[w]
        name, s = f"~{side}{k}", SystemType((fa or fb,))
        boxes[name] = g = discard_gen(s) if side == "out" else noise_state(s)
        nodes[name] = DiagramNode(name, name, g.input, g.output)
        end = "a" if wires[w].a.is_boundary() else "b"
        wires[w] = wires[w]._replace(**{end: Port(name, "in" if side == "out" else "out", 0)})
    return Diagram(diagram.name, nodes, wires, diagram.line, diagram.col), boxes


def evaluate_closed(diagram: Diagram, side, env):
    """A typechecked ``diagram`` closed on ``side`` and evaluated: the pair (Choi matrix, closed
    dimension) that :func:`proctheory.processes.obeys` judges a law of that side on."""
    closed, boxes = close(diagram, side)
    return evaluate(closed, {**env, **boxes}).choi, prod(len(g.choi) for g in boxes.values())


def evaluate(diagram: Diagram, env, tol: Tolerances = DEFAULT_TOL, contraction=None):
    """Contract a typechecked diagram to a single ProcessTensor.

    ``env`` maps box names to processes; ``contraction`` overrides the greedy plan.
    Each merge sums the labels met twice, a self-loop's too, and the last writes
    the boundary order. The result's input (output) factors follow the bound.in
    (bound.out) indices; a closed diagram yields a trivial -> trivial process,
    readable with :func:`proctheory.processes.as_scalar`. ``tol`` is unused, as
    wiring valid processes needs no tolerance; callers pass it positionally.
    """
    wiring = diagram.wiring
    comps = {}  # component representative -> (labels, tensor)
    for n, (name, node) in enumerate(diagram.nodes.items()):
        if node.box not in env:
            raise KeyError(f"unresolved box {node.box!r} for node {name!r}")
        pt = env[node.box]
        if not (pt.input.same_carrier(node.s_in) and pt.output.same_carrier(node.s_out)):
            raise ValueError(f"process bound to box {node.box!r} does not match its declared type")
        ws = wiring.node_wires[n]
        if None in ws:
            raise ValueError(f"node {name!r} has an unwired port")
        comps[n] = ([2 * w for w in ws] + [2 * w + 1 for w in ws], pt.legs())  # kets, then bras

    open_wires = [w for side in ("in", "out") for _, w in wiring.bound[side]]
    want = [2 * w for w in open_wires] + [2 * w + 1 for w in open_wires]
    left_open = lambda labels: sorted(l for l in labels if labels.count(l) == 1)
    for a, b, _cost in (contraction or plan(diagram)).steps:
        (subs_a, ta), (subs_b, tb) = comps.pop(a), comps.pop(b)
        out_subs = left_open(subs_a + subs_b)
        if not comps and out_subs == sorted(want):
            out_subs = want  # the last merge writes the boundary order
        comps[min(a, b)] = (out_subs, contract(ta, subs_a, tb, subs_b, out_subs))
    if len(comps) > 1:
        raise ValueError("contraction plan did not merge the diagram into one component")
    labels, result = comps.popitem()[1] if comps else ([], np.ones(()))

    factors = []
    for w in open_wires:
        (_, _, fa), (_, _, fb) = wiring.ends[w]
        if fa is None and fb is None:
            raise ValueError(f"boundary wire {diagram.wires[w]} has no typed endpoint")
        factors.append(fa or fb)
    if left_open(labels) != sorted(want):
        raise ValueError("evaluation did not leave exactly the boundary wires open")
    final = result if labels == want else contract(result, labels, want)  # at most one node
    n_in = len(wiring.bound["in"])
    s_in, s_out = SystemType(tuple(factors[:n_in])), SystemType(tuple(factors[n_in:]))
    side = s_in.total_dim * s_out.total_dim
    return ProcessTensor._trusted(s_in, s_out, final.reshape(side, side))
