import dataclasses
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import gen
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from proctheory import cli
from proctheory import processes as P
from proctheory.numerics import DEFAULT_TOL
from proctheory.systems import Q

GOOD = Path(__file__).parent / "data" / "pd" / "good"
BAD = Path(__file__).parent / "data" / "pd" / "bad"


def run(capsys, *argv, parser=None):
    """``(exit code, stdout, stderr)`` of ``argv`` through ``cli.main``, or through ``parser``."""
    argv = [str(a) for a in argv]
    try:
        if parser is None:
            code = cli.main(argv)
        else:
            args = parser.parse_args(argv)
            code = args.fn(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_loop_prints_scalar(capsys):
    code, out, err = run(capsys, "eval", GOOD / "loop_qubit.pd", "--theory", "qcalc")
    assert code == 0
    assert "scalar 4.0" in out  # doubled quantum loop on Q(2)


def test_eval_classical_loop(capsys):
    code, out, _ = run(capsys, "eval", GOOD / "loop_classical.pd", "--theory", "qcalc")
    assert code == 0 and "scalar 3.0" in out


def test_eval_rule_i_under_qphys(capsys):
    code, out, err = run(capsys, "eval", BAD / "bad_rule_i.pd", "--theory", "qphys")
    assert code == 1
    assert ": i: " in err and "bad_rule_i.pd:7:" in err


def test_eval_same_file_ok_under_qcalc(capsys):
    code, out, _ = run(capsys, "eval", BAD / "bad_rule_i.pd", "--theory", "qcalc")
    assert code == 0 and "scalar" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", BAD / "bad_token.pd")
    assert code == 2
    assert "bad_token.pd:2:16: parse:" in err


def test_choi_literal_semantic_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad_choi.pd"
    p.write_text("system q = Q(2)\nbox s : -> q = choi [1, 0, 0, -1]\n"
                 "diagram D { node n: s  wire n.out[0] -> bound.out[0] }")
    code, _, err = run(capsys, "eval", p)
    assert code == 2 and "semantic" in err


def test_check_directives(capsys):
    code, out, _ = run(capsys, "check", GOOD / "dephasing_unital.pd")
    assert code == 0
    assert "check causal Deph in qphys: pass" in out
    assert "check unital Deph in qphys-unital: pass" in out


def test_check_member_failure_prints_n(tmp_path, capsys):
    p = tmp_path / "unnorm.pd"
    p.write_text(
        "system q = Q(2)\nbox s : -> q = choi [2, 0, 0, 0]\n"
        "diagram D { node n: s  wire n.out[0] -> bound.out[0] }\n"
        "check member D in qcalc-bullet\n"
    )
    code, out, _ = run(capsys, "check", p)
    assert code == 1
    assert "fail" in out and "N=2" in out


def test_check_directive_can_target_a_box(tmp_path, capsys):
    p = tmp_path / "box_target.pd"
    p.write_text(
        "system q = Q(2)\nbox s : -> q = choi [2, 0, 0, 0]\n"
        "check member s in qcalc-bullet\ncheck member s in qcalc\n"
    )
    code, out, _ = run(capsys, "check", p)
    assert code == 1
    assert "check member s in qcalc-bullet: fail" in out
    assert "check member s in qcalc: pass" in out


def test_check_nosignalling_names_direction(tmp_path, capsys):
    p = tmp_path / "cap.pd"
    p.write_text(
        "system c = C(2)\nbox e : c * dual(c) -> = cap\n"
        "diagram F { node k: e  wire bound.in[0] -> k.in[0]  wire bound.in[1] -> k.in[1] }\n"
        "check nosignalling F in qpart\n"
    )
    code, out, _ = run(capsys, "check", p)
    assert code == 1
    assert "fail" in out and "causal->retro" in out


def test_check_unknown_property_exit_3(tmp_path, capsys):
    p = tmp_path / "u.pd"
    p.write_text(
        "system q = Q(2)\nbox s : -> q = maxmix\n"
        "diagram D { node n: s  wire n.out[0] -> bound.out[0] }\ncheck sideways D in qphys\n"
    )
    code, _, err = run(capsys, "check", p)
    assert code == 3
    assert "unknown property" in err


# Z2 acting on a qubit by the identity and Z; dephasing commutes with both
Z2_REP = "2 0\n0 1\n1 0\n2\n1 0 0 1\n1 0 0 -1\n"
INTERTWINER_FILE = (
    "system q = Q(2)\n"
    "box d : q -> q = choi [1, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 1]\n"
    "diagram D { node n: d  wire bound.in[0] -> n.in[0]  wire n.out[0] -> bound.out[0] }\n"
    "check intertwiner D in qcalc\n"
)


def test_check_intertwiner_with_rep_files(tmp_path, capsys):
    rep = tmp_path / "z2.grp"
    rep.write_text(Z2_REP)
    p = tmp_path / "deph.pd"
    p.write_text(INTERTWINER_FILE)
    code, out, _ = run(capsys, "check", p, "--rep-in", rep, "--rep-out", rep)
    assert code == 0 and "pass" in out


def test_theorems_reproducible(capsys):
    code1, out1, _ = run(capsys, "theorems", "--dims", "2", "--trials", "10", "--seed", "1")
    code2, out2, _ = run(capsys, "theorems", "--dims", "2", "--trials", "10", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 14


@pytest.mark.parametrize("dims, trials", [(1, 3), (4, 2)])
def test_theorems_pass_at_the_smallest_dim_and_a_wide_one(dims, trials, capsys):
    # d = 1 still runs the zero-branch cases at d = 2; d = 4 draws a 4-dimensional process-matrix memory
    code, out, err = run(capsys, "theorems", "--dims", dims, "--trials", trials)
    assert (code, err) == (0, "")
    assert [line.endswith(" pass=true") for line in out.splitlines()] == [True] * 14


def test_quotient_command(capsys):
    code, out, _ = run(capsys, "quotient", GOOD / "loop_qubit.pd")
    assert code == 0
    assert "N=4.0" in out and "canonical: scalar 1.0" in out


# |0><0| wired into the effect of |1><1|: a closed diagram whose value is exactly 0
ZERO_SCALAR_FILE = (
    "system q = Q(2)\nbox s : -> q = choi [1, 0, 0, 0]\nbox e : q -> = choi [0, 0, 0, 1]\n"
    "diagram Z { node a: s  node b: e  wire a.out[0] -> b.in[0] }\n"
)


def test_quotient_prints_the_zero_class_verdict_in_full(tmp_path, capsys):
    p = tmp_path / "zero.pd"
    p.write_text(ZERO_SCALAR_FILE)
    loop = run(capsys, "quotient", GOOD / "loop_qubit.pd")
    assert loop == (0, "Loop: N=4.0 zero=False\nLoop canonical: scalar 1.0\n", "")
    assert run(capsys, "quotient", p) == (0, "Z: N=0.0 zero=True\nZ canonical: scalar 0.0\n", "")


# a state that misses trace 1 by 1e-6: causal only under a loose tolerance
NEAR_FILE = (
    "system q = Q(2)\nbox s : -> q = choi [0.500001, 0, 0, 0.5]\n"
    "diagram D { node n: s  wire n.out[0] -> bound.out[0] }\ncheck causal D in qphys\n"
)


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    p = tmp_path / "near.pd"
    p.write_text(NEAR_FILE)
    code, out, _ = run(capsys, "check", p)
    assert code == 1
    monkeypatch.setenv("PROCTHEORY_TOL_EQ", "1e-3")
    code2, out2, _ = run(capsys, "check", p)
    assert code2 == 0


def test_quotient_unknown_diagram_exit_2(capsys):
    path = GOOD / "snake.pd"
    code, out, err = run(capsys, "quotient", path, "--diagram", "Missing")
    assert code == 2 and out == ""
    assert err.strip() == f"{path}: no diagram named 'Missing'"


def test_check_bad_rep_file_exit_2(tmp_path, capsys):
    target = GOOD / "snake.pd"
    missing = tmp_path / "missing.grp"
    code, _, err = run(capsys, "check", target, "--rep-in", missing, "--rep-out", missing)
    assert code == 2
    assert err.strip() == f"{missing}: No such file or directory"
    short = tmp_path / "short.grp"
    short.write_text("2 0\n0 1\n")
    code, _, err = run(capsys, "check", target, "--rep-in", short, "--rep-out", short)
    assert code == 2
    assert err.strip() == f"{short}: representation file ended early"
    # files that parse but are not a group and a unitary representation of it
    rows = [
        ("2 0\n0 0\n0 0\n2\n1 0 0 1\n1 0 0 1\n", "not a group: identity law fails at element 1"),
        ("2 0\n0 1\n1 0\n2\n1 0 0 1\n1 1 0 -1\n", "not a unitary representation: element 1 does not act unitarily"),
        ("2 7\n0 1\n1 0\n2\n1 0 0 1\n1 0 0 1\n", "not a group: identity element 7 out of range"),
        # entries outside the .pd entry syntax, values that are not finite, sizes below 1
        ("1 0\n0\n1\nnan\n", "bad matrix entry 'nan'"),
        ("1 0\n0\n1\nnanj\n", "bad matrix entry 'nanj'"),
        ("1 0\n0\n1\n(1+0j)\n", "bad matrix entry '(1+0j)'"),
        ("1 0\n0\n1\n1_0\n", "bad matrix entry '1_0'"),
        ("1 0\n0\n1\n1e999\n", "matrix entry 1e999 is not finite"),
        ("0 0\n1\n1\n", "group order must be >= 1, got 0"),
        ("1 0\n0\n-1\n", "matrix side must be >= 1, got -1"),
        # integer fields are an optional sign and at most 18 ASCII digits
        ("1 0\n0\n1.5\n1\n", "matrix side must be an integer, got '1.5'"),
        ("1 0\n0\n\u0663\n" + "1 " * 9 + "\n", "matrix side must be an integer, got '\u0663'"),
        ("1 0_0\n0\n1\n1\n", "identity element must be an integer, got '0_0'"),
        ("1x 0\n0\n1\n1\n", "group order must be an integer, got '1x'"),
        ("1 0\n0.0\n1\n1\n", "Cayley table entry must be an integer, got '0.0'"),
        ("1 0\n" + "9" * 20 + "\n1\n1\n", f"Cayley table entry {'9' * 20} is too large"),
        # tables that parse but break a group axiom checked after the identity and inverses
        ("2 0\n0 1\n1 5\n1\n1\n1\n", "not a group: table entries out of range"),
        ("3 0\n0 1 2\n1 1 0\n2 0 2\n1\n1\n1\n1\n", "not a group: associativity fails at triple (1, 1, 2)"),
    ]
    for k, (text, message) in enumerate(rows):
        rep = tmp_path / f"bad{k}.grp"
        rep.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", target, "--rep-in", rep, "--rep-out", rep)
        assert (code, out, err.strip()) == (2, "", f"{rep}: {message}")
        assert "Traceback" not in err


# A representation file with a run of field tokens, separators and short
# arbitrary strings put in at some offset, over some of its text: most texts
# fail deep in the table or the matrices, some still parse. Any text exits 0 or 2.
REP_FILES = [Z2_REP, "1 0\n0\n1\n1\n", "1 0 0 1 -0+0i\n", ""]
REP_TOKENS = ["0", "1", "2", "-1", "+1", "0.5", "1i", "-0+0i", "1 + 2i", "1e999", "nan", "9" * 19, "\u0663"]
REP_SEPARATORS = [" ", "\n", "", "\r", "\t", "\x85", "\u2028", " # c\n"]
rep_junk = st.lists(
    st.tuples(st.one_of(st.sampled_from(REP_TOKENS), st.text(max_size=2)), st.sampled_from(REP_SEPARATORS)),
    max_size=8,
).map(lambda pieces: "".join(piece + sep for piece, sep in pieces))
rep_text = st.builds(lambda base, at, junk, cut: base[:at] + junk + base[at + cut:],
                     st.sampled_from(REP_FILES), st.integers(0, len(Z2_REP)), rep_junk, st.integers(0, 4))


@given(text=rep_text)
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # each example rewrites the file
def test_any_rep_file_exits_0_or_2_with_a_one_line_diagnostic(text, tmp_path, capsys):
    rep = tmp_path / "fuzz.grp"
    rep.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", SNAKE, "--rep-in", rep, "--rep-out", rep)
    assert "Traceback" not in err
    if code == 0:
        assert (out, err) == (run(capsys, "check", SNAKE)[1], "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"{rep}: ") and err.endswith("\n") and err.count("\n") == 1, err


def test_eval_long_chain_file(tmp_path, capsys):
    # maxmix -> 1998 identities -> discard: no planner, recursion or einsum-label limit on the way
    p = tmp_path / "chain.pd"
    p.write_text(gen.identity_chain("Chain", 2000).text)
    code, out, err = run(capsys, "eval", p, "--theory", "qphys")
    assert (code, err) == (0, "")
    assert out == "Chain: scalar 1.0\n"


QPART_FILE = (
    "system q = Q(2)\n"
    "box m : q -> dual(q) = choi [{entries}]\n"
    "diagram D {{ node n: m  wire bound.in[0] -> n.in[0]  wire n.out[0] -> bound.out[0] }}\n"
    "check member D in qpart\n"
)


def test_check_member_in_qpart(tmp_path, capsys):
    # discard on the causal input (x) noise on the retrocausal output: no signalling
    p = tmp_path / "qpart_member.pd"
    p.write_text(QPART_FILE.format(entries="1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"))
    code, out, err = run(capsys, "check", p)
    assert "Traceback" not in err
    assert (code, out) == (0, "check member D in qpart: pass\n")
    rep = tmp_path / "z2.grp"
    rep.write_text(Z2_REP)
    code, out, _ = run(capsys, "check", p, "--rep-in", rep, "--rep-out", rep)
    assert (code, out) == (0, "check member D in qpart: pass\n")


def test_check_signalling_map_not_in_qpart(tmp_path, capsys):
    # a bent identity carries the causal input into the retrocausal output
    p = tmp_path / "qpart_signalling.pd"
    p.write_text(QPART_FILE.format(entries="1,0,0,1, 0,0,0,0, 0,0,0,0, 1,0,0,1"))
    code, out, err = run(capsys, "check", p)
    assert "Traceback" not in err
    assert code == 1
    assert out.startswith("check member D in qpart: fail (not a member of qpart: failed ")
    assert "no-signalling-causal-retro" in out


# A bit flip mixed with the identity: no signalling, but it does not commute with Z
FLIP_FILE = (
    "system q = Q(2)\n"
    "box p : q -> q = choi [0.5,0.5,0,0, 0.5,0.5,0,0, 0,0,0.5,0.5, 0,0,0.5,0.5]\n"
    "check {prop} p in {theory}\n"
)


@pytest.mark.parametrize("prop, theory", [("member", "qpart"), ("intertwiner", "qcalc")])
@pytest.mark.parametrize("flag", ["--rep-in", "--rep-out"])
def test_check_with_one_rep_file_exit_2(tmp_path, capsys, prop, theory, flag):
    rep = tmp_path / "z2.grp"
    rep.write_text(Z2_REP)
    p = tmp_path / "flip.pd"
    p.write_text(FLIP_FILE.format(prop=prop, theory=theory))
    code, out, err = run(capsys, "check", p, flag, rep)
    assert (code, out, err) == (2, "", f"check {prop} p in {theory}: supply --rep-in and --rep-out files\n")
    code, out, err = run(capsys, "check", p, "--rep-in", rep, "--rep-out", rep)
    detail = " (not a member of qpart: failed intertwiner)" if prop == "member" else ""
    assert (code, out, err) == (1, f"check {prop} p in {theory}: fail{detail}\n", "")


# Z3 and Z2, each acting trivially on a qubit
Z3_TRIVIAL = "3 0\n0 1 2\n1 2 0\n2 0 1\n2\n1 0 0 1\n1 0 0 1\n1 0 0 1\n"
Z2_TRIVIAL = "2 0\n0 1\n1 0\n2\n1 0 0 1\n1 0 0 1\n"


@pytest.mark.parametrize("prop, theory", [("member", "qpart"), ("intertwiner", "qcalc")])
@pytest.mark.parametrize("rep_in, rep_out", [(Z3_TRIVIAL, Z2_TRIVIAL), (Z2_TRIVIAL, Z3_TRIVIAL)],
                         ids=["Z3-in-Z2-out", "Z2-in-Z3-out"])
def test_check_rep_files_of_different_groups_exit_2(tmp_path, capsys, prop, theory, rep_in, rep_out):
    (tmp_path / "in.grp").write_text(rep_in)
    (tmp_path / "out.grp").write_text(rep_out)
    p = tmp_path / "id.pd"
    p.write_text(f"system q = Q(2)\nbox p : q -> q = id\ncheck {prop} p in {theory}\n")
    code, out, err = run(capsys, "check", p, "--rep-in", tmp_path / "in.grp", "--rep-out", tmp_path / "out.grp")
    assert (code, out, err) == (2, "", f"check {prop} p in {theory}: rep_in and rep_out represent different groups\n")
    code, out, err = run(capsys, "check", p, "--rep-in", tmp_path / "in.grp", "--rep-out", tmp_path / "in.grp")
    assert (code, out, err) == (0, f"check {prop} p in {theory}: pass\n", "")


def test_check_rep_of_wrong_size_exit_2(tmp_path, capsys):
    p = tmp_path / "qpart_member.pd"
    p.write_text(QPART_FILE.format(entries="1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1"))
    rep = tmp_path / "z2_on_qutrit.grp"
    rep.write_text("2 0\n0 1\n1 0\n3\n1 0 0 0 1 0 0 0 1\n1 0 0 0 1 0 0 0 1\n")
    code, out, err = run(capsys, "check", p, "--rep-in", rep, "--rep-out", rep)
    assert (code, out) == (2, "")
    assert err == "check member D in qpart: unitary for element 0 has shape (3, 3), expected (2, 2)\n"


# Malformed flags and environment: argparse's one-line diagnostic and exit 2, never a traceback.
SNAKE = GOOD / "snake.pd"
BAD_TOL = "must be float >= 0.0, got"
MALFORMED_FLAGS = [
    (["eval", SNAKE, "--theory", "nope"], {}, "--theory: invalid choice: 'nope'"),
    (["eval", SNAKE, "--tol-eq", "-1"], {}, f"--tol-eq: {BAD_TOL} '-1'"),
    (["eval", SNAKE, "--tol-zero", "-1"], {}, f"--tol-zero: {BAD_TOL} '-1'"),
    (["check", SNAKE, "--tol-eq", "-1"], {}, f"--tol-eq: {BAD_TOL} '-1'"),
    (["check", SNAKE, "--tol-zero", "-1"], {}, f"--tol-zero: {BAD_TOL} '-1'"),
    (["quotient", SNAKE, "--tol-eq", "nan"], {}, f"--tol-eq: {BAD_TOL} 'nan'"),
    (["theorems", "--tol-zero", "-1"], {}, f"--tol-zero: {BAD_TOL} '-1'"),
    (["theorems", "--tol-eq", "-1"], {}, f"--tol-eq: {BAD_TOL} '-1'"),
    (["eval", SNAKE], {"PROCTHEORY_TOL_EQ": "abc"}, f"--tol-eq: {BAD_TOL} 'abc'"),
    (["theorems"], {"PROCTHEORY_TOL_EQ": "abc"}, f"--tol-eq: {BAD_TOL} 'abc'"),
    (["theorems", "--dims", "0"], {}, "--dims: must be int >= 1, got '0'"),
    (["theorems", "--dims", "2", "x"], {}, "--dims: must be int >= 1, got 'x'"),
    (["theorems", "--trials", "-1"], {}, "--trials: must be int >= 1, got '-1'"),
    (["theorems", "--trials", "0"], {}, "--trials: must be int >= 1, got '0'"),
    (["theorems", "--seed", "-1"], {}, "--seed: must be int >= 0, got '-1'"),
]


@pytest.mark.parametrize("argv, env, message", MALFORMED_FLAGS)
def test_malformed_flag_exit_2(argv, env, message, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith(f"proctheory {argv[0]}: error: argument {message}")


@pytest.mark.parametrize("path", sorted(GOOD.glob("*.pd")), ids=lambda p: p.name)
def test_eval_under_qpart_is_eval_under_qcalc(path, capsys):
    """qpart wires like qcalc where every wire joins equal orientations, as in the good corpus:
    eval prints the same bytes."""
    assert run(capsys, "eval", path, "--theory", "qpart") == run(capsys, "eval", path, "--theory", "qcalc")


# a causal output wired into a retrocausal input: legal in qcalc, a rule iii violation in qpart
CROSSED = (
    "system q = Q(2)\nbox m : -> q = maxmix\nbox x : dual(q) -> = discard\n"
    "diagram D {\n  node a: m  node b: x\n  wire a.out[0] -> b.in[0]\n}\n"
)
CROSSED_VIOLATION = "6:3: iii: wire a.out[0] -> b.in[0] connects mismatched systems Q(2) and dual(Q(2))"


@pytest.mark.parametrize("directives", [("member D in qpart", "causal D in qcalc"),
                                        ("causal D in qcalc", "member D in qpart")],
                         ids=["qpart_first", "qcalc_first"])
def test_qpart_wires_join_equal_orientations(directives, tmp_path, capsys):
    p = tmp_path / "crossed.pd"
    p.write_text(CROSSED + "".join(f"check {d}\n" for d in directives))
    assert run(capsys, "check", p) == (1, "check causal D in qcalc: pass\n", f"{p}:{CROSSED_VIOLATION}\n")
    assert run(capsys, "eval", p, "--theory", "qpart") == (1, "", f"{p}:{CROSSED_VIOLATION}\n")
    assert run(capsys, "eval", p, "--theory", "qcalc") == (0, "D: scalar 1.0\n", "")


@pytest.mark.parametrize("command", ["eval", "check", "quotient"])
def test_strict_orientation_flag_is_gone(command, capsys):
    """Orientation is the theory row's to decide: the flag is an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(SNAKE), "--strict-orientation"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == "proctheory: error: unrecognized arguments: --strict-orientation"


def test_theory_name_is_case_insensitive(capsys):
    code, out, err = run(capsys, "eval", GOOD / "loop_qubit.pd", "--theory", "QPHYS")
    assert (code, err) == (0, "") and out == "Loop: scalar 4.0\n"


# Inputs the lexer once misread or crashed on: one diagnostic and exit 2, never a traceback.
CHOI_INF = "box b : -> = choi [1e999]\ndiagram D { node n: b }\n"
# one-line node and wire statements, each failing one check of the parser
IDENTITY = "system q = Q(2)\nbox w : q -> q = id\ndiagram D {\n  node a : w\n"
# wirings of finite processes whose values overflow, to NaN and to inf
OVERFLOWS = [("system q = Q(2)\nbox rho : -> q = choi [1e300, 1e300, 1e300, 1e300]\n"
              "box e : q -> = choi [1e300, -1e300, -1e300, 1e300]\n"
              "diagram Z {\n  node s : rho\n  node m : e\n  wire s.out[0] -> m.in[0]\n}\n"
              "check causal Z in qcalc\n", "4:1: semantic: diagram 'Z' overflows"),
             ("system q = Q(2)\nbox rho : -> q = choi [1e300, 0, 0, 1e300]\n"
              f"box big : q -> q = choi [{', '.join(str(1e300 * x) for x in np.eye(4).ravel())}]\n"
              "diagram Open {\n  node s : rho\n  node b : big\n  wire s.out[0] -> b.in[0]\n"
              "  wire b.out[0] -> bound.out[0]\n}\n"
              "check causal Open in qcalc\ncheck member Open in qcalc-bullet\n",
              "4:1: semantic: diagram 'Open' overflows")]
BAD_SOURCES = [
    ("parse", "system q = Q(²)\n", "1:14: parse: unexpected character '²'"),
    ("eval", "system q = Q(²)\n", "1:14: parse: unexpected character '²'"),
    ("parse", "system q = Q(1e999)\n", "1:14: parse: expected integer dimension, got 1e999"),
    ("check", "system q = Q(1e999)\n", "1:14: parse: expected integer dimension, got 1e999"),
    ("eval", CHOI_INF, "1:5: semantic: invalid choi literal for 'b': choi operator has non-finite entries"),
    ("quotient", CHOI_INF, "1:5: semantic: invalid choi literal for 'b': choi operator has non-finite entries"),
    ("parse", b"system q = Q(2) \xff\n", "1:17: parse: unexpected character '�'"),
    ("eval", IDENTITY + "  wire ghost.out[0] -> a.in[0]\n}\n", "5:8: parse: undefined node reference 'ghost'"),
    ("eval", IDENTITY + "  wire a.out[0] -> ghost.in[0]\n}\n", "5:20: parse: undefined node reference 'ghost'"),
    ("check", IDENTITY + "  node a : w\n}\n", "5:8: parse: duplicate identifier 'a' in diagram 'D'"),
    ("eval", IDENTITY + "  node bound : w\n}\n", "5:8: parse: 'bound' is reserved for boundary ports"),
    ("parse", IDENTITY + "  node b : ghost\n}\n", "5:12: parse: undefined box reference 'ghost'"),
    ("eval", IDENTITY + "  wire a.out[1.5] -> a.in[0]\n}\n", "5:14: parse: expected integer port index, got 1.5"),
    ("quotient", IDENTITY + "  wire a.out[0] -> a.in[1e999]\n}\n",
     "5:25: parse: expected integer port index, got 1e999"),
    # node and wire are reserved words, so they name no box or diagram
    *[(command, source, diagnostic) for command in ("parse", "eval", "check") for source, diagnostic in (
        ("system q = Q(2)\nbox wire : q -> q = id\n", "2:5: parse: expected box name, got 'wire'"),
        ("box b : -> = discard\ndiagram node {}\n", "2:9: parse: expected diagram name, got 'node'"))],
    # integers are exact past 2**53: once read as 9007199254740992 and 100000000000000000000
    ("eval", "system q = Q(9007199254740993)\nbox b : -> q = choi [1]\n",
     "2:5: semantic: choi literal for 'b' needs 81129638414606699710187514626049 entries "
     "(9007199254740993x9007199254740993), got 1"),
    ("check", "system q = Q(99999999999999999999)\nbox b : -> q = choi [1]\n",
     "2:5: semantic: choi literal for 'b' needs 9999999999999999999800000000000000000001 entries "
     "(99999999999999999999x99999999999999999999), got 1"),
    ("eval", "box b : -> = discard\ncheck causal b at qphys\n", "2:16: parse: expected 'in', got 'at'"),
    ("parse", "system bound = Q(2)\n", "1:8: parse: 'bound' is reserved for boundary ports"),
    ("check", "box bound : -> = noise\n", "1:5: parse: 'bound' is reserved for boundary ports"),
    ("eval", "system q = Q(0)\n", "1:12: parse: wire dimension must be >= 1, got 0"),
    # a generator's type is fixed by the declared side that carries its system
    ("eval", "system q = Q(2)\nbox b : -> q * q * q = cup\n",
     "2:5: semantic: cup here is I -> Q(2) * Q(2), not I -> Q(2) * Q(2) * Q(2)"),
    ("check", "box b : C(2) -> dual(Q(2)) = id\n", "1:5: semantic: id here is C(2) -> C(2), not C(2) -> dual(Q(2))"),
    ("quotient", "box b : Q(2) * C(2) -> Q(2) * Q(2) = swap\n",
     "1:5: semantic: swap output Q(2) * Q(2) is not a rotation of input Q(2) * C(2)"),
    # one diagnostic at the diagram keyword, and no value or verdict for that diagram
    *[(command, source, diagnostic) for source, diagnostic in OVERFLOWS for command in ("eval", "check", "quotient")],
]


@pytest.mark.parametrize("command, source, diagnostic", BAD_SOURCES)
def test_bad_source_exit_2(command, source, diagnostic, tmp_path, capsys):
    p = tmp_path / "bad.pd"
    p.write_bytes(source if isinstance(source, bytes) else source.encode())
    code, out, err = run(capsys, command, p)
    assert "Traceback" not in err
    assert (code, out, err) == (2, "", f"{p}:{diagnostic}\n")


# Files that cannot be read: `path: reason` and exit 2, the form representation files get.
@pytest.mark.parametrize("command", ["parse", "eval", "check", "quotient"])
@pytest.mark.parametrize("name, reason", [("missing.pd", "No such file or directory"), (".", "Is a directory")])
def test_unreadable_file_exit_2(command, name, reason, tmp_path, capsys):
    path = tmp_path / name
    assert run(capsys, command, path) == (2, "", f"{path}: {reason}\n")


# Wirings that parse but break a rule: exit 1, every violation on stderr, in order.
BAD_WIRINGS = [
    ("eval", IDENTITY + "  wire bound.in[0] -> a.in[0]\n  wire a.out[9007199254740993] -> bound.out[0]\n}\n",
     ["6:3: structure: port a.out[9007199254740993] out of range (box 'w' has 1 out ports)",
      "4:8: structure: port a.out[0] is not wired"]),
    ("quotient", IDENTITY + "  wire bound.in[0] -> a.in[99999999999999999999]\n  wire a.out[0] -> bound.out[0]\n}\n",
     ["5:3: structure: port a.in[99999999999999999999] out of range (box 'w' has 1 in ports)",
      "4:8: structure: port a.in[0] is not wired"]),
    # an out-of-range node port is no boundary port: rule iii stays silent
    ("eval", IDENTITY + "  wire bound.in[0] -> a.in[0]\n  wire a.out[5] -> bound.out[0]\n}\n",
     ["6:3: structure: port a.out[5] out of range (box 'w' has 1 out ports)",
      "4:8: structure: port a.out[0] is not wired"]),
    ("check", "diagram D {\n  wire bound.in[0] -> bound.out[0]\n}\ncheck causal D in qcalc\n",
     ["2:3: iii: wire bound.in[0] -> bound.out[0] connects two boundary ports; its type cannot be inferred"]),
]


# A two-node cycle, its wires written output port first or input port first:
# rule ii under an acyclic theory, a closed loop under a compact one.
CYCLE_WIRES = ["  wire a.out[0] -> b.in[0]\n  wire b.out[0] -> a.in[0]\n",
               "  wire b.in[0] -> a.out[0]\n  wire a.in[0] -> b.out[0]\n"]
BAD_WIRINGS += [("eval --theory qphys", IDENTITY + "  node b : w\n" + wires + "}\n",
                 ["4:8: ii: wiring cycle through node 'a'; the theory is acyclic-only"]) for wires in CYCLE_WIRES]


@pytest.mark.parametrize("wires", CYCLE_WIRES)
def test_two_node_cycle_is_a_loop_under_qcalc(wires, tmp_path, capsys):
    p = tmp_path / "cycle.pd"
    p.write_text(IDENTITY + "  node b : w\n" + wires + "}\n")
    assert run(capsys, "eval", p, "--theory", "qcalc") == (0, "D: scalar 4.0\n", "")


@pytest.mark.parametrize("command, source, diagnostics", BAD_WIRINGS)
def test_bad_wiring_exit_1(command, source, diagnostics, tmp_path, capsys):
    p = tmp_path / "bad.pd"
    p.write_text(source)
    command, *flags = command.split()
    code, out, err = run(capsys, command, p, *flags)
    assert (code, out, err) == (1, "", "".join(f"{p}:{d}\n" for d in diagnostics))


# one check directive on a box; `check member` under every directive theory gives the exact line,
# with N and the failed laws
MEMBER_FILE = (
    "system q = Q(2)\n"
    "box mu : -> q = maxmix\n"
    "box nu : -> q = noise\n"
    "box twice : q -> q = choi [2,0,0,2, 0,0,0,0, 0,0,0,0, 2,0,0,2]\n"  # twice the identity
    "check {prop} {box} in {theory}\n"
)
NO_SIGNALLING_BOTH = "failed no-signalling-causal-retro, no-signalling-retro-causal"
MEMBER_ROWS = [
    ("mu", theory, 0, "pass")
    for theory in ("qphys", "qphys-unital", "qcalc", "qcalc-bullet", "qcalc-quotient", "qneut", "qpart")
] + [
    ("nu", "qphys", 1, "fail (not a member of qphys (N=2): failed causal)"),
    ("nu", "qphys-unital", 1, "fail (not a member of qphys-unital (N=2): failed causal, unital)"),
    ("nu", "qcalc", 0, "pass"),
    ("nu", "qcalc-bullet", 1, "fail (not a member of qcalc-bullet (N=2): failed representative)"),
    ("nu", "qcalc-quotient", 0, "pass"),
    ("nu", "qneut", 0, "pass"),
    ("nu", "qpart", 1, f"fail (not a member of qpart: {NO_SIGNALLING_BOTH})"),
    ("twice", "qphys", 1, "fail (not a member of qphys (N=2): failed causal)"),
    ("twice", "qphys-unital", 1, "fail (not a member of qphys-unital (N=2): failed causal, unital)"),
    ("twice", "qcalc", 0, "pass"),
    ("twice", "qcalc-bullet", 1, "fail (not a member of qcalc-bullet (N=2): failed representative)"),
    ("twice", "qcalc-quotient", 0, "pass"),
    ("twice", "qneut", 1, "fail (not a member of qneut (N=2): failed strictly-positive)"),
    ("twice", "qpart", 1, f"fail (not a member of qpart: {NO_SIGNALLING_BOTH})"),
    ("twice", "QPART", 1, f"fail (not a member of qpart: {NO_SIGNALLING_BOTH})"),
    ("twice", "QPhys", 1, "fail (not a member of qphys (N=2): failed causal)"),
]


@pytest.mark.parametrize("box, theory, code, verdict", MEMBER_ROWS)
def test_check_member_table(box, theory, code, verdict, tmp_path, capsys):
    p = tmp_path / "member.pd"
    p.write_text(MEMBER_FILE.format(prop="member", box=box, theory=theory))
    assert run(capsys, "check", p) == (code, f"check member {box} in {theory}: {verdict}\n", "")


# the one-sided laws on the same boxes: a box target is judged on its process, by a partial trace
LAW_ROWS = [
    ("causal", "mu", 0, "pass"), ("retrocausal", "mu", 1, "fail"), ("unital", "mu", 0, "pass"),
    ("causal", "nu", 1, "fail"), ("retrocausal", "nu", 0, "pass"), ("unital", "nu", 1, "fail"),
    ("causal", "twice", 1, "fail"), ("retrocausal", "twice", 1, "fail"), ("unital", "twice", 1, "fail"),
]


@pytest.mark.parametrize("prop, box, code, verdict", LAW_ROWS)
def test_check_law_on_a_box(prop, box, code, verdict, tmp_path, capsys):
    p = tmp_path / "law.pd"
    p.write_text(MEMBER_FILE.format(prop=prop, box=box, theory="qcalc"))
    assert run(capsys, "check", p) == (code, f"check {prop} {box} in qcalc: {verdict}\n", "")


# `check nosignalling` on a box reads time direction from its declared orientations alone:
# a generator box and the choi literal of the same process give the same line, and
# `check member` in qpart follows it
SIGNALLING_BOTH = "fail (signalling: causal->retro, retro->causal)"
NO_SIGNALLING_ROWS = [
    ("q -> q", "id", 0, "pass"),
    ("q * dual(q) -> q * dual(q)", "id", 0, "pass"),
    ("q -> dual(q)", "id", 1, SIGNALLING_BOTH),
    ("q -> dual(q)", gen.choi_literal(P.identity(Q(2)).choi), 1, SIGNALLING_BOTH),
    ("q * dual(q) -> dual(q) * q", "id", 1, SIGNALLING_BOTH),
    ("q * dual(q) -> dual(q) * q", gen.choi_literal(P.identity(Q(2) * Q(2)).choi), 1, SIGNALLING_BOTH),
]


@pytest.mark.parametrize("signature, body, code, verdict", NO_SIGNALLING_ROWS,
                         ids=[f"{b[:4]}: {s}" for s, b, _, _ in NO_SIGNALLING_ROWS])
def test_check_nosignalling_on_a_box(signature, body, code, verdict, tmp_path, capsys):
    p = tmp_path / "nosignalling.pd"
    p.write_text(f"system q = Q(2)\nbox b : {signature} = {body}\ncheck nosignalling b in qpart\n"
                 "check member b in qpart\n")
    member = f"fail (not a member of qpart: {NO_SIGNALLING_BOTH})" if code else "pass"
    out = f"check nosignalling b in qpart: {verdict}\ncheck member b in qpart: {member}\n"
    assert run(capsys, "check", p) == (code, out, "")


def test_check_unknown_theory_exit_2(tmp_path, capsys):
    p = tmp_path / "member.pd"
    p.write_text(MEMBER_FILE.format(prop="member", box="mu", theory="nope"))
    code, out, err = run(capsys, "check", p)
    assert "Traceback" not in err
    expected = "['qcalc', 'qcalc-bullet', 'qcalc-quotient', 'qneut', 'qpart', 'qphys', 'qphys-unital']"
    assert (code, out) == (2, "")
    assert err == f"check member mu in nope: unknown theory 'nope'; expected one of {expected}\n"


LAW_PREDICATES = {"causal": P.is_causal, "retrocausal": P.preserves_identity, "unital": P.preserves_max_mixed}


@pytest.mark.parametrize("tol_eq", [None, 1e-3])
@pytest.mark.parametrize("law", LAW_PREDICATES)
def test_law_verdicts_on_closed_diagrams_match_the_process_predicates(law, tol_eq, tmp_path, capsys,
                                                                     monkeypatch):
    """A file whose directives are all one law evaluates each diagram closed; every verdict is
    the predicate's on the full process, under the same tolerance."""
    monkeypatch.delenv("PROCTHEORY_TOL_EQ", raising=False)
    tol = dataclasses.replace(DEFAULT_TOL, eq_rel=tol_eq or DEFAULT_TOL.eq_rel)
    flags = [] if tol_eq is None else ["--tol-eq", tol_eq]
    texts = [path.read_text() for path in sorted(GOOD.glob("*.pd"))] + [NEAR_FILE]
    texts += [gen.brick_circuit(np.random.default_rng(seed), "Brick", closed=False).text for seed in (777, 9)]
    verdicts = []
    for k, text in enumerate(texts):
        source = "".join(line + "\n" for line in text.splitlines() if not line.startswith("check"))
        parsed = cli.dlang.parse(source)
        env = cli.dlang.build_env(parsed)
        expected = ""
        for name, diagram in parsed.diagrams.items():
            source += f"check {law} {name} in qcalc\n"
            verdicts.append(LAW_PREDICATES[law](cli.dlang.evaluate(diagram, env), tol))
            expected += f"check {law} {name} in qcalc: {'pass' if verdicts[-1] else 'fail'}\n"
        path = tmp_path / f"{k}.pd"
        path.write_text(source)
        assert run(capsys, "check", path, *flags) == (1 if "fail" in expected else 0, expected, ""), k
    assert len(verdicts) == 17 and True in verdicts and False in verdicts


def test_causal_check_on_a_wide_state_never_builds_its_choi_operator(tmp_path):
    """20 maxmix wires: the full Choi operator has 2**40 entries, the closed diagram is a
    scalar. Run under a 2 GiB address-space limit, so a full evaluation fails instead of paging."""
    n = 20
    path = tmp_path / "wide.pd"
    path.write_text("system q = Q(2)\nbox m : -> q = maxmix\ndiagram S {\n"
                    + "".join(f"  node a{k}: m\n" for k in range(n))
                    + "".join(f"  wire a{k}.out[0] -> bound.out[{k}]\n" for k in range(n))
                    + "}\ncheck causal S in qphys\n")
    assert run_in_2_gib("check", path) == (0, "check causal S in qphys: pass\n", "")


def run_in_2_gib(*argv):
    """``(exit code, stdout, stderr)`` of the console command under a 2 GiB address-space limit."""
    limit = 2 << 30
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "proctheory.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return done.returncode, done.stdout, done.stderr


# Generator declarations on many wires that their type rejects. Built first, the id and the cup
# would each take 4 GiB, and the discard 16 TiB; under 2 GiB only a check before any array passes.
@pytest.mark.parametrize("generator, n_in, n_out, typed", [
    ("id", 7, 1, (7, 7)), ("cup", 0, 15, (0, 14)), ("discard", 20, 1, (20, 0))])
def test_wide_generator_declaration_is_rejected_before_any_array(generator, n_in, n_out, typed, tmp_path):
    written = lambda n: " * ".join(["q"] * n)
    shown = lambda n: " * ".join(["Q(2)"] * n) or "I"
    path = tmp_path / "wide.pd"
    path.write_text(f"system q = Q(2)\nbox b : {written(n_in)} -> {written(n_out)} = {generator}\n")
    diagnostic = (f"{path}:2:5: semantic: {generator} here is {shown(typed[0])} -> {shown(typed[1])}, "
                  f"not {shown(n_in)} -> {shown(n_out)}\n")
    assert run_in_2_gib("eval", path) == (2, "", diagnostic)


# A check file naming one diagram in several directives: each diagram is typechecked once per
# wiring capability (qphys has no caps, qcalc has) and evaluated once, and a failed typecheck is
# reported for every directive it fails. A diagram whose directives are all laws on one side is
# evaluated closed on that side; any other is evaluated in full.
RULE_I_CHECKS = (
    (BAD / "bad_rule_i.pd").read_text()
    + "check causal OutOut in qphys\ncheck member OutOut in qphys\n"
    + "check causal OutOut in qcalc\ncheck member OutOut in qcalc\n"
)
RULE_I_VIOLATION = "7:5: i: wire a.out[0] -> b.out[0] connects two outputs; the theory has no caps"
IN_LAWS = (GOOD / "identity_boxes.pd").read_text().replace("check causal Plain in qphys\n", "")
CHECK_ONCE_ROWS = [
    ((GOOD / "dephasing_unital.pd").read_text(), 1, (1, 0), 0,
     "check causal Deph in qphys: pass\ncheck unital Deph in qphys-unital: pass\n"
     "check member Deph in qphys-unital: pass\n", []),
    (RULE_I_CHECKS, 2, (1, 0), 1,
     "check causal OutOut in qcalc: fail\ncheck member OutOut in qcalc: pass\n", [RULE_I_VIOLATION] * 2),
    ((GOOD / "bell_state.pd").read_text(), 1, (0, 1), 0, "check causal Bell in qphys: pass\n", []),
    ((GOOD / "snake.pd").read_text(), 1, (1, 0), 0,
     "check causal Snake in qcalc: pass\ncheck retrocausal Snake in qcalc: pass\n", []),
    (IN_LAWS, 2, (0, 1), 0,
     "check retrocausal Plain in qcalc: pass\ncheck unital Plain in qphys-unital: pass\n", []),
    (CROSSED + "check causal D in qcalc\ncheck member D in qpart\ncheck member D in qcalc\n", 2, (1, 0), 1,
     "check causal D in qcalc: pass\ncheck member D in qcalc: pass\n", [CROSSED_VIOLATION]),
]


@pytest.mark.parametrize("source, typechecks, evaluations, code, out, violations", CHECK_ONCE_ROWS,
                         ids=["dephasing_unital", "rule_i_with_and_without_caps", "causal_only",
                              "snake_laws_on_both_sides", "input_side_laws", "with_and_without_orientation"])
def test_check_compiles_each_diagram_once(source, typechecks, evaluations, code, out, violations,
                                          tmp_path, capsys, monkeypatch):
    """``evaluations`` counts (full, closed) evaluations."""
    path = tmp_path / "checks.pd"
    path.write_text(source)
    calls = {"typecheck": 0, "full": 0, "closed": 0}
    closed = []

    def typecheck(*args, _real=cli.dlang.typecheck, **kwargs):
        calls["typecheck"] += 1
        return _real(*args, **kwargs)

    def close(*args, _real=cli.dlang.close, **kwargs):
        closed.append(_real(*args, **kwargs))
        return closed[-1]

    def evaluate(diagram, *args, _real=cli.dlang.evaluate, **kwargs):
        calls["closed" if any(diagram is d for d, _ in closed) else "full"] += 1
        return _real(diagram, *args, **kwargs)

    for fn in (typecheck, close, evaluate):
        monkeypatch.setattr(cli.dlang, fn.__name__, fn)
    assert run(capsys, "check", path) == (code, out, "".join(f"{path}:{v}\n" for v in violations))
    assert calls == {"typecheck": typechecks, "full": evaluations[0], "closed": evaluations[1]}


# a dual leg into an up-oriented port: wrong only under qpart, whose wires join equal orientations
STRICT_FILE = (
    "system q = Q(2)\nbox u : -> q * dual(q) = cup\nbox d : q -> = discard\n"
    "diagram S { node c: u  node t: d  node t2: d\n"
    "  wire c.out[0] -> t.in[0]  wire c.out[1] -> t2.in[0] }\n"
)


# `main` reuses one parser across calls in a process: no call may leave state for the next.
def flag_pairs(tmp_path):
    """Pairs of argv lists, with a flag and without it, whose outputs differ."""
    files = {"strict.pd": STRICT_FILE, "near.pd": NEAR_FILE, "deph.pd": INTERTWINER_FILE,
             "z2.grp": Z2_REP}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    strict, near, deph, rep = (tmp_path / name for name in files)
    mixed = GOOD / "maxmix_noise.pd"
    return [
        (["eval", mixed, "--diagram", "Noise"], ["eval", mixed]),
        (["eval", strict, "--theory", "qpart"], ["eval", strict]),
        (["check", deph, "--rep-in", rep, "--rep-out", rep], ["check", deph]),
        (["check", near, "--tol-eq", "1e-3"], ["check", near]),
        (["eval", BAD / "bad_rule_i.pd", "--theory", "QPHYS"], ["eval", BAD / "bad_rule_i.pd"]),
    ]


@pytest.mark.parametrize("flag_first", [True, False])
def test_reused_parser_keeps_no_state(flag_first, tmp_path, capsys):
    pairs = flag_pairs(tmp_path)
    sequence = [argv for pair in pairs for argv in (pair if flag_first else pair[::-1])]
    seen = {}
    for argv in sequence:
        seen[str(argv)] = run(capsys, *argv)
        assert seen[str(argv)] == run(capsys, *argv, parser=cli.build_parser())
    for with_flag, without in pairs:
        assert seen[str(with_flag)] != seen[str(without)]


def test_tol_eq_env_read_on_every_call(tmp_path, capsys, monkeypatch):
    p = tmp_path / "near.pd"
    p.write_text(NEAR_FILE)
    monkeypatch.setenv("PROCTHEORY_TOL_EQ", "1e-3")
    assert run(capsys, "check", p) == (0, "check causal D in qphys: pass\n", "")
    monkeypatch.delenv("PROCTHEORY_TOL_EQ")  # back to 1e-9
    assert run(capsys, "check", p) == (1, "check causal D in qphys: fail\n", "")
    monkeypatch.setenv("PROCTHEORY_TOL_EQ", "abc")
    code, out, err = run(capsys, "check", p)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"proctheory check: error: argument --tol-eq: {BAD_TOL} 'abc'"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    builds = []

    def counted(_real=cli.build_parser):
        builds.append(1)
        return _real()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.delenv("PROCTHEORY_TOL_EQ", raising=False)
    cli._parser_for.cache_clear()
    for command in ("eval", "check", "parse", "quotient", "eval", "check"):
        assert run(capsys, command, SNAKE)[0] == 0
    assert len(builds) == 1
    monkeypatch.setenv("PROCTHEORY_TOL_EQ", "1e-6")  # the one input build_parser reads
    for _ in range(3):
        assert run(capsys, "eval", SNAKE)[0] == 0
    assert len(builds) == 2


@pytest.mark.parametrize("command", ["parse", "eval", "check", "theorems", "quotient"])
def test_help_matches_a_fresh_parser(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, command, "--help", parser=cli.build_parser())
    assert expected[0] == 0 and expected[1].startswith(f"usage: proctheory {command} ")
    for _ in range(2):
        assert run(capsys, command, "--help") == expected


# README's command block documents only flags the parser has: a removed flag cannot stay documented.
README = Path(__file__).parents[1] / "README.md"


def undocumented_flags(readme):
    """``(command, flag)`` for each ``--flag`` on a ``proctheory <command>`` line of the ``sh``
    block under "Command line" that the command's parser lacks, and the commands it names."""
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    named, missing = set(), []
    for command, rest in re.findall(r"^proctheory (\w+)(.*)", block, re.M):
        named.add(command)
        missing += [(command, flag) for flag in re.findall(r"--[\w-]+", rest.split("#")[0])
                    if flag not in commands[command]._option_string_actions]
    return missing, named


def test_readme_command_block_names_only_parser_flags():
    readme = README.read_text()
    assert undocumented_flags(readme) == ([], {"parse", "eval", "check", "theorems", "quotient"})
    head = "## Command line\n\n```sh\n"
    stale = readme.replace(head, head + "proctheory eval FILE --strict-orientation   # gone\n")
    assert undocumented_flags(stale)[0] == [("eval", "--strict-orientation")]
