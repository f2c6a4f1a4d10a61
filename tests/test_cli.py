from pathlib import Path

import pytest

from proctheory import cli

GOOD = Path(__file__).parent / "data" / "pd" / "good"
BAD = Path(__file__).parent / "data" / "pd" / "bad"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
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


def test_check_intertwiner_with_rep_files(tmp_path, capsys):
    rep = tmp_path / "z2.grp"
    rep.write_text("2 0\n0 1\n1 0\n2\n1 0 0 1\n1 0 0 -1\n")
    p = tmp_path / "deph.pd"
    p.write_text(
        "system q = Q(2)\n"
        "box d : q -> q = choi [1, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 1]\n"
        "diagram D { node n: d  wire bound.in[0] -> n.in[0]  wire n.out[0] -> bound.out[0] }\n"
        "check intertwiner D in qcalc\n"
    )
    code, out, _ = run(capsys, "check", p, "--rep-in", rep, "--rep-out", rep)
    assert code == 0 and "pass" in out


def test_theorems_reproducible(capsys):
    code1, out1, _ = run(capsys, "theorems", "--dims", "2", "--trials", "10", "--seed", "1")
    code2, out2, _ = run(capsys, "theorems", "--dims", "2", "--trials", "10", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 14


def test_quotient_command(capsys):
    code, out, _ = run(capsys, "quotient", GOOD / "loop_qubit.pd")
    assert code == 0
    assert "N=4.0" in out and "canonical: scalar 1.0" in out


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    # a state that misses trace 1 by 1e-6: causal only under a loose tolerance
    p = tmp_path / "near.pd"
    p.write_text(
        "system q = Q(2)\nbox s : -> q = choi [0.500001, 0, 0, 0.5]\n"
        "diagram D { node n: s  wire n.out[0] -> bound.out[0] }\ncheck causal D in qphys\n"
    )
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


def test_eval_long_chain_file(tmp_path, capsys):
    # maxmix -> 1998 identities -> discard: no planner, recursion or einsum-label limit on the way
    n = 2000
    ends = ["a"] + [f"i{k}" for k in range(n - 2)] + ["z"]
    lines = ["system q = Q(2)", "box mu : -> q = maxmix", "box w : q -> q = id",
             "box tr : q -> = discard", "diagram Chain {", "  node a : mu"]
    lines += [f"  node i{k} : w" for k in range(n - 2)] + ["  node z : tr"]
    lines += [f"  wire {x}.out[0] -> {y}.in[0]" for x, y in zip(ends, ends[1:])] + ["}"]
    p = tmp_path / "chain.pd"
    p.write_text("\n".join(lines) + "\n")
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
    rep.write_text("2 0\n0 1\n1 0\n2\n1 0 0 1\n1 0 0 -1\n")
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


def test_theory_name_is_case_insensitive(capsys):
    code, out, err = run(capsys, "eval", GOOD / "loop_qubit.pd", "--theory", "QPHYS")
    assert (code, err) == (0, "") and out == "Loop: scalar 4.0\n"


# Inputs the lexer once misread or crashed on: one diagnostic and exit 2, never a traceback.
CHOI_INF = "box b : -> = choi [1e999]\ndiagram D { node n: b }\n"
BAD_SOURCES = [
    ("parse", "system q = Q(²)\n", "1:14: parse: unexpected character '²'"),
    ("eval", "system q = Q(²)\n", "1:14: parse: unexpected character '²'"),
    ("parse", "system q = Q(1e999)\n", "1:14: parse: expected integer dimension, got 1e999"),
    ("check", "system q = Q(1e999)\n", "1:14: parse: expected integer dimension, got 1e999"),
    ("eval", CHOI_INF, "1:5: semantic: invalid choi literal for 'b': choi operator has non-finite entries"),
    ("quotient", CHOI_INF, "1:5: semantic: invalid choi literal for 'b': choi operator has non-finite entries"),
    ("parse", b"system q = Q(2) \xff\n", "1:17: parse: unexpected character '�'"),
]


@pytest.mark.parametrize("command, source, diagnostic", BAD_SOURCES)
def test_bad_source_exit_2(command, source, diagnostic, tmp_path, capsys):
    p = tmp_path / "bad.pd"
    p.write_bytes(source if isinstance(source, bytes) else source.encode())
    code, out, err = run(capsys, command, p)
    assert "Traceback" not in err
    assert (code, out, err) == (2, "", f"{p}:{diagnostic}\n")
