"""Tests of the benchmark itself: seeded inputs, oracles and the metric list.

Run from the repository root with ``python3 -m pytest -q benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from proctheory import diagram, theories  # noqa: E402

PD_DATA = ROOT / "tests" / "data" / "pd"


def _pd_cases(seed):
    return workloads.generated_pd_cases(seed, workloads.Pd.BRICKS, workloads.Pd.LADDERS)


def _all_cases(seed):
    return _pd_cases(seed) + workloads.generated_large_cases(seed)


def test_same_seed_gives_identical_inputs():
    a = [(c.name, c.text.encode("utf-8")) for c in _all_cases(7)]
    b = [(c.name, c.text.encode("utf-8")) for c in _all_cases(7)]
    assert a == b
    other = [c.text for c in _all_cases(8)]
    assert [c.text for c in _all_cases(7)] != other


@pytest.mark.parametrize("case", _all_cases(3), ids=lambda c: c.name)
def test_generated_diagram_typechecks_under_its_theory(case):
    parsed = diagram.parse(case.text, case.name)
    diagram.build_env(parsed)
    d = parsed.diagrams[case.diagram]
    assert len(d.nodes) == case.nodes and len(d.wires) == case.wires
    assert diagram.typecheck(d, compact=theories.theory_by_name(case.theory).compact) == []


def test_pd_files_stay_under_the_wire_limit_and_large_ones_do_not():
    assert max(c.wires for c in _pd_cases(3)) <= 26
    assert {c.nodes for c in workloads.generated_large_cases(3)} == {40, 64}


def test_choi_literals_round_trip_exactly():
    rng = np.random.default_rng(0)
    mat = gen.random_cptp_choi(rng, 4, 4, 2)
    parsed = diagram.parse(f"system q = Q(2)\nbox g : q * q -> q * q = {gen.choi_literal(mat)}\n")
    assert np.array_equal(np.array(parsed.boxes["g"].choi_entries).reshape(16, 16), mat)


def test_random_channel_is_trace_preserving():
    j = gen.random_cptp_choi(np.random.default_rng(1), 4, 4, 2).reshape(4, 4, 4, 4)
    assert np.allclose(np.einsum("abAb->aA", j), np.eye(4))


def test_wiring_choi_of_the_identity_is_the_bell_pattern():
    assert np.array_equal(corpus.wiring_choi([2], [0], [False]), gen.IDENTITY_CHOI_Q2)


def test_corpus_table_covers_every_committed_file():
    good = sorted(p.name for p in (PD_DATA / "good").glob("*.pd"))
    bad = sorted(p.name for p in (PD_DATA / "bad").glob("*.pd"))
    assert sorted(corpus.GOOD_EVAL) == good == sorted(corpus.GOOD_CHECKS)
    assert sorted(corpus.BAD_EVAL) == bad


def test_every_pd_operation_matches_its_oracle(tmp_path):
    wl = workloads.Pd(5, ROOT, tmp_path)
    tally = run.Tally()
    run.run_pass(wl.ops, tally)
    assert tally.wrong == []
    assert tally.failed == 0 and tally.probes == 3


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pd", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
