from pathlib import Path

import numpy as np
import pytest

from proctheory import cli, suite, theories
from proctheory.processes import ProcessTensor, compose_seq

GOOD = Path(__file__).parent / "data" / "pd" / "good"


def test_all_checks_pass():
    reports = suite.run_all(seed=42, dims=(2, 3), trials=30)
    assert len(reports) == 14
    assert all(r.passed for r in reports)
    for r in reports:
        assert r.residual <= r.tolerance or r.passed


def test_reports_reproducible():
    a = suite.run_all(seed=7, dims=(2,), trials=10)
    b = suite.run_all(seed=7, dims=(2,), trials=10)
    assert [suite.format_report(x) for x in a] == [suite.format_report(x) for x in b]
    c = suite.run_all(seed=8, dims=(2,), trials=10)
    assert [x.residual for x in a] != [x.residual for x in c]


def test_run_all_rejects_empty_ranges():
    with pytest.raises(ValueError, match="dims"):
        suite.run_all(seed=1, dims=(0,), trials=5)
    for trials in (0, -1):  # no trial would run, yet every check would report a pass
        with pytest.raises(ValueError, match="trials"):
            suite.run_all(seed=1, dims=(2,), trials=trials)


def test_report_line_format():
    (r,) = [x for x in suite.run_all(seed=1, dims=(2,), trials=5) if x.name == "loop-scalar"]
    line = suite.format_report(r)
    assert line.startswith("name=loop-scalar anchor=")
    assert "pass=true" in line


def test_mutated_bullet_fails_quotient_checks(monkeypatch):
    """Dropping the renormalisation in bullet composition must trip checks 9-10."""

    def broken_bullet(g, f, tol=None):
        return compose_seq(g, f)  # no 1/N

    monkeypatch.setattr(theories, "bullet_compose", broken_bullet)
    reports = {r.name: r for r in suite.run_all(seed=42, dims=(2,), trials=10)}
    assert not reports["quotient-well-defined"].passed
    assert not reports["bullet-quotient-equivalence"].passed


def test_mutated_normalization_fails_zero_lemma(monkeypatch):
    def broken_n(f):
        from proctheory.processes import Scalar

        return Scalar(1.0)  # pretends nothing is ever zero

    monkeypatch.setattr(theories, "normalization_scalar", broken_n)
    reports = {r.name: r for r in suite.run_all(seed=42, dims=(2,), trials=10)}
    assert not reports["zero-lemma"].passed


def test_trusted_outputs_pass_full_validation(monkeypatch, capsys):
    """Every process built unchecked (compositions, daggers, bends, plugging,
    evaluation, rescaling) would also pass the validating constructor."""

    def outcomes():
        reports = [suite.format_report(r) for r in suite.run_all(42, (2, 3), 10)]
        runs = []
        for path in sorted(GOOD.glob("*.pd")):
            for command in ("eval", "check", "quotient"):
                code = cli.main([command, str(path)])
                runs.append((path.name, command, code, capsys.readouterr()))
        return reports, runs

    trusted = outcomes()
    rerouted = []

    def validating(cls, s_in, s_out, choi):
        rerouted.append(s_in)
        return cls(s_in, s_out, choi)

    monkeypatch.setattr(ProcessTensor, "_trusted", classmethod(validating))
    assert outcomes() == trusted
    assert all(r.endswith("pass=true") for r in trusted[0])
    assert len(rerouted) > 500  # the unchecked path really was exercised
