import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from proctheory import cli, groups, higher_order, numerics, processes, suite, theories
from proctheory.numerics import DEFAULT_TOL, Tolerances
from proctheory.processes import ProcessTensor, compose_seq

GOOD = Path(__file__).parent / "data" / "pd" / "good"
FIXED_ONLY = {"eternal-noise-witness", "causal-collapse-witness", "snake-equations", "loop-scalar",
              "cap-intertwiner"}


def test_all_checks_pass():
    reports = suite.run_all(seed=42, dims=(2, 3), trials=30)
    assert len(reports) == 14
    assert all(r.passed for r in reports)
    for r in reports:
        assert r.passed == (r.residual <= r.tolerance)


def test_trials_column():
    def column(dims, trials):
        return [r.trials for r in suite.run_all(seed=42, dims=dims, trials=trials)]

    assert column((2, 3), 100) == [100, 100, 1, 3, 16, 4, 100, 50, 100, 100, 100, 50, 20, 2]
    assert column((1, 2), 7) == [7, 7, 1, 2, 16, 4, 7, 7, 7, 7, 7, 7, 7, 2]


@pytest.mark.parametrize("seed, dims, trials", [(3, (2, 3), 12), (11, (1, 2), 5)])
def test_worst_state_replays_the_worst_trial(seed, dims, trials):
    reports = suite.run_all(seed=seed, dims=dims, trials=trials)
    assert {r.name for r in reports if r.worst_trial is None} == FIXED_ONLY
    assert all(r.worst_state is None for r in reports if r.name in FIXED_ONLY)
    assert sorted(suite.TRIALS) == sorted(set(suite.CHECK_NAMES) - FIXED_ONLY)
    for idx, r in enumerate(reports):
        if r.name in FIXED_ONLY:
            continue
        trial = suite.TRIALS[r.name]
        rng = np.random.default_rng([seed, idx])
        residuals = [trial(rng, dims, DEFAULT_TOL, k) for k in range(r.trials)]
        assert r.worst_trial == residuals.index(max(residuals)), r.name  # the first on ties
        assert r.residual >= residuals[r.worst_trial]
        replay = np.random.default_rng()
        replay.bit_generator.state = r.worst_state
        assert trial(replay, dims, DEFAULT_TOL, r.worst_trial) == residuals[r.worst_trial], r.name


def test_run_all_reports_the_same_through_rewrapped_checks(monkeypatch):
    """A tracer rewraps each row's check in a plain function with no attributes, so
    ``run_all`` must read a check's bound from what the call returns."""
    want = suite.run_all(42, (2, 3), 5)

    def rewrap(check):
        def traced(*args, **kwargs):
            return check(*args, **kwargs)
        return traced

    monkeypatch.setattr(suite, "_CHECKS", [(n, a, rewrap(c)) for n, a, c in suite._CHECKS])
    got = suite.run_all(42, (2, 3), 5)
    assert got == want  # tolerance included; worst_state is compared next
    assert [r.worst_state for r in got] == [r.worst_state for r in want]


def test_validations_are_counted_where_data_enters(monkeypatch):
    """Kraus, Stinespring and Wishart samples, positive rescalings and the parts
    no_signalling extracts are built unchecked; states, effects and classical
    kernels are validated."""
    calls = []
    real = ProcessTensor.__post_init__
    monkeypatch.setattr(ProcessTensor, "__post_init__", lambda self, tol: calls.append(self) or real(self, tol))
    suite.run_all(42, (2, 3), 100)
    assert len(calls) == 368


def test_all_checks_pass_under_a_strict_tolerance():
    # psd_rel=0 admits no rounding: only data that enters the program is judged by it
    reports = suite.run_all(42, (2, 3), 20, tol=Tolerances(psd_rel=0))
    assert [r.name for r in reports if not r.passed] == []


def test_run_all_passes_the_callers_tolerances_on(monkeypatch):
    """Each call to a public function that takes ``tol``, from the suite or inside the library,
    receives the caller's tolerances, which differ from the default in every field."""
    custom = Tolerances(zero_abs=2e-12, eq_rel=2e-9, psd_rel=3e-9)
    calls, wrappers = [], {}

    def recording(fn):
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((fn.__name__, bound.arguments["tol"] == custom))
            return fn(*args, **kwargs)
        return call

    for module in (numerics, processes, theories, groups, higher_order, suite):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not name.startswith("_") and "tol" in inspect.signature(fn).parameters:
                monkeypatch.setattr(module, name, wrappers.setdefault(fn, recording(fn)))
    assert all(r.passed for r in suite.run_all(42, (2, 3), 20, tol=custom))
    assert {"canonical_rep", "bullet_compose", "state", "effect", "as_scalar", "dagger_unital",
            "realize_process_matrix", "quotient_compose", "classical_channel", "class_equal"} <= {n for n, _ in calls}
    assert sorted({name for name, honoured in calls if not honoured}) == []


@pytest.mark.parametrize("dims, zero_dims", [((1,), [2]), ((1, 2, 3), [2, 3]), ((3, 1), [2, 3])])
def test_every_dims_entry_reaches_the_zero_branch_and_the_memory_wire(monkeypatch, dims, zero_dims):
    zero, memory = [], set()
    real_pair, real_circuit = suite._zero_pair, higher_order.circuit_form_channel

    def pair(rng, d, tol):
        zero.append(d)
        return real_pair(rng, d, tol)

    def circuit(g1, g2, g3):
        memory.add(g1.output.dims[1])
        return real_circuit(g1, g2, g3)

    monkeypatch.setattr(suite, "_zero_pair", pair)
    monkeypatch.setattr(higher_order, "circuit_form_channel", circuit)
    reports = {r.name: r for r in suite.run_all(seed=42, dims=dims, trials=20)}
    assert reports["bullet-quotient-equivalence"].passed and reports["process-matrix-roundtrip"].passed
    assert zero == zero_dims
    assert memory == set(dims)


def test_worst_state_is_left_out_of_equality_and_repr():
    r = suite.run_all(seed=5, dims=(2,), trials=3)[0]
    assert r.worst_state is not None
    assert dataclasses.replace(r, worst_state={}) == r != dataclasses.replace(r, worst_trial=-1)
    assert "worst_state" not in repr(r) and "worst_trial=" in repr(r)


def test_cap_intertwiner_reports_its_two_cases_when_it_fails(monkeypatch):
    monkeypatch.setattr(groups, "is_intertwiner", lambda *args, **kwargs: False)
    reports = {r.name: r for r in suite.run_all(1, (2,), 30)}
    r = reports["cap-intertwiner"]
    assert (r.trials, r.residual, r.passed) == (2, 1.0, False)


def test_zero_lemma_honours_the_zero_tolerance():
    reports = {r.name: r for r in suite.run_all(seed=42, dims=(2,), trials=5, tol=Tolerances(zero_abs=1e3))}
    assert not reports["zero-lemma"].passed


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
    for r in reports.values():
        assert r.passed == (r.residual <= r.tolerance)


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
