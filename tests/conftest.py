import sys
from pathlib import Path

# benchmarks/gen.py is the one seeded, numpy-only generator of brick, snake-ladder, chain and
# pair-product diagrams; tests import it as ``gen``, so their oracles never come from proctheory
sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))

_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "::test_criterion_" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, ok in sorted(_acceptance_results):
        terminalreporter.write_line(f"  {name}: {'PASS' if ok else 'FAIL'}")
