# The seeded theorem suite: every structural fact the library rests on,
# verified at small dimensions with a reproducible residual report.
#
# The same (seed, dims, trials) triple always reproduces the same residual
# values, so a report diff is a meaningful regression signal. The same
# output is available from the command line:
#
#     proctheory theorems --seed 42 --dims 2 3 --trials 100

from proctheory.suite import format_report, run_all

reports = run_all(seed=42, dims=(2, 3), trials=100)
for report in reports:
    print(format_report(report))

print()
print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
worst = max(reports, key=lambda r: r.residual)
print(f"largest residual: {worst.residual:.3e} ({worst.name}, worst trial {worst.worst_trial})")
