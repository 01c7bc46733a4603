"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Every workload runs its tiny case, untraced and traced, and must pass its
golden.  A corrupted golden, a wrong golden exit code, a missing golden and
a passed deadline must each turn into a counted failed case, never a crash
or a silent pass.  The metric names and units must match BENCHMARK.json,
and every case a seed can draw must have a golden.  Exits 1 on any problem.
"""

import io
import json
import sys

import run


def _run(cases, goldens, trace=False, deadline=run.CASE_DEADLINE_S):
    log = io.StringIO()
    rounds = run.run_rounds(cases, goldens, 0, trace, 1, deadline, log=log)
    return run.report("selfcheck", 0, cases, rounds, trace, log=log), log.getvalue()


def main() -> int:
    goldens = run.load_goldens()
    problems = []

    for name, spec in run.WORKLOADS.items():
        pool = [c for _, tier in spec["tiers"] for c in tier] + spec["tiny"]
        problems += [f"{name}: no golden for kr {c}" for c in pool if c not in goldens]
        if run.draw_cases(name, 7) != run.draw_cases(name, 7):
            problems.append(f"{name}: the draw for one seed is not reproducible")
        for trace in (False, True):
            result, log = _run(spec["tiny"], goldens, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} tiny case, trace={trace}: {log}")
        print(f"ok   {name}: tiny case matches its golden, untraced and traced")

    case = run.WORKLOADS["modules"]["tiny"][0]
    corrupt = {
        "corrupted stdout digest": {**goldens[case], "sha256": "0" * 64},
        "wrong golden exit code": {**goldens[case], "exit": 1},
        "missing golden": None,
    }
    for what, golden in corrupt.items():
        bad = {**goldens, case: golden}
        if golden is None:
            del bad[case]
        result, log = _run([case], bad)
        if result["correct"] or result["failed"] != 1 or "FAILED" not in log:
            problems.append(f"{what} was not reported as one failed case: {result}")
        else:
            print(f"ok   {what} -> 1 failed case")
    result, log = _run([case], goldens, deadline=0.001)
    if result["correct"] or result["failed"] != 1 or "deadline" not in log:
        problems.append(f"a passed deadline was not reported as a failed case: {result}")
    else:
        print("ok   passed deadline -> 1 failed case")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(listed) ^ set(table))}")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if not problems:
        print("ok   BENCHMARK.json lists the metrics and workloads run.py reports")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
