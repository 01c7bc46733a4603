"""Record goldens.json: exit code and stdout digest of every pool case.

    python3 bench/record_goldens.py

Run it only at a commit whose outputs are known to be right; the goldens in
the repository were recorded at the commit that introduced the benchmark.
"""

import json
import sys

import run


def main() -> int:
    cases = sorted(
        {c for w in run.WORKLOADS.values() for _, pool in w["tiers"] for c in pool}
        | {c for w in run.WORKLOADS.values() for c in w["tiny"]}
    )
    goldens = {}
    for case in cases:
        outcome = run.run_case(case, trace=False, deadline=300.0)
        if outcome["reason"] or "raised" in outcome:
            print(f"cannot record kr {case}: {outcome['reason'] or outcome['raised']}", file=sys.stderr)
            return 1
        goldens[case] = {"exit": outcome["exit"], **run.stdout_digest(outcome["stdout"])}
        print(f"{outcome['wall_s']:8.3f} s  exit {outcome['exit']}  kr {case}")
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
