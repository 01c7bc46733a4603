"""krlib benchmark: cold-process `kr` workloads with golden-checked outputs.

    python3 bench/run.py --workload modules --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the library is taken from its `src/`.
Each case is one `kr` command line, run through krlib.cli.main in a fresh,
single-threaded Python process with PYTHONPATH=src, one process at a time:
a closed loop with one client.  Every process pays for cold lru caches, as
a real `kr` call does.  The seed draws each workload's cases from a fixed
pool, the same number from each cost tier, so every seed does comparable
work.  A run repeats that set of cases in rounds while the next round still
fits in --seconds (at least MIN_ROUNDS rounds) and reports medians over
rounds.  Times are scaled to a reference CPU speed by the probe in child.py;
the unscaled medians are printed as well.

End-to-end metrics, per round unless noted:
  wall_s          sum over the cases of the time inside cli.main
  setup_s         sum over the processes of spawn-to-krlib-imported time
  slowest_case_s  the largest single-case time
  peak_rss_mb     the largest peak RSS of any process in the run (one value)

Every output is compared byte for byte with goldens.json, recorded at the
commit that introduced the benchmark.  A case fails when its exit code or
stdout differs, when it raises, or when it passes its deadline; failures
are printed to stderr, counted in `failed` and make `correct` false.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every case twice
per round, untraced and then traced (see tracer.py), and reports the
per-layer metrics (span times unscaled), the share of wall time the named
spans cover and the tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer
from child import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"

MIN_ROUNDS = 3
CASE_DEADLINE_S = 60.0
# hard stop for one run, so it exits well inside three minutes
RUN_BUDGET_S = 165.0
COVERAGE_BAR = 0.9


def _mf(alg: str, node: int, level: int | None = None) -> str:
    case = f"verify modforge --algebra {alg} --node {node}"
    return case if level is None else f"{case} --level {level}"


def _char(alg: str, node: int, level: int) -> str:
    return f"char --algebra {alg} --node {node} --level {level}"


# Tiers group cases of near-equal cost at the seed commit (the comments give
# scaled seconds per case, see child.py); a round draws `draw` cases from
# each tier.  `tiny` is the self-check's case, outside the seeded draws.
WORKLOADS = {
    "modules": {
        # build_kr_fundamental + verify_current_relations: intertwiner ->
        # nullspace and the SpMat products do the work, the character layer
        # almost none.  The middle tier also fixes the run's peak RSS.
        "tiers": [
            (1, [_mf("B4", 2), _mf("C4", 1), _mf("B3", 3)]),  # 0.25
            (1, [_mf("C6", 1), _mf("B6", 2)]),  # 1.05, 39 MB
            (1, [_mf("C3", 2)]),  # 3.0, nullspace-bound
        ],
        "tiny": [_mf("C2", 1)],
    },
    "tensor-span": {
        # kr_tensor_submodule on cheap fundamentals: many small Echelon.add
        # inserts, most rejected, and _GradedTensor.apply; no big nullspace.
        "tiers": [
            (2, [_mf("A4", 1, 4), _mf("B2", 1, 4), _mf("C2", 1, 5), _mf("C2", 2, 4)]),  # 0.12
            (2, [_mf("D4", 1, 3), _mf("A3", 1, 5), _mf("A5", 3, 2), _mf("C3", 1, 4)]),  # 0.16-0.21
            (2, [_mf("B3", 2, 2), _mf("A3", 2, 4), _mf("A5", 1, 4), _mf("C2", 1, 6), _mf("A4", 2, 3)]),  # 0.3
            (1, [_mf("A4", 1, 5), _mf("A3", 1, 6), _mf("A6", 3, 2)]),  # 0.67
            (1, [_mf("A2", 1, 8), _mf("C2", 2, 5), _mf("B2", 1, 5), _mf("B3", 1, 4)]),  # 0.89
        ],
        "tiny": [_mf("C2", 2, 3)],
    },
    "characters": {
        # krset grading, charlib Freudenthal/Klimyk and homcheck; no linalg.
        # The fixed pair sets the slowest case and the peak RSS of a run.
        "tiers": [
            (4, ["verify chains", "verify homs", "verify wedge", "verify tensor-bound"]),
            (2, [_char("C6", 5, 10), _char("D5~", 3, 15)]),  # 0.75, 0.66; 17.8 MB
            (2, [
                _char("C6", 5, 8), _char("C6", 5, 9), _char("C7", 6, 6),
                _char("C7", 6, 7), _char("D5~", 3, 12),
            ]),  # 0.35-0.42
            (2, [_char("B5", 4, 14), _char("B6", 4, 10), _char("D5~", 3, 8)]),  # 0.1-0.14
            (1, [_char("A6~", 3, 16), _char("A6~", 2, 20), _char("A7~", 3, 12)]),  # 0.01-0.03
        ],
        "tiny": [_char("C3", 2, 2)],
    },
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slowest_case_s": "s",
}

# per-layer metric -> unit; spans report <span>.calls / <span>.self_s
PER_LAYER = {
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_s": "s",
    "linalg.nullspace.unknowns": "count",
    "linalg.nullspace.rows": "count",
    "linalg.Echelon.add.calls": "count",
    "linalg.Echelon.add.self_s": "s",
    "linalg.Echelon.add.accept_ratio": "ratio",
    "linalg.Echelon.coords.self_s": "s",
    "linalg.SpMat.matmul.calls": "count",
    "linalg.SpMat.matmul.self_s": "s",
    "modforge.intertwiner.self_s": "s",
    "modforge.tensor_rep.self_s": "s",
    "modforge.highest_module.self_s": "s",
    "modforge.highest_module.dim": "count",
    "modforge.build_kr_fundamental.self_s": "s",
    "modforge.verify_current_relations.self_s": "s",
    "modforge.kr_tensor_submodule.self_s": "s",
    "modforge.fraction_entry_share": "ratio",
    "krset.enumerate_chain.calls": "count",
    "krset.enumerate_chain.self_s": "s",
    "krset.grade.calls": "count",
    "krset.grade.self_s": "s",
    "krset.pplus.self_s": "s",
    "krset.graded_character.self_s": "s",
    "krset.tensor_bound_check.self_s": "s",
    "twisted.graded_character_sigma.self_s": "s",
    "twisted.enumerate_chain_sigma.calls": "count",
    "twisted.fixed_point_data.self_s": "s",
    "charlib.weyl_dim.self_s": "s",
    "charlib.weight_mults.self_s": "s",
    "charlib.tensor_decompose.calls": "count",
    "charlib.tensor_decompose.self_s": "s",
    "charlib.decompose_character.self_s": "s",
    "charlib.hom_dim.self_s": "s",
    "homcheck.cond_untwisted.self_s": "s",
    "homcheck.cond_twisted.self_s": "s",
    "homcheck.wedge_adjoint_nu.self_s": "s",
    "homcheck.wedge_g1_decomp.self_s": "s",
    "rootsys.build.calls": "count",
    "rootsys.build.self_s": "s",
    "rootsys.weyl_orbit.self_s": "s",
    "charlib.freudenthal_cache.hit_ratio": "ratio",
    "charlib.freudenthal_cache.lookups": "count",
    "krset.pplus_cache.hit_ratio": "ratio",
    "krset.pplus_cache.lookups": "count",
    "cli.main.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def draw_cases(workload: str, seed: int) -> list[str]:
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    for draw, pool in WORKLOADS[workload]["tiers"]:
        cases.extend(rng.sample(pool, draw))
    return cases


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def stdout_digest(out: bytes) -> dict:
    text = out.decode(errors="replace").rstrip("\n")
    return {
        "bytes": len(out),
        "sha256": hashlib.sha256(out).hexdigest(),
        "tail": text[-120:],
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("KR_MAX_DIM", None)  # outputs and goldens assume the default guard
    # Set-up time is import from cached bytecode, as for an installed `kr`,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_case(case: str, trace: bool, deadline: float) -> dict:
    """One fresh process; returns its outcome with the raw stdout."""
    out = {"case": case, "trace": trace, "ok": False, "reason": ""}
    if deadline <= 0:
        out.update(reason="run budget spent before it started", wall_s=0.0, wall_raw_s=0.0)
        return out
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), repr(spawn), str(int(trace)), case],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        elapsed = time.monotonic() - spawn
        out.update(reason=f"passed its {deadline:.1f} s deadline", wall_s=elapsed, wall_raw_s=elapsed)
        return out
    # parent-side times, replaced by the child's own when it reports them
    elapsed = time.monotonic() - spawn
    out.update(exit=proc.returncode, stdout=stdout, wall_s=elapsed, wall_raw_s=elapsed)
    err = stderr.decode(errors="replace").rstrip("\n")
    last = err.rsplit("\n", 1)[-1]
    if not last.startswith(MARKER):
        out["reason"] = f"exit {proc.returncode} without a measurement: {err[-300:]}"
        return out
    out.update(json.loads(last[len(MARKER):]))
    out["stderr"] = err[: -len(last)]
    return out


def check(outcome: dict, golden: dict | None) -> None:
    """Compare with the golden; sets ok and the failure reason."""
    if outcome["reason"]:
        return
    if golden is None:
        outcome["reason"] = "no golden for this case"
    elif "raised" in outcome:
        outcome["reason"] = f"raised {outcome['raised']}"
    elif outcome["exit"] != golden["exit"]:
        outcome["reason"] = f"exit {outcome['exit']}, golden {golden['exit']}: {outcome['stderr'][-300:]}"
    else:
        got = stdout_digest(outcome["stdout"])
        if got["sha256"] != golden["sha256"]:
            outcome["reason"] = (
                f"stdout differs from golden ({got['bytes']} bytes vs {golden['bytes']});"
                f" ends {got['tail']!r}, golden ends {golden['tail']!r}"
            )
        else:
            outcome["ok"] = True


def run_rounds(cases, goldens, seconds, trace, min_rounds=MIN_ROUNDS,
               case_deadline=CASE_DEADLINE_S, log=sys.stderr):
    """Rounds of [plain outcomes] or [plain, traced outcomes].

    A further round starts only while the median round so far still fits in
    `seconds` (after the first `min_rounds`) and in RUN_BUDGET_S.
    """
    start = time.monotonic()
    rounds, round_s = [], []
    while True:
        began = time.monotonic()
        passes = []
        for traced in ((False, True) if trace else (False,)):
            outcomes = []
            for case in cases:
                left = RUN_BUDGET_S - (time.monotonic() - start)
                outcome = run_case(case, traced, min(case_deadline, left))
                check(outcome, goldens.get(case))
                if not outcome["ok"]:
                    kind = "traced" if traced else "plain"
                    print(f"FAILED [{kind}] kr {case}: {outcome['reason']}", file=log)
                outcomes.append(outcome)
            passes.append(outcomes)
        rounds.append(passes)
        round_s.append(time.monotonic() - began)
        finish = time.monotonic() - start + statistics.median(round_s)
        if finish > RUN_BUDGET_S or (len(rounds) >= min_rounds and finish > seconds):
            return rounds


def end_to_end(rounds) -> dict:
    """Samples per metric: one per round, except peak_rss_mb (one per run).

    The *_raw_s entries are the unscaled times, printed for reference.
    """
    plain = [r[0] for r in rounds]
    out = {
        "peak_rss_mb": [max((o.get("peak_rss_mb", 0.0) for r in plain for o in r), default=0.0)],
        "slowest_case_s": [max(o["wall_s"] for o in r) for r in plain],
    }
    for key in ("wall_s", "setup_s", "wall_raw_s", "setup_raw_s"):
        # a case that died without a record has no set-up time to add
        out[key] = [sum(o.get(key, 0.0) for o in r) for r in plain]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_round(plain, traced) -> dict:
    spans = {}
    counts = Counter()
    caches = {name: [0, 0] for name in tracer.CACHES}
    traced_wall = 0.0
    for o in traced:
        traced_wall += o["wall_s"]
        for name, (calls, total, self_s) in tracer.summarize(o.get("spans", [])).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        counts.update(o.get("counts", {}))
        for name, (hits, misses) in o.get("caches", {}).items():
            caches[name][0] += hits
            caches[name][1] += misses
    out = {}
    for name in tracer.SPANS:
        calls, _, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key in ("linalg.nullspace.unknowns", "linalg.nullspace.rows", "modforge.highest_module.dim"):
        out[key] = counts[key]
    out["linalg.Echelon.add.accept_ratio"] = _ratio(
        counts["linalg.Echelon.add.accepted"], out["linalg.Echelon.add.calls"]
    )
    out["modforge.fraction_entry_share"] = _ratio(
        counts["modforge.fraction_entries"], counts["modforge.action_entries"]
    )
    for name, (hits, misses) in caches.items():
        out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
        out[f"{name}.lookups"] = hits + misses
    root = spans.get(tracer.ROOT, (0, 0.0, 0.0))
    out["trace.coverage"] = _ratio(root[1] - root[2], root[1])
    out["trace.overhead_s"] = traced_wall - sum(o["wall_s"] for o in plain)
    return out


def per_layer(rounds) -> dict:
    per_round = [per_layer_round(plain, traced) for plain, traced in rounds]
    return {name: [r[name] for r in per_round] for name in PER_LAYER}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, seed, cases, rounds, trace, log=sys.stdout) -> dict:
    """Print every metric with its unit and sample count; return the result."""
    outcomes = [o for r in rounds for p in r for o in p]
    failed = sum(not o["ok"] for o in outcomes)
    print(f"workload {workload} seed {seed}: {len(rounds)} rounds of {len(cases)} cases", file=log)
    for case in cases:
        print(f"  kr {case}", file=log)
    print(f"failed_share {failed}/{len(outcomes)} = {_ratio(failed, len(outcomes)):.4f}", file=log)
    if trace:
        samples, units = per_layer(rounds), PER_LAYER
    else:
        samples, units = end_to_end(rounds), END_TO_END
    metrics = {}
    for name in [*units, *(k for k in samples if k not in units)]:
        values = samples[name]
        value = statistics.median(values)
        lo, hi = _quartiles(values)
        unit = units.get(name, "s, unscaled")
        if unit == "count":
            value = round(value)
        print(f"{name:42s} {value:.6g} {unit}  (median of {len(values)}; p25 {lo:.6g} p75 {hi:.6g})", file=log)
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
    if trace and metrics["trace.coverage"]["value"] < COVERAGE_BAR:
        print(
            f"WARNING named spans cover {metrics['trace.coverage']['value']:.3f} of wall_s"
            f" on {workload}, below {COVERAGE_BAR}",
            file=log,
        )
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "krlib" / "cli.py").is_file():
        print(f"error: no krlib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = load_goldens()
    cases = draw_cases(args.workload, args.seed)
    min_rounds = 1 if args.trace else MIN_ROUNDS
    rounds = run_rounds(cases, goldens, args.seconds, bool(args.trace), min_rounds)
    result = report(args.workload, args.seed, cases, rounds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
