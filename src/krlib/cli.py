"""Command line front end: graded sets, characters and verification suites.

Exit codes: 0 all good, 1 a structural check failed, 2 invalid input or a
dimension guard stopped the computation (raise it with KR_MAX_DIM).  In a
verify run a guard stops only its own check, which prints a GUARD line; the
run exits 1 if any check failed, else 2 if any hit a guard.  A verify flag
the selected suite does not read, a verify bound below 1, or bounds that
select no check, are invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import charlib, homcheck, krset, modforge, twisted
from .errors import (
    ChainConditionError,
    DimensionGuardError,
    ScopeError,
    TheoremCheckError,
)
from .rootsys import RootSystem, build, parse_type
from .twisted import TwistedData


def parse_algebra(text: str, force_twisted: bool = False):
    """'C3' -> RootSystem; 'A4~' (or --twisted) -> TwistedData."""
    text = text.strip()
    tw = text.endswith("~")
    if tw:
        text = text[:-1]
    lt = parse_type(text)
    if tw or force_twisted:
        return twisted.fixed_point_data(twisted.outer_from_ambient(lt.family, lt.rank))
    return build(lt)


def _graded(alg, node: int, level: int):
    if isinstance(alg, TwistedData):
        return twisted.graded_character_sigma(alg, node, level), alg.g0
    return krset.graded_character(alg, node, level), alg


def _entries(gc) -> list[dict]:
    # by_grade is sorted by grade, and each grade's weights are sorted
    return [{"weight": list(w), "grade": s} for s, ws in gc.by_grade for w in ws]


def cmd_set(args) -> int:
    alg = parse_algebra(args.algebra, args.twisted)
    gc, _ = _graded(alg, args.node, args.level)
    entries = _entries(gc)
    if isinstance(alg, TwistedData):
        payload = {"g0": str(alg.g0.type), "set": entries}
    else:
        payload = entries
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_char(args) -> int:
    alg = parse_algebra(args.algebra, args.twisted)
    gc, weight_rs = _graded(alg, args.node, args.level)
    grades = []
    by_grade = dict(gc.by_grade)
    top = max(by_grade) if by_grade else 0
    poly = []
    total = 0
    for s in range(top + 1):
        ws = sorted(by_grade.get(s, ()))
        consts = [
            {"weight": list(w), "mult": 1, "dim": charlib.weyl_dim(weight_rs, w)}
            for w in ws
        ]
        dim_s = sum(c["dim"] for c in consts)
        grades.append({"grade": s, "constituents": consts, "dim": dim_s})
        poly.append(dim_s)
        total += dim_s
    payload = {
        "algebra": alg.outer.label if isinstance(alg, TwistedData) else str(alg.type),
        "node": args.node,
        "level": args.level,
        "grades": grades,
        "dim_poly": poly,
        "dim_total": total,
    }
    if isinstance(alg, TwistedData):
        payload["g0"] = str(alg.g0.type)
    print(json.dumps(payload, sort_keys=True))
    return 0


# -- verify suites -----------------------------------------------------


class _Report:
    """One line per check: ok, FAIL (a check failed) or GUARD (a dimension
    guard or the matrix scope stopped it); either way the next check runs.
    Each line is printed and flushed as its check finishes, so a long run
    shows its progress."""

    def __init__(self):
        self.total = 0
        self.failures = 0
        self.guards = 0

    def run(self, label: str, fn) -> None:
        try:
            detail = fn()
        except (TheoremCheckError, ChainConditionError) as err:
            self.failures += 1
            line = f"FAIL {label}: {err}"
        except (DimensionGuardError, ScopeError) as err:
            self.guards += 1
            line = f"GUARD {label}: {err}"
        else:
            detail = detail if isinstance(detail, str) else ""
            line = f"ok   {label}" + (f": {detail}" if detail else "")
        self.total += 1
        print(line, flush=True)


def _untwisted_sweep(max_rank: int) -> list[RootSystem]:
    out = []
    starts = {"A": 1, "B": 2, "C": 2, "D": 3}
    for fam in "ABCD":
        for r in range(starts[fam], max_rank + 1):
            out.append(build(parse_type(f"{fam}{r}")))
    return out


def _twisted_sweep(max_ambient: int) -> list[TwistedData]:
    out = []
    for r in range(2, max_ambient + 1):
        out.append(twisted.fixed_point_data(twisted.outer_from_ambient("A", r)))
    for r in range(3, max_ambient + 1):
        out.append(twisted.fixed_point_data(twisted.outer_from_ambient("D", r)))
    return out


def suite_chains(rep: _Report, args) -> None:
    max_rank = args.max_rank or 5
    for rs in _untwisted_sweep(max_rank):
        for i in range(1, rs.rank + 1):
            rep.run(
                f"chain {rs.type} node {i}",
                lambda a=rs, j=i: f"k={krset.enumerate_chain(a, j).k}",
            )
    for data in _twisted_sweep(max_rank):
        for i in range(1, data.g0.rank + 1):
            rep.run(
                f"chain {data.outer.label} node {i}",
                lambda a=data, j=i: f"k={twisted.enumerate_chain_sigma(a, j).k}",
            )


_HOM_UNTWISTED = ["C2", "C3", "C4", "C5", "B3", "B4", "B5", "D4", "D5"]
_HOM_TWISTED = ["A3", "A4", "A5", "A6", "D3", "D4", "D5"]


def _hom_line(r: homcheck.HomReport) -> str:
    parts = [f"one-step Hom dims {r.next_step}"]
    if r.two_step:
        parts.append(f"two-step Hom = {r.two_step}")
    if r.three_step:
        parts.append(f"three-step Hom = {r.three_step}")
    return ", ".join(parts)


def suite_homs(rep: _Report, args) -> None:
    if args.algebra:
        alg = parse_algebra(args.algebra, args.twisted)
        if isinstance(alg, TwistedData):
            nodes = [args.node] if args.node else range(1, alg.g0.rank + 1)
            for i in nodes:
                rep.run(
                    f"homs {alg.outer.label} node {i}",
                    lambda a=alg, j=i: _hom_line(homcheck.cond_twisted(a, j)),
                )
        else:
            nodes = [args.node] if args.node else krset.construction_nodes(alg)
            for i in nodes:
                rep.run(
                    f"homs {alg.type} node {i}",
                    lambda a=alg, j=i: _hom_line(homcheck.cond_untwisted(a, j)),
                )
        return
    cap = args.max_rank or 6
    for name in _HOM_UNTWISTED:
        rs = build(parse_type(name))
        if rs.rank > cap:
            continue
        for i in krset.construction_nodes(rs):
            rep.run(
                f"homs {rs.type} node {i}",
                lambda a=rs, j=i: _hom_line(homcheck.cond_untwisted(a, j)),
            )
    for name in _HOM_TWISTED:
        lt = parse_type(name)
        if lt.rank > cap:
            continue
        data = twisted.fixed_point_data(twisted.outer_from_ambient(lt.family, lt.rank))
        for i in range(1, data.g0.rank + 1):
            rep.run(
                f"homs {data.outer.label} node {i}",
                lambda a=data, j=i: _hom_line(homcheck.cond_twisted(a, j)),
            )


def suite_wedge(rep: _Report, args) -> None:
    cap = args.max_rank or 6
    for name in _HOM_UNTWISTED:
        rs = build(parse_type(name))
        if rs.rank > cap:
            continue
        rep.run(
            f"wedge adjoint {rs.type}",
            lambda a=rs: f"nu = {homcheck.wedge_adjoint_nu(a)}",
        )
    for name in _HOM_TWISTED:
        lt = parse_type(name)
        if lt.rank > cap:
            continue
        data = twisted.fixed_point_data(twisted.outer_from_ambient(lt.family, lt.rank))
        rep.run(
            f"wedge g1 {data.outer.label}",
            lambda a=data: f"decomposition {dict(homcheck.wedge_g1_decomp(a).decomposition)}",
        )


_MODFORGE_DEFAULT = [
    ("C2", 1),
    ("C3", 1),
    ("C3", 2),
    ("B3", 2),
    ("B4", 3),
    ("D4", 2),
    ("D5", 2),
    ("B3", 3),
]


def _modforge_fundamental(rs: RootSystem, i: int) -> str:
    cm = modforge.build_kr_fundamental(rs, i)
    r = modforge.verify_current_relations(cm)
    return (
        f"dims {[p.dim for p in cm.pieces]}, brackets {r.bracket_pairs},"
        f" mixed {r.mixed_pairs}, cyclic {r.cyclic_dim}/{r.total_dim}"
    )


def suite_modforge(rep: _Report, args) -> None:
    if args.algebra:
        alg = parse_algebra(args.algebra, args.twisted)
        if isinstance(alg, TwistedData):
            raise ValueError("matrix construction covers untwisted algebras only")
        if not args.node:
            raise ValueError("verify modforge needs --node with --algebra")
        if args.level is not None:
            rep.run(
                f"tensor submodule {alg.type} node {args.node} level {args.level}",
                lambda: "grades "
                + str(sorted(modforge.kr_tensor_submodule(alg, args.node, args.level))),
            )
        else:
            rep.run(
                f"modforge {alg.type} node {args.node}",
                lambda: _modforge_fundamental(alg, args.node),
            )
        return
    for name, i in _MODFORGE_DEFAULT:
        rs = build(parse_type(name))
        rep.run(f"modforge {rs.type} node {i}", lambda a=rs, j=i: _modforge_fundamental(a, j))


def suite_tensor_bound(rep: _Report, args) -> None:
    max_rank = args.max_rank or 4
    max_level = args.max_level or 4
    for rs in _untwisted_sweep(max_rank):
        for i in range(1, rs.rank + 1):
            for m in range(1, max_level + 1):
                rep.run(
                    f"tensor bound {rs.type} node {i} level {m}",
                    lambda a=rs, j=i, mm=m: "bounded"
                    if krset.tensor_bound_check(a, j, mm)
                    else "",
                )


_SUITES = {
    "chains": [suite_chains],
    "homs": [suite_homs],
    "wedge": [suite_wedge],
    "modforge": [suite_modforge],
    "tensor-bound": [suite_tensor_bound],
    "all": [suite_chains, suite_homs, suite_wedge, suite_tensor_bound, suite_modforge],
}


def _verify_reads(args) -> set[str]:
    """The flags the selected verify run reads; any other flag is an error."""
    if args.suite in ("chains", "wedge"):
        return {"max_rank"}
    if args.suite in ("tensor-bound", "all"):
        return {"max_rank", "max_level"}
    if args.suite == "homs":
        return {"algebra", "twisted", "node"} if args.algebra else {"max_rank"}
    return {"algebra", "twisted", "node", "level"} if args.algebra else set()


def cmd_verify(args) -> int:
    reads = _verify_reads(args)
    for name in ("algebra", "twisted", "node", "level", "max_rank", "max_level"):
        if getattr(args, name) is not None and name not in reads:
            raise ValueError(f"verify {args.suite} does not take --{name.replace('_', '-')}")
    bounds = {"--node": args.node, "--max-rank": args.max_rank, "--max-level": args.max_level}
    for flag, bound in bounds.items():
        if bound is not None and bound < 1:
            raise ValueError(f"{flag} must be at least 1, got {bound}")
    rep = _Report()
    for suite in _SUITES[args.suite]:
        suite(rep, args)
    if not rep.total:
        raise ValueError(f"verify {args.suite} selects no check")
    passed = rep.total - rep.failures - rep.guards
    print(f"{passed}/{rep.total} checks passed")
    return 1 if rep.failures else 2 if rep.guards else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kr",
        description="Graded Kirillov-Reshetikhin characters for current algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_node=True):
        p.add_argument("--algebra", required=need_node, help="e.g. C3, B4, A5~, D4~")
        p.add_argument("--twisted", action="store_true", help="treat the algebra as the ambient of a diagram automorphism")
        if need_node:
            p.add_argument("--node", type=int, required=True)
            p.add_argument("--level", type=int, required=True)

    p_set = sub.add_parser("set", help="graded set of highest weights as JSON")
    common(p_set)
    p_set.set_defaults(fn=cmd_set)

    p_char = sub.add_parser("char", help="graded character with dimensions as JSON")
    common(p_char)
    p_char.set_defaults(fn=cmd_char)

    p_ver = sub.add_parser("verify", help="run structural verification suites")
    p_ver.add_argument("suite", choices=sorted(_SUITES))
    p_ver.add_argument("--algebra")
    p_ver.add_argument("--twisted", action="store_true", default=None)
    p_ver.add_argument("--node", type=int)
    p_ver.add_argument("--level", type=int)
    p_ver.add_argument("--max-rank", type=int, dest="max_rank")
    p_ver.add_argument("--max-level", type=int, dest="max_level")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ScopeError, DimensionGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TheoremCheckError, ChainConditionError) as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
