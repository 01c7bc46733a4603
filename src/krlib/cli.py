"""Command line front end: graded sets, characters and verification suites.

Exit codes: 0 all good, 1 a structural check failed, 2 invalid input or a
dimension guard stopped the computation (raise it with KR_MAX_DIM).  In a
verify run a guard stops only its own check, which prints a GUARD line; the
run exits 1 if any check failed, else 2 if any hit a guard.  A verify flag
the selected suite does not read, a verify bound below 1, or bounds that
select no check, are invalid input.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import charlib, homcheck, krset, modforge, twisted
from .errors import (
    ChainConditionError,
    DimensionGuardError,
    ScopeError,
    TheoremCheckError,
)
from .rootsys import LieType, RootSystem, build, parse_type
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


def _label(alg) -> str:
    return alg.outer.label if isinstance(alg, TwistedData) else str(alg.type)


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
        ws = by_grade.get(s, ())
        consts = [
            {"weight": list(w), "mult": 1, "dim": charlib.weyl_dim(weight_rs, w)}
            for w in ws
        ]
        dim_s = sum(c["dim"] for c in consts)
        grades.append({"grade": s, "constituents": consts, "dim": dim_s})
        poly.append(dim_s)
        total += dim_s
    payload = {
        "algebra": _label(alg),
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


def _rootsystems(max_rank: int):
    """Every RootSystem of rank at most max_rank, family by family, each
    built when the caller reaches it."""
    for fam in "ABCD":
        for r in range(1, max_rank + 1):
            try:
                lt = LieType(fam, r)
            except ValueError:  # below the family's minimum rank
                continue
            yield build(lt)


def _sweep(max_rank: int):
    """_rootsystems(max_rank), then every TwistedData of ambient rank at most
    max_rank, each built when the caller reaches it."""
    yield from _rootsystems(max_rank)
    for fam in "AD":
        for r in range(1, max_rank + 1):
            try:
                outer = twisted.outer_from_ambient(fam, r)
            except ValueError:  # no diagram automorphism at this rank
                continue
            yield twisted.fixed_point_data(outer)


def _listed(labels, max_rank: int):
    """The algebras of the labels whose rank is at most max_rank, in order,
    each built when the caller reaches it."""
    for label in labels:
        if parse_type(label.rstrip("~")).rank <= max_rank:
            yield parse_algebra(label)


def _chain(alg, i: int) -> krset.GradedChain:
    if isinstance(alg, TwistedData):
        return twisted.enumerate_chain_sigma(alg, i)
    return krset.enumerate_chain(alg, i)


def suite_chains(rep: _Report, args) -> None:
    for alg in _sweep(args.max_rank or 5):
        rank = alg.g0.rank if isinstance(alg, TwistedData) else alg.rank
        for i in range(1, rank + 1):
            rep.run(f"chain {_label(alg)} node {i}", lambda a=alg, j=i: f"k={_chain(a, j).k}")


_HOM_SWEEP = (
    "C2", "C3", "C4", "C5", "B3", "B4", "B5", "D4", "D5",
    "A3~", "A4~", "A5~", "A6~", "D3~", "D4~", "D5~",
)


def _hom_line(alg, i: int) -> str:
    if isinstance(alg, TwistedData):
        r = homcheck.cond_twisted(alg, i)
    else:
        r = homcheck.cond_untwisted(alg, i)
    parts = [f"one-step Hom dims {r.next_step}"]
    if r.two_step:
        parts.append(f"two-step Hom = {r.two_step}")
    if r.three_step:
        parts.append(f"three-step Hom = {r.three_step}")
    return ", ".join(parts)


def suite_homs(rep: _Report, args) -> None:
    if args.algebra:
        algs = [parse_algebra(args.algebra, args.twisted)]
    else:
        algs = _listed(_HOM_SWEEP, args.max_rank or 6)
    for alg in algs:
        if args.node:
            nodes = [args.node]
        elif isinstance(alg, TwistedData):
            nodes = range(1, alg.g0.rank + 1)
        else:
            nodes = krset.construction_nodes(alg)
        for i in nodes:
            rep.run(f"homs {_label(alg)} node {i}", lambda a=alg, j=i: _hom_line(a, j))


def _wedge_line(alg) -> str:
    if isinstance(alg, TwistedData):
        return f"decomposition {dict(homcheck.wedge_g1_decomp(alg).decomposition)}"
    return f"nu = {homcheck.wedge_adjoint_nu(alg)}"


def suite_wedge(rep: _Report, args) -> None:
    for alg in _listed(_HOM_SWEEP, args.max_rank or 6):
        kind = "g1" if isinstance(alg, TwistedData) else "adjoint"
        rep.run(f"wedge {kind} {_label(alg)}", lambda a=alg: _wedge_line(a))


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
    for rs in _rootsystems(max_rank):
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


# -- command line ------------------------------------------------------

# option -> kind: str, int (read by int(), as argparse reads it) or bool, a flag
_KINDS = dict(algebra=str, twisted=bool, node=int, level=int, max_rank=int, max_level=int)
_SPELL = {name: "--" + name.replace("_", "-") for name in _KINDS}
_WORDS = {name: _SPELL[name] + f" {name.upper()}" * (k is not bool) for name, k in _KINDS.items()}
_GRADED = (("algebra", "node", "level"), ("twisted",))
# command -> (handler, help, (required options, other options)); verify also takes a suite
_COMMANDS = {
    "set": (cmd_set, "graded set of highest weights as JSON", _GRADED),
    "char": (cmd_char, "graded character with dimensions as JSON", _GRADED),
    "verify": (cmd_verify, "run structural verification suites", ((), tuple(_KINDS))),
}


def _exit(command, error=None):
    """Print the help of kr (command None) or of a command and exit 0, or,
    given an error, the usage and the error on stderr and exit 2."""
    if command is None:
        prog, words = "kr", ["{" + ",".join(_COMMANDS) + "} ..."]
        about = "Graded Kirillov-Reshetikhin characters for current algebras.\n\n" + "\n".join(
            f"  {name:<7} {spec[1]}" for name, spec in _COMMANDS.items())
    else:
        prog, (_, about, (required, other)) = f"kr {command}", _COMMANDS[command]
        words = [_WORDS[n] for n in required] + [f"[{_WORDS[n]}]" for n in other]
        words += ["{" + ",".join(sorted(_SUITES)) + "}"] * (command == "verify")
        about += "\n\nALGEBRA is a label such as C3, B4, A5~ or D4~; --twisted adds the ~."
    usage = " ".join([f"usage: {prog} [-h]", *words])
    if error is not None:
        print(f"{usage}\n{prog}: error: {error}", file=sys.stderr)
        sys.exit(2)
    print(f"{usage}\n\n{about}\n-h, --help prints this help.")
    sys.exit(0)


def _option(tok: str, names: dict, command):
    """None if argparse reads tok as a value, else (option, text after '='
    or None); the option is None if the command has no such option."""
    if tok[:1] != "-" or tok == "-":
        return None
    head, eq, value = tok.partition("=")
    if head in names:
        hits = [(head, value if eq else None)]
    elif tok[1] == "-":  # a prefix of long options
        hits = [(opt, value if eq else None) for opt in names if opt.startswith(head)]
    else:  # -h with text glued on
        hits = [(tok[:2], tok[2:])] if tok[:2] in names else []
    if len(hits) > 1:
        _exit(command, f"ambiguous option: {tok} could match {', '.join(o for o, _ in hits)}")
    if not hits:
        return None if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok else (None, None)
    opt, value = hits[0]
    return names[opt], None if opt == "-h" and value and not value.strip("h") else value  # -hh


def parse_args(argv: list) -> SimpleNamespace:
    """Read a kr command line as argparse reads it: --opt value, --opt=value
    or a unique prefix of --opt, in any order around the positionals, the
    last repeat winning; -h/--help; `--` ends the options.  Help and usage
    errors are printed and end in SystemExit (0 and 2)."""
    cut = argv.index("--") if "--" in argv else len(argv)
    command = fn = suite = None
    values, extras, names, j = dict.fromkeys(_KINDS), [], {"-h": "help", "--help": "help"}, 0
    while j < len(argv):
        found = _option(argv[j], names, command) if j < cut else None
        if found is None and command is None:  # the command; the rest is its own
            command, j = argv[j], j + 1
            if command not in _COMMANDS:
                _exit(None, f"argument command: invalid choice: {command!r}")
            fn, _, (required, other) = _COMMANDS[command]
            names = {**names, **{_SPELL[n]: n for n in required + other}}
            values["twisted"] = None if command == "verify" else False
            for tok in argv[j:cut]:  # an ambiguous option is reported first
                _option(tok, names, command)
        elif found is None:  # a positional, or the `--` at cut
            at = j + (j == cut)  # verify's suite takes a `--` on either side
            if command == "verify" and suite is None and at < len(argv):
                suite, j = argv[at], at + 1 + (at + 1 == cut)
                if suite not in _SUITES:
                    _exit(command, f"argument suite: invalid choice: {suite!r}")
            else:
                extras.append(argv[j])
                j += 1
        else:
            (name, value), kind, flag = found, _KINDS.get(found[0]), _SPELL.get(found[0], "-h")
            j += 1
            if name is None:
                extras.append(argv[j - 1])
            elif name == "help" or kind is bool and value is not None:  # or a flag given a value
                _exit(command, value if value is None else f"{flag} takes no value, got {value!r}")
            elif kind is bool:
                values[name] = True
            else:
                if value is None and (j >= cut or _option(argv[j], names, command)):
                    _exit(command, f"argument {flag}: expected one argument")
                elif value is None:
                    value, j = argv[j], j + 1
                try:
                    values[name] = kind(value)
                except ValueError:
                    _exit(command, f"argument {flag}: invalid int value: {value!r}")
    missing = [_SPELL[n] for n in required if values[n] is None] if command else ["command"]
    if missing or command == "verify" and suite is None:
        _exit(command, "the following arguments are required: " + (", ".join(missing) or "SUITE"))
    if extras:
        _exit(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, suite=suite, fn=fn, **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as stop:  # help, or a usage error, printed by parse_args
        return stop.code
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
