"""Graded weight combinatorics of KR modules for the current algebra g[t].

For a node i and level m the module is controlled by a finite set P+(i, m) of
dominant weights built from small base sets by Minkowski sums, together with a
grade for each element read off a greedy reduced expression over the enumerated
chain of the base set.  Which base set applies is decided by the invariants
epsilon_i(theta) and dcheck_i, never by hardcoding nodes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType

from . import charlib
from .errors import ChainConditionError, TheoremCheckError
from .rootsys import LieType, RootSystem, Weight, build


@dataclass(frozen=True)
class GradedChain:
    """The enumeration mu_0 > mu_1 > ... > mu_k of a base set."""

    weights: tuple[Weight, ...]

    @property
    def k(self) -> int:
        return len(self.weights) - 1

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, s: int) -> Weight:
        return self.weights[s]


@dataclass(frozen=True)
class GradedCharacter:
    """Highest weights of a KR module grouped by grade, all multiplicity one."""

    by_grade: tuple[tuple[int, tuple[Weight, ...]], ...]

    def grades(self) -> list[int]:
        return [s for s, _ in self.by_grade]

    def piece(self, s: int) -> dict[Weight, int]:
        for g, ws in self.by_grade:
            if g == s:
                return {w: 1 for w in ws}
        return {}

    def as_dict(self) -> dict[int, dict[Weight, int]]:
        return {s: {w: 1 for w in ws} for s, ws in self.by_grade}

    def dims(self, rs: RootSystem) -> list[int]:
        return [
            sum(charlib.weyl_dim(rs, w) for w in ws) for _, ws in self.by_grade
        ]


def construction_nodes(rs: RootSystem) -> list[int]:
    """Nodes whose KR base set is not a singleton: epsilon_i(theta) = 2."""
    return [i for i in range(1, rs.rank + 1) if rs.epsilon(rs.theta, i) == 2]


def _omega_step_set(rs: RootSystem, i: int, top_mult: int) -> frozenset[Weight]:
    # top_mult * omega_i, omega_{i-2}, omega_{i-4}, ..., down to omega_{i mod 2}
    out = [rs.fundamental(i, top_mult)]
    j = i - 2
    while j >= 0:
        out.append(rs.fundamental(j))
        j -= 2
    return frozenset(out)


def base_set(rs: RootSystem, i: int, m0: int) -> frozenset[Weight]:
    """The base set P+(i, m0) for a level 1 <= m0 <= dcheck_i."""
    rs._check_node(i)
    d = rs.dcheck[i - 1]
    if not 1 <= m0 <= d:
        raise ValueError(f"base level {m0} outside 1..{d} at node {i}")
    eps = rs.epsilon(rs.theta, i)
    if m0 == 1:
        if eps == d:
            return frozenset([rs.fundamental(i)])
        # eps = 2, dcheck_i = 1: descending two-step ladder of fundamentals
        return _omega_step_set(rs, i, 1)
    # m0 = 2 forces dcheck_i = 2, hence eps = 2 as well
    if rs.type.family == "B":
        return _omega_step_set(rs, i, 2)
    if rs.type.family == "C":
        return frozenset(
            [rs.fundamental(i, 2)] + [rs.fundamental(j, 2) for j in range(1, i)] + [rs.zero()]
        )
    raise ValueError(f"no level-2 base set at node {i} of {rs.type}")


def sort_chain(rs: RootSystem, weights, top: Weight) -> tuple[Weight, ...]:
    """Order a base set by increasing height of (top - mu); heights are
    distinct and the chain starts at top."""
    def depth(mu: Weight) -> int:
        return rs.scaled_height(tuple(a - b for a, b in zip(top, mu)))

    ordered = sorted(weights, key=depth)
    depths = [depth(mu) for mu in ordered]
    if len(set(depths)) != len(depths):
        raise TheoremCheckError(f"base set {ordered} has repeated depths below {top}")
    if ordered[0] != top:
        raise TheoremCheckError(f"chain starts at {ordered[0]}, not at the top weight {top}")
    return tuple(ordered)


def verify_chain_conditions(
    rs: RootSystem,
    chain: tuple[Weight, ...],
    one_step,
    two_step,
) -> None:
    """Check difference conditions along a chain with supplied predicates."""
    for s in range(len(chain) - 1):
        diff = tuple(a - b for a, b in zip(chain[s], chain[s + 1]))
        if not one_step(diff):
            raise ChainConditionError(
                f"one-step difference {diff} fails at position {s}",
                (chain[s], chain[s + 1]),
            )
    for s in range(len(chain) - 2):
        diff = tuple(a - b for a, b in zip(chain[s], chain[s + 2]))
        if not two_step(diff):
            raise ChainConditionError(
                f"two-step difference {diff} fails at position {s}",
                (chain[s], chain[s + 2]),
            )


def _in_q_plus(rs: RootSystem, eta: Weight) -> bool:
    rc = rs.int_root_coords(eta)
    return rc is not None and all(c >= 0 for c in rc)


@lru_cache(maxsize=None)
def _chain(lt: LieType, i: int, m0: int) -> GradedChain:
    rs = build(lt)
    top = rs.fundamental(i, m0)
    chain = sort_chain(rs, base_set(rs, i, m0), top)
    verify_chain_conditions(
        rs,
        chain,
        lambda diff: rs.is_positive_root(rs.to_root_coords(diff)),
        lambda diff: _in_q_plus(rs, diff)
        and not rs.is_positive_root(rs.to_root_coords(diff)),
    )
    return GradedChain(chain)


def enumerate_chain(rs: RootSystem, i: int, m0: int | None = None) -> GradedChain:
    """The enumerated base set: consecutive differences are positive roots and
    two-step differences lie in the positive root lattice but are not roots.

    Built and verified once per (type, node, level); a failure is not cached.
    """
    rs._check_node(i)
    if m0 is None:
        m0 = rs.dcheck[i - 1]
    return _chain(rs.type, i, m0)


@lru_cache(maxsize=None)
def _pplus(lt: LieType, i: int, m: int) -> frozenset[Weight]:
    rs = build(lt)
    if m == 0:
        return frozenset([rs.zero()])
    d = rs.dcheck[i - 1]
    if m <= d:
        return base_set(rs, i, m)
    step = base_set(rs, i, d)
    rest = _pplus(lt, i, m - d)
    return frozenset(
        tuple(map(add, x, y)) for x in step for y in rest
    )


def pplus(rs: RootSystem, i: int, m: int) -> frozenset[Weight]:
    """P+(i, m), defined by base sets and the Minkowski-sum recursion."""
    rs._check_node(i)
    if m < 0:
        raise ValueError("level must be non-negative")
    return _pplus(rs.type, i, m)


# -- grades, level by level ---------------------------------------------------
#
# A grade table of level m maps each mu in P+(i, m) to (j*, grade): j* is the
# least chain index with mu - mu_{j*} in P+(i, m - d), and grade(mu) is
# j* + grade(mu - mu_{j*}) read from the table of level m - d.  Reading j* off
# the tables level by level gives the greedy reduced expression.  The base
# level m mod d holds only its target weight (m mod d) * omega_i, with index
# -1 and grade 0.  Tables are read-only mappings.

GradeTable = Mapping[Weight, tuple[int, int]]


def base_grades(target: Weight) -> GradeTable:
    """Grade table of the base level: only its target, in grade 0."""
    return MappingProxyType({target: (-1, 0)})


def table_grade(table: GradeTable, mu: Weight) -> int:
    """Grade of mu; a weight missing from the table can only be a base-level
    residual other than the target."""
    entry = table.get(mu)
    if entry is None:
        (target,) = table
        raise ValueError(f"residual {mu} != {target} after all stages")
    return entry[1]


def level_grades(
    chain: tuple[Weight, ...],
    weights: frozenset[Weight],
    below_set: frozenset[Weight],
    below: GradeTable,
) -> GradeTable:
    """Grade table of one level from the level d below it."""
    out: dict[Weight, tuple[int, int]] = {}
    for mu in weights:
        for j, mu_j in enumerate(chain):
            residual = tuple(map(sub, mu, mu_j))
            if residual in below_set:
                break
        else:
            raise ValueError(f"no reduced expression: stuck at {mu}")
        out[mu] = (j, j + table_grade(below, residual))
    return MappingProxyType(out)


def walk_levels(
    tables, chain: tuple[Weight, ...], d: int, m: int, mu: Weight
) -> tuple[int, ...]:
    """The greedy expression (j_1, ..., j_{m // d}) of mu, read off the grade
    tables of levels m, m - d, ... through tables(level)."""
    js = []
    while m >= d:
        j = tables(m)[mu][0]
        js.append(j)
        mu = tuple(map(sub, mu, chain[j]))
        m -= d
    table_grade(tables(m), mu)  # the base level holds only its target
    return tuple(js)


def group_by_grade(
    weights: frozenset[Weight], table: GradeTable, top: Weight, label: str
) -> GradedCharacter:
    """The weights of one level grouped by grade; grade 0 must be {top}."""
    buckets: dict[int, list[Weight]] = {}
    for mu in sorted(weights):
        buckets.setdefault(table_grade(table, mu), []).append(mu)
    gc = GradedCharacter(tuple((s, tuple(ws)) for s, ws in sorted(buckets.items())))
    if gc.piece(0) != {top: 1}:
        raise TheoremCheckError(f"grade 0 of {label} is {gc.piece(0)}")
    total = sum(len(ws) for _, ws in gc.by_grade)
    if total != len(weights):
        raise TheoremCheckError("a weight received two grades")
    return gc


@lru_cache(maxsize=None)
def _grades(lt: LieType, i: int, m: int) -> GradeTable:
    rs = build(lt)
    d = rs.dcheck[i - 1]
    if m < d:
        return base_grades(rs.fundamental(i, m))
    return level_grades(
        _chain(lt, i, d).weights, _pplus(lt, i, m), _pplus(lt, i, m - d), _grades(lt, i, m - d)
    )


def reduced_expression(rs: RootSystem, i: int, m: int, mu: Weight) -> tuple[int, ...]:
    """Indices (j_1 <= ... <= j_{m0}) of the greedy expression of mu in P+(i, m)."""
    if mu not in pplus(rs, i, m):
        raise ValueError(f"{mu} not in P+({i}, {m})")
    d = rs.dcheck[i - 1]
    return walk_levels(
        lambda lvl: _grades(rs.type, i, lvl), _chain(rs.type, i, d).weights, d, m, mu
    )


def grade(rs: RootSystem, i: int, m: int, mu: Weight) -> int:
    """The grade |mu| = sum of the reduced-expression indices."""
    if mu not in pplus(rs, i, m):
        raise ValueError(f"{mu} not in P+({i}, {m})")
    return table_grade(_grades(rs.type, i, m), mu)


def graded_character(rs: RootSystem, i: int, m: int) -> GradedCharacter:
    """All of P+(i, m) grouped by grade; grade 0 is exactly {m omega_i}."""
    weights = pplus(rs, i, m)
    return group_by_grade(
        weights, _grades(rs.type, i, m), rs.fundamental(i, m), f"({i}, {m})"
    )


def weight_character(rs: RootSystem, gc: GradedCharacter) -> dict[Weight, int]:
    """Weight character of the whole graded module, grades forgotten."""
    out: dict[Weight, int] = {}
    for _, ws in gc.by_grade:
        for w, m in charlib.expand_dominant(rs, {x: 1 for x in ws}).items():
            out[w] = out.get(w, 0) + m
    return out


def graded_tensor(
    rs: RootSystem,
    left: dict[int, dict[Weight, int]],
    right: dict[int, dict[Weight, int]],
    max_dim: int | None = None,
) -> dict[int, dict[Weight, int]]:
    """Tensor product of graded sums of simples, grades adding."""
    out: dict[int, dict[Weight, int]] = {}
    for s1, dc1 in left.items():
        for s2, dc2 in right.items():
            bucket = out.setdefault(s1 + s2, {})
            for lam, m1 in dc1.items():
                for mu, m2 in dc2.items():
                    for nu, k in charlib.tensor_decompose(rs, lam, mu, max_dim).items():
                        bucket[nu] = bucket.get(nu, 0) + m1 * m2 * k
    return out


def tensor_bound_check(rs: RootSystem, i: int, m: int, max_dim: int | None = None) -> bool:
    """Gradewise containment of the level-m graded character in the tensor
    product of one level-(m % d) and m // d level-d graded characters."""
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    acc: dict[int, dict[Weight, int]] = {
        0: {rs.fundamental(i, m1) if m1 else rs.zero(): 1}
    }
    fund = graded_character(rs, i, d).as_dict()
    for _ in range(m0):
        acc = graded_tensor(rs, acc, fund, max_dim)
    target = graded_character(rs, i, m)
    for s, ws in target.by_grade:
        have = acc.get(s, {})
        for w in ws:
            if have.get(w, 0) < 1:
                raise TheoremCheckError(
                    f"grade {s} weight {w} of ({i}, {m}) missing from the tensor bound"
                )
    return True
