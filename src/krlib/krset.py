"""Graded weight combinatorics of KR modules for the current algebra g[t].

For a node i and level m the module is controlled by a finite set P+(i, m) of
dominant weights built from small base sets by Minkowski sums, together with a
grade for each element read off a greedy reduced expression over the enumerated
chain of the base set.  The chain is affinely independent, so both come from
one enumeration of the compositions of the chain.  Which base set applies is
decided by the invariants epsilon_i(theta) and dcheck_i, never by hardcoding
nodes.

The machine takes one KRDatum per algebra, so the twisted graded sets (see
twisted.fixed_point_data) run through the same chains and compositions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Set
from functools import lru_cache, partial
from math import comb
from types import MappingProxyType

from . import charlib
from .errors import ChainConditionError, DimensionGuardError, TheoremCheckError
from .linalg import Echelon
from .rootsys import LieType, RootSystem, Weight, build


class _Frozen:
    """A record whose __slots__ fields are set once, by object.__setattr__ in
    the constructor; assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GradedChain(_Frozen):
    """The enumeration mu_0 > mu_1 > ... > mu_k of a base set; iterating and
    indexing run over the weights.  Each chain is built once (see kr_chain)."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[Weight, ...]) -> None:
        object.__setattr__(self, "weights", weights)

    @property
    def k(self) -> int:
        return len(self.weights) - 1

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, s: int) -> Weight:
        return self.weights[s]


class GradedCharacter(namedtuple("GradedCharacter", "by_grade")):
    """Highest weights of a KR module grouped by grade, all multiplicity one;
    by_grade is ((grade, weights), ...) with the grades ascending and each
    grade's weights sorted."""

    __slots__ = ()

    def piece(self, s: int) -> dict[Weight, int]:
        for g, ws in self.by_grade:
            if g == s:
                return {w: 1 for w in ws}
        return {}

    def as_dict(self) -> dict[int, dict[Weight, int]]:
        return {s: {w: 1 for w in ws} for s, ws in self.by_grade}


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


def verify_chain_conditions(chain: tuple[Weight, ...], one_step, two_step) -> None:
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


class KRDatum(_Frozen):
    """What the graded-set machine needs of one algebra: the root system rs
    the weights live in, the level steps, base_set(i, m0), the difference
    conditions one_step(diff) and two_step(diff) along an enumerated chain,
    and a label ("" or "twisted ") put in front of P+ in messages.  The datum
    of g (see datum) has steps dcheck and positive roots as chain steps; the
    twisted datum (see twisted.fixed_point_data) lives in g0 with steps
    dsigma and chain steps in R1+.  Each algebra has one instance, so the
    caches below key on identity.
    """

    __slots__ = ("rs", "steps", "base_set", "one_step", "two_step", "label")

    def __init__(self, rs, steps, base_set, one_step, two_step, label) -> None:
        for name, value in zip(self.__slots__, (rs, steps, base_set, one_step, two_step, label)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=None)
def datum(lt: LieType) -> KRDatum:
    """The KR datum of g: consecutive chain differences are positive roots,
    two-step differences lie in the positive root lattice but are not roots."""
    rs = build(lt)

    def is_root(diff: Weight) -> bool:
        return rs.is_positive_root(rs.int_root_coords(diff))

    def two_step(diff: Weight) -> bool:
        rc = rs.int_root_coords(diff)
        return rc is not None and all(c >= 0 for c in rc) and not is_root(diff)

    return KRDatum(rs, rs.dcheck, partial(base_set, rs), is_root, two_step, "")


@lru_cache(maxsize=None)
def _chain(kr: KRDatum, i: int) -> GradedChain:
    d = kr.steps[i - 1]
    chain = sort_chain(kr.rs, kr.base_set(i, d), kr.rs.fundamental(i, d))
    verify_chain_conditions(chain, kr.one_step, kr.two_step)
    # affine independence: each weight of P+ has one composition (see _pplus)
    ech = Echelon()
    for mu in chain[1:]:
        if ech.add({t: b - a for t, (a, b) in enumerate(zip(chain[0], mu)) if a != b}) is None:
            raise TheoremCheckError(
                f"{kr.label}chain {chain} at node {i} is affinely dependent at {mu}"
            )
    return GradedChain(chain)


def kr_chain(kr: KRDatum, i: int) -> GradedChain:
    """The enumerated base set of node i at its step level.

    Built and verified once per (datum, node); a failure is not cached.
    """
    kr.rs._check_node(i)
    return _chain(kr, i)


def enumerate_chain(rs: RootSystem, i: int) -> GradedChain:
    """The enumerated base set: consecutive differences are positive roots and
    two-step differences lie in the positive root lattice but are not roots."""
    return kr_chain(datum(rs.type), i)


# -- P+ as compositions of the chain -------------------------------------------
#
# With (q, r) = divmod(m, d), P+(i, m) is q copies of the chain mu_0 > ... > mu_k
# summed onto the base level {r omega_i}: mu = r omega_i + sum_j c_j mu_j, |c| = q.
# The chain is affinely independent, so c is unique, and the least j with
# mu - mu_j in P+(i, m - d), the greedy choice, is the least j with c_j > 0: the
# greedy reduced expression lists each j c_j times, and the grade is sum_j j c_j.


@lru_cache(maxsize=None)
def _pplus(kr: KRDatum, i: int, m: int) -> Mapping[Weight, tuple[int, ...]]:
    d = kr.steps[i - 1]
    q, r = divmod(m, d)
    start = kr.rs.fundamental(i, r)
    if r and kr.base_set(i, r) != {start}:
        raise TheoremCheckError(f"{kr.label}P+({i}, {r}) is not {{{start}}}")
    chain = _chain(kr, i).weights
    k = len(chain) - 1
    out: dict[Weight, tuple[int, ...]] = {}

    def fill(j: int, left: int, mu: Weight, c: tuple[int, ...]) -> None:
        # c_0, ..., c_{j-1} are chosen and summed into mu; spread left over the rest
        if j == k:
            out[tuple(x + left * y for x, y in zip(mu, chain[k]))] = c + (left,)
            return
        for cj in range(left + 1):
            fill(j + 1, left - cj, mu, c + (cj,))
            mu = tuple(x + y for x, y in zip(mu, chain[j]))

    fill(0, q, start, ())
    return MappingProxyType(out)


def _level(kr: KRDatum, i: int, m: int) -> Mapping[Weight, tuple[int, ...]]:
    """The compositions of P+(i, m); |P+(i, m)| = C(q + k, k), q = m // d and
    k + 1 the chain length, is guarded here, outside the cache of _pplus, so
    that a set cached under a larger guard is still refused."""
    kr.rs._check_node(i)
    if m < 0:
        raise ValueError("level must be non-negative")
    d = kr.steps[i - 1]
    k = _chain(kr, i).k
    size, guard = comb(m // d + k, k), charlib.dimension_guard()
    if size > guard:
        raise DimensionGuardError(f"|{kr.label}P+({i}, {m})| = {size} exceeds {guard}")
    return _pplus(kr, i, m)


def kr_pplus(kr: KRDatum, i: int, m: int) -> Set[Weight]:
    """P+(i, m) as a read-only set, enumerated as compositions of the chain."""
    return _level(kr, i, m).keys()


def pplus(rs: RootSystem, i: int, m: int) -> Set[Weight]:
    """P+(i, m) of g."""
    return kr_pplus(datum(rs.type), i, m)


def reduced_expression(kr: KRDatum, i: int, m: int, mu: Weight) -> tuple[int, ...]:
    """Indices (j_1 <= ... <= j_{m // d}) of the greedy expression of mu in
    P+(i, m): each chain index j repeated c_j times."""
    c = _level(kr, i, m).get(mu)
    if c is None:
        raise ValueError(f"{mu} not in {kr.label}P+({i}, {m})")
    return tuple(j for j, cj in enumerate(c) for _ in range(cj))


def kr_grade(kr: KRDatum, i: int, m: int, mu: Weight) -> int:
    """The grade |mu| = sum of the reduced-expression indices."""
    return sum(reduced_expression(kr, i, m, mu))


def grade(rs: RootSystem, i: int, m: int, mu: Weight) -> int:
    """The grade of mu in P+(i, m) of g."""
    return kr_grade(datum(rs.type), i, m, mu)


def kr_graded_character(kr: KRDatum, i: int, m: int) -> GradedCharacter:
    """All of P+(i, m) grouped by grade; grade 0 is exactly {m omega_i}."""
    comps = _level(kr, i, m)
    buckets: dict[int, list[Weight]] = {}
    for mu in sorted(comps):
        buckets.setdefault(sum(j * cj for j, cj in enumerate(comps[mu])), []).append(mu)
    gc = GradedCharacter(tuple((s, tuple(ws)) for s, ws in sorted(buckets.items())))
    if gc.piece(0) != {kr.rs.fundamental(i, m): 1}:
        raise TheoremCheckError(f"grade 0 of {kr.label}({i}, {m}) is {gc.piece(0)}")
    return gc


def graded_character(rs: RootSystem, i: int, m: int) -> GradedCharacter:
    """All of P+(i, m) of g grouped by grade."""
    return kr_graded_character(datum(rs.type), i, m)


def graded_tensor(
    rs: RootSystem,
    left: dict[int, dict[Weight, int]],
    right: dict[int, dict[Weight, int]],
) -> dict[int, dict[Weight, int]]:
    """Tensor product of graded sums of simples, grades adding."""
    out: dict[int, dict[Weight, int]] = {}
    for s1, dc1 in left.items():
        for s2, dc2 in right.items():
            bucket = out.setdefault(s1 + s2, {})
            for lam, m1 in dc1.items():
                for mu, m2 in dc2.items():
                    for nu, k in charlib.tensor_decompose(rs, lam, mu).items():
                        bucket[nu] = bucket.get(nu, 0) + m1 * m2 * k
    return out


def tensor_bound_check(rs: RootSystem, i: int, m: int) -> bool:
    """Gradewise containment of the level-m graded character in the tensor
    product of one level-(m % d) and m // d level-d graded characters."""
    d = rs.dcheck[i - 1]
    m0, m1 = divmod(m, d)
    acc: dict[int, dict[Weight, int]] = {
        0: {rs.fundamental(i, m1) if m1 else rs.zero(): 1}
    }
    fund = graded_character(rs, i, d).as_dict()
    for _ in range(m0):
        acc = graded_tensor(rs, acc, fund)
    target = graded_character(rs, i, m)
    for s, ws in target.by_grade:
        have = acc.get(s, {})
        for w in ws:
            if have.get(w, 0) < 1:
                raise TheoremCheckError(
                    f"grade {s} weight {w} of ({i}, {m}) missing from the tensor bound"
                )
    return True
