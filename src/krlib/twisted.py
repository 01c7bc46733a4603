"""Twisted analogue of the KR combinatorics.

The ambient algebra is type A or D with a diagram automorphism of order two.
Everything is computed inside the fixed-point algebra g0; the odd part g1 is
tracked only through its highest g0-weight phi.  Levels are measured against
the node-dependent steps dsigma instead of dcheck.  Only the input is twisted:
fixed_point_data packs g0, dsigma, the twisted base sets and the R1+ chain
conditions into a KRDatum, and krset builds chains, P+ and grades from it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

from . import charlib
from .errors import TheoremCheckError
from .krset import (
    GradedChain,
    GradedCharacter,
    KRDatum,
    _omega_step_set,
    kr_chain,
    kr_graded_character,
)
from .rootsys import LieType, RootSystem, Weight, build

_MIN_N = {"A_odd": 2, "A_even": 1, "D": 2}


class OuterType(namedtuple("OuterType", "family n")):
    """An order-two diagram automorphism, indexed by the fixed-point rank n.

    family "A_odd" means ambient A_{2n-1}, "A_even" ambient A_{2n} and "D"
    ambient D_{n+1}.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int):
        if family not in _MIN_N:
            raise ValueError(f"unknown outer family {family!r}")
        if n < _MIN_N[family]:
            raise ValueError(f"{family} needs n >= {_MIN_N[family]}")
        return super().__new__(cls, family, n)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate the edited copy too
        return cls(*iterable)

    @property
    def ambient(self) -> LieType:
        if self.family == "A_odd":
            return LieType("A", 2 * self.n - 1)
        if self.family == "A_even":
            return LieType("A", 2 * self.n)
        return LieType("D", self.n + 1)

    @property
    def label(self) -> str:
        amb = self.ambient
        return f"{amb.family}{amb.rank}~"


def outer_from_ambient(family: str, rank: int) -> OuterType:
    """The outer type whose ambient diagram is family_rank."""
    if family == "A":
        if rank >= 3 and rank % 2 == 1:
            return OuterType("A_odd", (rank + 1) // 2)
        if rank >= 2 and rank % 2 == 0:
            return OuterType("A_even", rank // 2)
        raise ValueError(f"A_{rank} has no usable diagram automorphism")
    if family == "D":
        if rank >= 3:
            return OuterType("D", rank - 1)
        raise ValueError(f"D_{rank} needs rank >= 3")
    raise ValueError(f"no order-two diagram automorphism handled for {family}_{rank}")


class TwistedData(namedtuple("TwistedData", "outer g0 r1_positive phi dsigma kr")):
    """Fixed-point algebra g0, the odd-part root set R1+, phi, the steps and
    the KR datum that drives the twisted graded sets."""

    __slots__ = ()


def _short_positive(rs: RootSystem) -> list[tuple[int, ...]]:
    # roots of minimal length; in the simply laced case that is all of them
    norms = {rc: rs.twice_inner_root(w, rc) for rc, w in zip(rs.positive_roots, rs.root_pairings)}
    least = min(norms.values())
    return [rc for rc in rs.positive_roots if norms[rc] == least]


def _algebra_dim(lt: LieType) -> int:
    if lt.family == "A":
        return lt.rank * (lt.rank + 2)
    if lt.family == "D":
        return lt.rank * (2 * lt.rank - 1)
    raise ValueError(lt.family)


@lru_cache(maxsize=None)
def fixed_point_data(outer: OuterType) -> TwistedData:
    """Fixed-point algebra and odd-part data of the automorphism."""
    n = outer.n
    if outer.family == "A_odd":
        g0 = build(LieType("C", n))
    elif outer.family == "A_even" and n == 1:
        g0 = build(LieType("A", 1))
    else:
        g0 = build(LieType("B", n))
    short = _short_positive(g0)
    highest = max(short, key=lambda rc: (sum(rc), rc))
    phi = g0.root_weight(highest)
    if not g0.dominant(phi):
        raise TheoremCheckError(f"highest short root {phi} of {g0.type} is not dominant")
    if outer.family == "A_even":
        r1 = frozenset(g0.positive_roots) | frozenset(
            tuple(2 * c for c in rc) for rc in short
        )
        phi = tuple(2 * c for c in phi)
        dsigma = tuple(2 if i < n else 4 for i in range(1, n + 1))
    else:
        r1 = frozenset(short)
        dsigma = (1,) * n
    g0_dim = 2 * len(g0.positive_roots) + g0.rank
    g1_dim = _algebra_dim(outer.ambient) - g0_dim
    if charlib.weyl_dim(g0, phi) != g1_dim:
        raise TheoremCheckError(
            f"dim V({phi}) = {charlib.weyl_dim(g0, phi)} over {g0.type}, but g1 has dimension {g1_dim}"
        )

    def in_r1(diff: Weight) -> bool:
        return g0.int_root_coords(diff) in r1

    # Two-step chain differences avoid R1+.  For the A automorphisms they also
    # avoid R0+; for the D automorphism they do land on long positive roots of
    # g0 (omega_j - omega_{j-2} = e_{j-1} + e_j there).
    if outer.family == "D":
        two_step = lambda diff: not in_r1(diff)
    else:
        two_step = lambda diff: not in_r1(diff) and not g0.is_positive_root(
            g0.int_root_coords(diff)
        )
    base = partial(_base_set_sigma, outer, g0, dsigma)
    kr = KRDatum(g0, dsigma, base, in_r1, two_step, "twisted ")
    return TwistedData(outer, g0, r1, phi, dsigma, kr)


def _scaled_ladder(g0: RootSystem, i: int, mult: int) -> frozenset[Weight]:
    # mult*omega_i, mult*omega_{i-1}, ..., mult*omega_1, 0
    return frozenset(
        [g0.fundamental(j, mult) for j in range(1, i + 1)] + [g0.zero()]
    )


def _base_set_sigma(
    outer: OuterType, g0: RootSystem, dsigma: tuple[int, ...], i: int, m0: int
) -> frozenset[Weight]:
    g0._check_node(i)
    d = dsigma[i - 1]
    if not 1 <= m0 <= d:
        raise ValueError(f"base level {m0} outside 1..{d} at node {i}")
    fam = outer.family
    n = outer.n
    if fam == "A_odd":
        return _omega_step_set(g0, i, 1)
    if fam == "D":
        if i == n:
            return frozenset([g0.fundamental(n)])
        return _scaled_ladder(g0, i, 1)
    # A_even
    if m0 == 1:
        return frozenset([g0.fundamental(i)])
    if i < n:
        return _scaled_ladder(g0, i, 2)
    if m0 in (2, 3):
        return frozenset([g0.fundamental(n, m0)])
    return frozenset(
        [g0.fundamental(n, 4)]
        + [g0.fundamental(j, 2) for j in range(1, n)]
        + [g0.zero()]
    )


def base_set_sigma(data: TwistedData, i: int, m0: int) -> frozenset[Weight]:
    """The base set at node i for a level 1 <= m0 <= dsigma_i."""
    return data.kr.base_set(i, m0)


def enumerate_chain_sigma(data: TwistedData, i: int) -> GradedChain:
    """Enumerated base set: consecutive differences are in R1+, two-step
    differences are not (see fixed_point_data)."""
    return kr_chain(data.kr, i)


def graded_character_sigma(data: TwistedData, i: int, m: int) -> GradedCharacter:
    """All of twisted P+(i, m) grouped by grade; grade 0 is {m omega_i}."""
    return kr_graded_character(data.kr, i, m)
