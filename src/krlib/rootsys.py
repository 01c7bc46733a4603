"""Classical root systems of types A-D from the Cartan matrix, Bourbaki numbering.

All arithmetic is over Z.  Weights are integer vectors in the basis of
fundamental weights, root-lattice elements integer vectors in the basis of
simple roots; a weight off the root lattice has its simple-root coordinates
scaled by the common denominator root_den.  The invariant form is
normalized so that (theta, theta) = 2 for the highest root theta, which
makes dcheck[j] = 2/(alpha_j, alpha_j) an integer in {1, 2}.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm
from operator import add

from .errors import TheoremCheckError
from .linalg import Echelon

Weight = tuple[int, ...]

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3}


class LieType(namedtuple("LieType", "family rank")):
    """A classical family letter together with a rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in _RANK_MIN:
            raise ValueError(f"unknown family {family!r}, expected one of A, B, C, D")
        if rank < _RANK_MIN[family]:
            raise ValueError(f"rank {rank} below the minimum {_RANK_MIN[family]} for type {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate the edited copy too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """cartan[i][j] = <alpha_i, alpha_j^vee>, nodes numbered as in Bourbaki."""
    c = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    if family == "B":
        c[n - 2][n - 1] = -2
    elif family == "C":
        c[n - 1][n - 2] = -2
    elif family == "D":
        # node n hangs off node n - 2 instead of node n - 1
        c[n - 1][n - 2] = c[n - 2][n - 1] = 0
        c[n - 1][n - 3] = c[n - 3][n - 1] = -1
    return tuple(map(tuple, c))


def _dcheck(family: str, n: int) -> tuple[int, ...]:
    """dcheck[j] = 2 / (alpha_j, alpha_j): 2 on the short simple roots."""
    short = {"B": range(n - 1, n), "C": range(n - 1)}.get(family, ())
    return tuple(2 if j in short else 1 for j in range(n))


def _alpha_strings(c, n: int) -> dict:
    """Phi+ by alpha-strings in height order (Humphreys 9.4): beta + alpha_i
    is a root iff p - <beta, alpha_i^vee> > 0, p the length of the alpha_i-string
    below beta.  Maps each root to its fundamental coordinates, entry i being
    <root, alpha_i^vee>, a root parent and i with parent + alpha_i = root."""
    level = [(tuple(int(k == i) for k in range(n)), c[i]) for i in range(n)]
    found = {beta: (pairing, None, i) for i, (beta, pairing) in enumerate(level)}
    while level:
        nxt = []
        for beta, pairing in level:
            for i, q in enumerate(pairing):
                # count the string below only as far as the test needs
                p = 0
                while p <= q and beta[:i] + (beta[i] - p - 1,) + beta[i + 1 :] in found:
                    p += 1
                if p > q:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if up not in found:
                        found[up] = (tuple(map(add, pairing, c[i])), beta, i)
                        nxt.append((up, found[up][0]))
        level = nxt
    return found


class RootSystem:
    """Root data of one classical simple type, with exact weight arithmetic.

    Nodes are numbered 1..rank as in the Bourbaki tables.  positive_roots and
    theta are stored as integer coefficient vectors over the simple roots.
    Checked tables from the alpha-string walk, aligned with positive_roots:
    root_pairings[k] is the weight of root k, and root k is positive_roots[up]
    + alpha_i (alpha_i alone if up = -1) for (up, i) = root_parents[k].
    """

    def __init__(self, lietype: LieType):
        self.type = lietype
        n = lietype.rank
        self.rank = n
        fam = lietype.family
        self.cartan: tuple[tuple[int, ...], ...] = _cartan(fam, n)
        self.dcheck: tuple[int, ...] = _dcheck(fam, n)
        c, d = self.cartan, self.dcheck
        # the nonzero (k, cartan[j][k]) of each row, at most four: a simple
        # reflection s_j moves only these coordinates of a weight
        self._reflections: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, a) for k, a in enumerate(row) if a) for row in c
        )
        if any(c[i][j] * d[i] != c[j][i] * d[j] for i in range(n) for j in range(i)):
            raise TheoremCheckError(f"dcheck {d} does not symmetrize the Cartan matrix {c}")

        walk = _alpha_strings(c, n)
        pos = sorted(walk, key=lambda r: (sum(r), r))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(pos)
        self._pos_set = frozenset(pos)
        index = {r: k for k, r in enumerate(pos)}
        self.root_pairings: tuple[Weight, ...] = tuple(walk[r][0] for r in pos)
        self.root_parents = tuple((index.get(walk[r][1], -1), walk[r][2]) for r in pos)
        for k, (root, weight, (up, i)) in enumerate(zip(pos, self.root_pairings, self.root_parents)):
            # a parent precedes its root; (-1,) * n plus alpha_i is no root
            below = (0,) * n if up == -1 else pos[up] if 0 <= up < k else (-1,) * n
            if below[:i] + (below[i] + 1,) + below[i + 1 :] != root or weight != self.root_weight(root):
                raise TheoremCheckError(f"table entry {weight}, {(up, i)} of the root {root} is wrong")

        # highest root: the unique root dominating every other one
        theta = pos[-1]
        if not all(all(t - c >= 0 for t, c in zip(theta, a)) for a in pos):
            raise TheoremCheckError(f"{theta} does not dominate every positive root")
        self.theta: tuple[int, ...] = theta
        if self.twice_inner_root(self.root_weight(theta), theta) != 4:
            raise TheoremCheckError(f"(theta, theta) != 2 for theta = {theta} and dcheck {d}")

        # columns of inv(cartan^T): fundamental weights in simple-root coordinates;
        # row i is the coordinate vector of e_i over the rows of cartan^T.  It is
        # stored as an integer numerator matrix over one positive denominator.
        at = Echelon()
        for col in zip(*self.cartan):
            at.add(dict(enumerate(col)))
        inv = [at.coords({i: 1}) for i in range(n)]
        self.root_den: int = lcm(*(d for _, d in inv))
        self._inv_num: tuple[tuple[int, ...], ...] = tuple(
            tuple(x.get(k, 0) * (self.root_den // d) for k in range(n)) for x, d in inv
        )
        # column sums: root_den * height(lam) = _height_num . lam
        self._height_num: tuple[int, ...] = tuple(sum(col) for col in zip(*self._inv_num))

    # -- conversions ---------------------------------------------------

    def scaled_root_coords(self, lam: Weight) -> tuple[int, ...]:
        """root_den times the simple-root coordinates of a weight, as integers."""
        self._check_weight(lam)
        return tuple(sum(a * c for a, c in zip(row, lam)) for row in self._inv_num)

    def int_root_coords(self, lam: Weight) -> tuple[int, ...] | None:
        """Integer coordinates over the simple roots, or None off the root lattice."""
        den = self.root_den
        scaled = self.scaled_root_coords(lam)
        if any(c % den for c in scaled):
            return None
        return tuple(c // den for c in scaled)

    def scaled_height(self, lam: Weight) -> int:
        """root_den times the height (sum of simple-root coordinates) of a weight.

        An integer, ordered exactly as the height, for comparisons and sorting.
        """
        self._check_weight(lam)
        return sum(h * c for h, c in zip(self._height_num, lam))

    def root_weight(self, coeffs: tuple[int, ...]) -> Weight:
        """Fundamental-weight coordinates of an integral root-lattice element."""
        out = [0] * self.rank
        for k, c in enumerate(coeffs):
            for j, a in self._reflections[k] if c else ():
                out[j] += c * a
        return tuple(out)

    def epsilon(self, eta, i: int) -> int:
        """Coefficient of the i-th simple root in eta (1-based node index)."""
        self._check_node(i)
        c = eta[i - 1]
        if c != int(c):
            raise ValueError(f"non-integral coefficient {c} at node {i}")
        return int(c)

    def is_positive_root(self, eta) -> bool:
        """Whether eta, simple-root coordinates or None, is a positive root."""
        return eta in self._pos_set

    # -- pairings ------------------------------------------------------

    def twice_inner_root(self, a: Weight, alpha: tuple[int, ...]) -> int:
        """2*(a, alpha) for a weight a and an integral root-lattice alpha."""
        return sum(alpha[j] * a[j] * (2 // self.dcheck[j]) for j in range(self.rank))

    # -- Weyl group action ----------------------------------------------

    def dominant(self, lam: Weight) -> bool:
        self._check_weight(lam)
        return all(c >= 0 for c in lam)

    def to_dominant(self, lam: Weight) -> tuple[Weight, int]:
        """(dominant, sign): the dominant weight of the Weyl orbit of lam and
        (-1)^r for the r simple reflections that carry lam there.  The sign
        is that of the one Weyl element w with w(lam) dominant whenever the
        dominant weight has no zero coordinate (lies on no wall)."""
        cur = list(lam)
        sign = 1
        while True:
            for j, c in enumerate(cur):
                if c < 0:
                    for k, a in self._reflections[j]:
                        cur[k] -= c * a
                    sign = -sign
                    break
            else:
                return tuple(cur), sign

    def regular_dominant(self, lam: Weight) -> tuple[Weight, int] | None:
        """to_dominant for a regular lam, None for a singular one, found at
        the first zero coordinate of the walk: a zero coordinate j of w(lam)
        puts lam on the wall of the reflection w^-1 s_j w, so its dominant
        image lies on a wall too (Humphreys 10.3)."""
        cur = list(lam)
        sign = 1
        while 0 not in cur:
            for j, c in enumerate(cur):
                if c < 0:
                    for k, a in self._reflections[j]:
                        cur[k] -= c * a
                    sign = -sign
                    break
            else:
                return tuple(cur), sign
        return None

    def weyl_orbit(self, lam: Weight) -> frozenset[Weight]:
        """Closure of lam under all simple reflections."""
        self._check_weight(lam)
        seen = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            nxt = []
            for w in frontier:
                for j, c in enumerate(w):
                    if c == 0:
                        continue
                    r = list(w)
                    for k, a in self._reflections[j]:
                        r[k] -= c * a
                    r = tuple(r)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return frozenset(seen)

    # -- bookkeeping -----------------------------------------------------

    def fundamental(self, i: int, mult: int = 1) -> Weight:
        """mult * omega_i, with omega_0 meaning the zero weight."""
        if i == 0:
            return (0,) * self.rank
        self._check_node(i)
        return tuple(mult * int(j == i - 1) for j in range(self.rank))

    def zero(self) -> Weight:
        return (0,) * self.rank

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node {i} out of range 1..{self.rank}")

    def _check_weight(self, lam) -> None:
        if len(lam) != self.rank:
            raise ValueError(f"weight length {len(lam)} != rank {self.rank}")

    def __repr__(self) -> str:
        return f"RootSystem({self.type})"


@lru_cache(maxsize=None)
def build(lietype: LieType) -> RootSystem:
    """The (cached) root system of the given type."""
    return RootSystem(lietype)


def parse_type(text: str) -> LieType:
    """Parse a label like 'C3' into a LieType."""
    text = text.strip()
    if len(text) < 2 or not (text[1:].isascii() and text[1:].isdigit()):
        raise ValueError(f"cannot parse algebra label {text!r}")
    return LieType(text[0].upper(), int(text[1:]))
