"""Classical root systems of types A-D in Bourbaki coordinates.

All arithmetic is exact.  Weights are integer vectors in the basis of
fundamental weights, root-lattice elements are vectors of coefficients in
the basis of simple roots (rational in general, integral for actual roots).
The invariant form is normalized so that (theta, theta) = 2 for the highest
root theta, which makes dcheck[j] = 2/(alpha_j, alpha_j) an integer in {1, 2}.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import TheoremCheckError
from .linalg import Echelon

Weight = tuple[int, ...]
RootCoeffs = tuple[Fraction, ...]

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


def _simple_roots_ambient(family: str, n: int) -> list[tuple[int, ...]]:
    # Bourbaki realizations; ambient coordinates are integers for all four families.
    def e(i: int, dim: int, c: int = 1) -> list[int]:
        v = [0] * dim
        v[i] = c
        return v

    roots: list[list[int]] = []
    if family == "A":
        dim = n + 1
        for i in range(n):
            v = e(i, dim)
            v[i + 1] -= 1
            roots.append(v)
    else:
        dim = n
        for i in range(n - 1):
            v = e(i, dim)
            v[i + 1] -= 1
            roots.append(v)
        if family == "B":
            roots.append(e(n - 1, dim))
        elif family == "C":
            roots.append(e(n - 1, dim, 2))
        else:  # D
            v = e(n - 2, dim)
            v[n - 1] += 1
            roots.append(v)
    return [tuple(v) for v in roots]


def _positive_roots_ambient(family: str, n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    if family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [0] * dim
                v[i], v[j] = 1, -1
                out.append(tuple(v))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            out.append(tuple(v))
            v = [0] * n
            v[i] = v[j] = 1
            out.append(tuple(v))
    if family == "B":
        for i in range(n):
            v = [0] * n
            v[i] = 1
            out.append(tuple(v))
    elif family == "C":
        for i in range(n):
            v = [0] * n
            v[i] = 2
            out.append(tuple(v))
    return out


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


class RootSystem:
    """Root data of one classical simple type, with exact weight arithmetic.

    Nodes are numbered 1..rank as in the Bourbaki tables.  positive_roots and
    theta are stored as integer coefficient vectors over the simple roots.
    """

    def __init__(self, lietype: LieType):
        self.type = lietype
        n = lietype.rank
        self.rank = n
        fam = lietype.family
        self.simple_ambient = _simple_roots_ambient(fam, n)
        self.ambient_dim = len(self.simple_ambient[0])

        simple = Echelon()
        for v in self.simple_ambient:
            simple.add(dict(enumerate(v)))
        pos: list[tuple[int, ...]] = []
        for v in _positive_roots_ambient(fam, n):
            coeffs = simple.coords(dict(enumerate(v)))
            if coeffs is None or any(type(c) is not int or c < 0 for c in coeffs.values()):
                raise TheoremCheckError(f"{v} is not a nonnegative integral sum of simple roots")
            pos.append(tuple(coeffs.get(k, 0) for k in range(n)))
        pos.sort(key=lambda c: (sum(c), c))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(pos)
        self._pos_set = frozenset(pos)

        # highest root: the unique root dominating every other one
        theta = max(pos, key=lambda c: (sum(c), c))
        if not all(all(t - c >= 0 for t, c in zip(theta, a)) for a in pos):
            raise TheoremCheckError(f"{theta} does not dominate every positive root")
        self.theta: tuple[int, ...] = theta

        theta_ambient = self._root_ambient(theta)
        self.form_scale = Fraction(2, _dot(theta_ambient, theta_ambient))

        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 * _dot(a, b) // _dot(b, b) for b in self.simple_ambient)
            for a in self.simple_ambient
        )
        self.dcheck: tuple[int, ...] = tuple(
            int(2 / (self.form_scale * _dot(a, a))) for a in self.simple_ambient
        )
        if not all(d in (1, 2) for d in self.dcheck):
            raise TheoremCheckError(f"dcheck {self.dcheck} is not in {{1, 2}}")

        # columns of inv(cartan^T): fundamental weights in simple-root coordinates;
        # row i is the coordinate vector of e_i over the rows of cartan^T.  It is
        # stored as an integer numerator matrix over one positive denominator.
        at = Echelon()
        for col in zip(*self.cartan):
            at.add(dict(enumerate(col)))
        inv = [at.coords({i: 1}) for i in range(n)]
        self.root_den: int = lcm(*(Fraction(c).denominator for row in inv for c in row.values()))
        self._inv_num: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(Fraction(row.get(k, 0)) * self.root_den) for k in range(n)) for row in inv
        )
        # column sums: root_den * height(lam) = _height_num . lam
        self._height_num: tuple[int, ...] = tuple(sum(col) for col in zip(*self._inv_num))

    # -- conversions ---------------------------------------------------

    def _root_ambient(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        dim = self.ambient_dim
        v = [0] * dim
        for c, a in zip(coeffs, self.simple_ambient):
            for d in range(dim):
                v[d] += c * a[d]
        return tuple(v)

    def scaled_root_coords(self, lam: Weight) -> tuple[int, ...]:
        """root_den times the simple-root coordinates of a weight, as integers."""
        self._check_weight(lam)
        return tuple(sum(a * c for a, c in zip(row, lam)) for row in self._inv_num)

    def to_root_coords(self, lam: Weight) -> RootCoeffs:
        """Coordinates of a weight over the simple roots (rational in general)."""
        den = self.root_den
        return tuple(Fraction(c, den) for c in self.scaled_root_coords(lam))

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
        return tuple(
            sum(c * self.cartan[k][i] for k, c in enumerate(coeffs))
            for i in range(self.rank)
        )

    def epsilon(self, eta, i: int) -> int:
        """Coefficient of the i-th simple root in eta (1-based node index)."""
        self._check_node(i)
        c = eta[i - 1]
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integral coefficient {c} at node {i}")
            return int(c)
        return int(c)

    def is_positive_root(self, eta) -> bool:
        try:
            key = tuple(int(c) for c in eta)
        except (TypeError, ValueError):
            return False
        if any(Fraction(c) != k for c, k in zip(eta, key)):
            return False
        return key in self._pos_set

    # -- pairings ------------------------------------------------------

    def inner(self, a: Weight, b: Weight) -> Fraction:
        """Normalized invariant form of two weights in fundamental coordinates."""
        rb = self.to_root_coords(b)
        return sum(
            (rb[j] * a[j]) / self.dcheck[j] for j in range(self.rank)
        )

    def twice_inner_root(self, a: Weight, alpha: tuple[int, ...]) -> int:
        """2*(a, alpha) for a weight a and an integral root-lattice alpha."""
        return sum(alpha[j] * a[j] * (2 // self.dcheck[j]) for j in range(self.rank))

    # -- Weyl group action ----------------------------------------------

    def dominant(self, lam: Weight) -> bool:
        self._check_weight(lam)
        return all(c >= 0 for c in lam)

    def to_dominant(self, lam: Weight) -> Weight:
        """The dominant representative of the Weyl orbit of lam."""
        cur = tuple(lam)
        while True:
            for j, c in enumerate(cur):
                if c < 0:
                    row = self.cartan[j]
                    cur = tuple(cur[k] - c * row[k] for k in range(self.rank))
                    break
            else:
                return cur

    def weyl_orbit(self, lam: Weight) -> frozenset[Weight]:
        """Closure of lam under all simple reflections."""
        self._check_weight(lam)
        seen = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            nxt = []
            for w in frontier:
                for j in range(self.rank):
                    c = w[j]
                    if c == 0:
                        continue
                    row = self.cartan[j]
                    r = tuple(w[k] - c * row[k] for k in range(self.rank))
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
    if len(text) < 2 or not text[1:].isdigit():
        raise ValueError(f"cannot parse algebra label {text!r}")
    return LieType(text[0].upper(), int(text[1:]))
