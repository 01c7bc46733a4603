"""Sparse exact linear algebra over Z.

Matrices are column-major dicts of dicts, vectors are index -> value dicts.
Values are Python ints; zeros are never stored.  The column table of a
matrix is its data, c -> {r: value}, the one layout every matrix has.
Echelon spans over Q but eliminates fraction-free (Bareiss, Math. Comp. 22,
1968), so every stored row and every nullspace solution is a primitive
integer vector, and a rational coordinate comes back as int numerators over
one least common denominator.  lattice_basis spans over Z: the reduced
Hermite normal form of a lattice, whose members lattice_coords expresses
with int coordinates.  residue is the product kernel of matrix identities:
it sums products and multiples of column tables into one vector, with no
SpMat and no copy, and a product multiplies only the entries that compose.
Everything here is deterministic: echelon forms always pivot on the
smallest index.
"""

from __future__ import annotations

from math import gcd, lcm


class SpMat:
    """Sparse int matrix; data[c][r] = value."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, int]] = data if data is not None else {}

    def set(self, r: int, c: int, v) -> None:
        if v == 0:
            col = self.data.get(c)
            if col is not None:
                col.pop(r, None)
                if not col:
                    del self.data[c]
            return
        self.data.setdefault(c, {})[r] = v

    def get(self, r: int, c: int):
        return self.data.get(c, {}).get(r, 0)

    def add_to(self, r: int, c: int, v) -> None:
        self.set(r, c, self.get(r, c) + v)

    def col(self, c: int) -> dict[int, int]:
        return self.data.get(c, {})

    def nnz(self) -> int:
        return sum(len(col) for col in self.data.values())

    def copy(self) -> "SpMat":
        return SpMat(self.rows, self.cols, {c: dict(col) for c, col in self.data.items()})

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, v in vec.items():
            col = self.data.get(c)
            if col is None:
                continue
            for r, a in col.items():
                w = out.get(r, 0) + a * v
                if w == 0:
                    out.pop(r, None)
                else:
                    out[r] = w
        return out

    def __matmul__(self, other: "SpMat") -> "SpMat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self} by {other}")
        out = SpMat(self.rows, other.cols)
        for c, bcol in other.data.items():
            acc: dict[int, int] = {}
            for k, v in bcol.items():
                acol = self.data.get(k)
                if acol is None:
                    continue
                for r, a in acol.items():
                    w = acc.get(r, 0) + a * v
                    if w == 0:
                        acc.pop(r, None)
                    else:
                        acc[r] = w
            if acc:
                out.data[c] = acc
        return out

    def __add__(self, other: "SpMat") -> "SpMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"cannot add {self} and {other}")
        out = self.copy()
        for c, col in other.data.items():
            acc = out.data.setdefault(c, {})
            _axpy(acc, 1, col, 1)
            if not acc:
                del out.data[c]
        return out

    def __sub__(self, other: "SpMat") -> "SpMat":
        return self + other.scale(-1)

    def scale(self, a) -> "SpMat":
        if a == 0:
            return SpMat(self.rows, self.cols)
        return SpMat(
            self.rows,
            self.cols,
            {c: {r: a * v for r, v in col.items()} for c, col in self.data.items()},
        )

    def bracket(self, other: "SpMat") -> "SpMat":
        return (self @ other) - (other @ self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpMat):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self.data == other.data

    def entries(self):
        for c, col in self.data.items():
            for r, v in col.items():
                yield r, c, v

    @classmethod
    def from_diag(cls, values) -> "SpMat":
        vals = list(values)
        m = cls(len(vals), len(vals))
        for j, v in enumerate(vals):
            m.set(j, j, v)
        return m

    def __repr__(self):
        return f"SpMat({self.rows}x{self.cols}, nnz={self.nnz()})"


def residue(stride: int, products, linear=()) -> dict[int, int]:
    """sum k L R over products (k, L, R) plus sum k Z over linear (k, Z),
    for column tables L, R and Z and scalars k, as one vector keyed
    c * stride + r (see flatten); stride is at least the number of rows,
    and zero entries may be stored.  Column c of L R is the sum over j of
    R[j, c] L[:, j]: a product looks up column j of L once per entry of R
    and multiplies only the entries that compose."""
    acc: dict[int, int] = {}
    get = acc.get
    for k, left, right in products:
        for c, rcol in right.items():
            base = c * stride
            for j, v in rcol.items():
                lcol = left.get(j)
                if lcol is not None:
                    kv = k * v
                    for r, w in lcol.items():
                        key = base + r
                        acc[key] = get(key, 0) + kv * w
    for k, z in linear:
        for c, col in z.items():
            base = c * stride
            for r, w in col.items():
                key = base + r
                acc[key] = get(key, 0) + k * w
    return acc


def flatten(table, stride: int) -> dict[int, int]:
    """A column table as one vector, keyed c * stride + r as in residue."""
    return {c * stride + r: x for c, col in table.items() for r, x in col.items()}


def _axpy(v: dict[int, int], a: int, r: dict[int, int], b: int) -> None:
    """v <- a * v + b * r in place, dropping zeros; b and r are nonzero."""
    if a != 1:
        for k in v:
            v[k] *= a
    for k, x in r.items():
        w = v.get(k, 0) + b * x
        if w:
            v[k] = w
        else:
            del v[k]


class Echelon:
    """Incremental echelon basis of int vectors with combination tracking.

    Vectors added successfully get consecutive ordinals; a dependent vector
    gets none.  The row stored at pivot p is a primitive integer vector r
    with min(r) = p and r[p] > 0, together with integer coefficients c and a
    denominator d > 0 such that d * r = sum_k c[k] * original_k, so any
    vector of the span is re-expressed in the original basis exactly.
    """

    def __init__(self):
        self.pivots: dict[int, tuple[dict[int, int], dict[int, int], int]] = {}
        self.count = 0

    def _reduce(self, vec: dict[int, int], key: int):
        """Eliminate vec fraction-free: returns (v, comb, den, p) with
        den * v = sum_k comb[k] * original_k, original_key being vec itself,
        and p = min(v) a non-pivot index, or None when v reduced to zero."""
        v = {k: x for k, x in vec.items() if x}
        comb, den = {key: 1}, 1
        while v:
            p = min(v)
            row = self.pivots.get(p)
            if row is None:
                return v, comb, den, p
            r, rc, rd = row
            g = gcd(r[p], v[p])
            a, b = r[p] // g, v[p] // g
            _axpy(v, a, r, -b)
            m = lcm(den, rd)
            _axpy(comb, a * (m // den), rc, -b * (m // rd))
            den = m
        return v, comb, den, None

    def add(self, vec: dict[int, int]) -> int | None:
        """Insert a vector; returns its ordinal, or None if dependent."""
        ordinal = self.count
        v, comb, den, p = self._reduce(vec, ordinal)
        if p is None:
            return None
        # divide v by its signed content, then den and comb by theirs
        g = gcd(*v.values()) if v[p] > 0 else -gcd(*v.values())
        d = den * g
        h = gcd(d, *comb.values()) if d > 0 else -gcd(d, *comb.values())
        r = {k: x // g for k, x in v.items()}
        self.pivots[p] = (r, {k: x // h for k, x in comb.items()}, d // h)
        self.count += 1
        return ordinal

    def coords(self, vec: dict[int, int]) -> tuple[dict[int, int], int] | None:
        """(x, d) with d * vec = sum_k x[k] * original_k for the least d > 0,
        or None if vec is outside the span; the coordinates of vec over the
        added originals are x[k] / d.
        """
        v, comb, _, _ = self._reduce(vec, -1)
        if v:
            return None
        # 0 = comb[-1] * vec + sum_k comb[k] * original_k, and comb[-1] > 0
        g = gcd(*comb.values())
        d = comb.pop(-1) // g
        return {k: -x // g for k, x in comb.items()}, d

    @property
    def dim(self) -> int:
        return len(self.pivots)


def lattice_basis(vectors) -> dict[int, dict[int, int]]:
    """The reduced Hermite normal form of the Z-span of int vectors, as
    pivot -> row in increasing pivot order: a row's least index is its
    pivot, its entry there is positive, and its entry at the pivot of any
    later row lies in [0, that row's pivot entry).  The form is unique per
    lattice (Cohen, section 2.4.2).  Rows meet at a pivot by Euclid's
    algorithm, which leaves their gcd in one row and 0 in the other."""
    rows: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = {k: x for k, x in vec.items() if x}
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                rows[p] = v if v[p] > 0 else {k: -x for k, x in v.items()}
                break
            while p in v:
                q = v[p] // row[p]
                if q:
                    _axpy(v, 1, row, -q)
                if p in v:
                    row, v = v, row
            rows[p] = row
    order = sorted(rows)
    for a in range(len(order) - 2, -1, -1):
        row = rows[order[a]]
        for p in order[a + 1 :]:
            q = row.get(p, 0) // rows[p][p]
            if q:
                _axpy(row, 1, rows[p], -q)
    return {p: rows[p] for p in order}


def lattice_coords(basis: dict[int, dict[int, int]], vec: dict[int, int]) -> dict[int, int] | None:
    """Coordinates of vec over the rows of a lattice_basis, all ints, or
    None when vec is not in their Z-span."""
    v = dict(vec)
    out = {}
    for k, (p, row) in enumerate(basis.items()):
        if p in v:
            q, rem = divmod(v[p], row[p])
            if rem:
                return None
            _axpy(v, 1, row, -q)
            out[k] = q
    return None if v else out


def nullspace(rows, variables) -> list[dict[object, int]]:
    """Basis of the solution space of the homogeneous system, found over Z.

    rows: iterable of sparse constraint rows (var -> coeff).
    variables: ordered list of variable ids appearing anywhere.
    Returns one solution per free variable: a primitive integer vector that
    is positive at that variable and zero at every other free variable.
    The columns go into one Echelon in variable order: a column that depends
    on the ones before it is free, and Echelon.coords over the bound columns
    gives its solution (the reduced kernel basis is unique).
    """
    columns = {v: {} for v in variables}
    for r, row in enumerate(rows):
        for v, c in row.items():
            columns[v][r] = c
    ech, bound, solutions = Echelon(), [], []
    for v, col in columns.items():
        if ech.add(col) is not None:
            bound.append(v)
            continue
        # d * col = sum_k x[k] * (column of bound[k]), with gcd(d, x) = 1
        x, d = ech.coords(col)
        solutions.append({v: d, **{bound[k]: -c for k, c in x.items()}})
    return solutions
