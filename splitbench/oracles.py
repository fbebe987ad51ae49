"""Independent oracles for the benchmark's output checks.

Nothing here imports splitqm.  Factor groups, factor-map values, normal
forms, homogenisation and defects are recomputed from their definitions on
plain tuples and Fractions, so a check can only pass when the program and
this file agree.  Windows are wider than the program's certified ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Letters = tuple  # tuple of (side, element) pairs, side "A" or "B"


class CheckFailed(Exception):
    """An operation's output disagrees with an oracle or a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sgn(k: int) -> int:
    return (k > 0) - (k < 0)


# -- factor groups -------------------------------------------------------------


class Integers:
    finite = False
    identity = 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x


class Cyclic:
    finite = True
    identity = 0

    def __init__(self, n: int):
        self.n = n
        self.elements = tuple(range(n))

    def mul(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def inv(self, x: int) -> int:
        return (-x) % self.n


class Table:
    """A finite group from its multiplication table; identity is element 0."""

    finite = True
    identity = 0

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        self.elements = tuple(range(len(self.rows)))
        self.inverse = tuple(row.index(0) for row in self.rows)

    def mul(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]


def dihedral_rows(m: int) -> list[list[int]]:
    """Multiplication table of the dihedral group of order 2m.

    Element f*m + k stands for r^k s^f, and r^a s^f . r^b s^g = r^(a + (-1)^f b) s^(f+g).
    """
    def product(x: int, y: int) -> int:
        f1, k1 = divmod(x, m)
        f2, k2 = divmod(y, m)
        k = (k1 + (k2 if f1 == 0 else -k2)) % m
        return ((f1 + f2) % 2) * m + k

    return [[product(x, y) for y in range(2 * m)] for x in range(2 * m)]


# -- normal forms ------------------------------------------------------------------


def normal_form(groups: dict, letters) -> Letters:
    """Stack reduction: merge equal-side neighbours, drop identity letters."""
    out: list = []
    for side, x in letters:
        group = groups[side]
        if x == group.identity:
            continue
        if out and out[-1][0] == side:
            merged = group.mul(out.pop()[1], x)
            if merged != group.identity:
                out.append((side, merged))
        else:
            out.append((side, x))
    return tuple(out)


def inverse_letters(groups: dict, letters) -> Letters:
    return tuple((side, groups[side].inv(x)) for side, x in reversed(letters))


def word_power(groups: dict, letters, n: int) -> Letters:
    base = letters if n >= 0 else inverse_letters(groups, letters)
    return normal_form(groups, tuple(base) * abs(n))


def cyclic_core(groups: dict, letters) -> Letters:
    core = normal_form(groups, letters)
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        core = normal_form(groups, core[1:] + core[:1])
    return core


def twist_letters(n: int, letters) -> Letters:
    """Image under a -> a, b -> a^n b on Z * Z, before reduction."""
    out: list = []
    for side, k in letters:
        if side == "A":
            out.append(("A", k))
        elif k > 0:
            out.extend((("A", n), ("B", 1)) * k)
        else:
            out.extend((("B", -1), ("A", -n)) * (-k))
    return tuple(out)


# -- real-valued factor maps -------------------------------------------------------


@dataclass
class FactorMap:
    """slope*k + finite(k) + residues[k mod period] + sign*sgn(k) on Z; a
    value table on a finite group."""

    group: object
    finite: dict
    slope: Fraction = Fraction(0)
    period: Optional[int] = None
    residues: tuple = ()
    sign: Fraction = Fraction(0)
    _defect: Optional[tuple] = field(default=None, repr=False)

    def value(self, x: int) -> Fraction:
        if self.group.finite:
            return self.finite.get(x, Fraction(0))
        v = self.slope * x + self.finite.get(x, Fraction(0)) + self.sign * sgn(x)
        if self.period:
            v += self.residues[x % self.period]
        return v

    @property
    def radius(self) -> int:
        return max((abs(k) for k in self.finite), default=0)

    def defect(self) -> tuple:
        """(defect, x, y) by brute force; on Z over |x|, |y| <= 3(M + n + 2),
        half as wide again as the program's certified window."""
        if self._defect is None:
            group = self.group
            if group.finite:
                elements = group.elements
                values = {x: self.value(x) for x in elements}
            else:
                w = 3 * (self.radius + (self.period or 1) + 2)
                elements = range(-w, w + 1)
                values = {k: self.value(k) for k in range(-2 * w, 2 * w + 1)}
            best = (Fraction(0), group.identity, group.identity)
            for x in elements:
                for y in elements:
                    gap = abs(values[x] + values[y] - values[group.mul(x, y)])
                    if gap > best[0]:
                        best = (gap, x, y)
            self._defect = best
        return self._defect


@dataclass
class SplitMap:
    groups: dict
    maps: dict  # side -> FactorMap

    def value(self, letters) -> Fraction:
        total = Fraction(0)
        for side, x in normal_form(self.groups, letters):
            total += self.maps[side].value(x)
        return total

    def homogenized(self, letters) -> Fraction:
        core = cyclic_core(self.groups, letters)
        if not core:
            return Fraction(0)
        if len(core) == 1:
            side, x = core[0]
            q = self.maps[side]
            return Fraction(0) if q.group.finite else q.slope * x
        return self.value(core)

    def defect(self) -> Fraction:
        return max(self.maps["A"].defect()[0], self.maps["B"].defect()[0])


# -- vector-valued cocycles ---------------------------------------------------------


def mat_mul(m1, m2):
    cols = list(zip(*m2))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in m1)


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def identity_matrix(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


class DenseAction:
    """Z * Z acting on Q^d through one matrix per factor; the inverse matrices
    are given with the input and checked, never computed by the program."""

    def __init__(self, mats: dict, inverses: dict):
        self.dim = len(mats["A"])
        self.mats = {side: tuple(tuple(Fraction(x) for x in row) for row in m) for side, m in mats.items()}
        self.invs = {side: tuple(tuple(Fraction(x) for x in row) for row in m) for side, m in inverses.items()}
        for side in ("A", "B"):
            expect(
                mat_mul(self.mats[side], self.invs[side]) == identity_matrix(self.dim),
                f"supplied inverse of the {side} matrix is wrong",
            )
        self._powers: dict = {}
        self.zero = (Fraction(0),) * self.dim

    def letter(self, side: str, k: int):
        key = (side, k)
        if key not in self._powers:
            m = self.mats[side] if k > 0 else self.invs[side]
            acc = identity_matrix(self.dim)
            for _ in range(abs(k)):
                acc = mat_mul(acc, m)
            self._powers[key] = acc
        return self._powers[key]

    def act(self, letters, v):
        for side, k in reversed(letters):
            v = mat_vec(self.letter(side, k), v)
        return v

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def scale(self, c, v):
        return tuple(c * a for a in v)

    def norm(self, v):
        return max((abs(x) for x in v), default=Fraction(0))


class RegularAction:
    """Left translation of finitely supported functions on Z * Z, keyed by
    normal-form letter tuples; the l1 norm."""

    zero: dict = {}

    def __init__(self, groups: dict):
        self.groups = groups

    def act(self, letters, v: dict) -> dict:
        out: dict = {}
        for h, value in v.items():
            key = normal_form(self.groups, tuple(letters) + h)
            out[key] = out.get(key, Fraction(0)) + value
        return {k: x for k, x in out.items() if x}

    def add(self, u: dict, v: dict) -> dict:
        out = dict(u)
        for k, x in v.items():
            out[k] = out.get(k, Fraction(0)) + x
        return {k: x for k, x in out.items() if x}

    def sub(self, u: dict, v: dict) -> dict:
        return self.add(u, self.scale(-1, v))

    def scale(self, c, v: dict) -> dict:
        return {k: c * x for k, x in v.items() if c}

    def norm(self, v: dict):
        return sum((abs(x) for x in v.values()), Fraction(0))


def cocycle_value(action, table: dict, letters):
    """Prefix-translated sum of the factor values over the letters."""
    total = action.zero
    for i, (side, x) in enumerate(letters):
        value = table[side].get(x)
        if value is not None:
            total = action.add(total, action.act(letters[:i], value))
    return total


def cocycle_defect(action, table: dict, radius: dict) -> Fraction:
    """Max factor coboundary norm over |x|, |y| <= 3(M + 3), wider than the
    program's window, for integer factors."""
    worst = Fraction(0)
    zero = action.zero
    for side in ("A", "B"):
        values = table[side]
        w = 3 * (radius[side] + 3)
        for x in range(-w, w + 1):
            vx = values.get(x, zero)
            for y in range(-w, w + 1):
                vy = values.get(y)
                translated = zero if vy is None else action.act(((side, x),), vy)
                gap = action.norm(action.sub(action.add(vx, translated), values.get(x + y, zero)))
                if gap > worst:
                    worst = gap
    return worst
