"""Exact element arithmetic for the factor groups of a two-factor splitting.

Three kinds of factors are supported: the integers, finite cyclic groups,
and arbitrary finite groups given by an explicit multiplication table.
Elements are encoded as plain ``int`` values throughout (an exponent, a
residue, or a table index), so every element is hashable and immutable.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

__all__ = [
    "INFINITE",
    "certified_window",
    "FactorGroup",
    "IntegerGroup",
    "CyclicGroup",
    "FiniteTableGroup",
    "designated_generator",
    "power_by_squaring",
    "inverse_pairs",
    "check_homomorphism",
    "set_alternating",
]

# Returned by order() for elements of infinite order; compares correctly
# against any integer.
INFINITE = math.inf

Order = Union[int, float]


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def certified_window(support_radius: int, period: int = 1) -> int:
    """Radius W certifying the exact defect of a factor map on the integers.

    Past the support radius M the map is periodic (period n) plus slope and
    sign terms, so its coboundary takes finitely many values, all realized
    for |k|, |l| <= W = 2*(M + n + 2).  A finite table is period 1.
    """
    return 2 * (support_radius + period + 2)


class FactorGroup(ABC):
    """A group whose elements are encoded as integers."""

    @property
    @abstractmethod
    def identity(self) -> int:
        """The identity element."""

    @abstractmethod
    def is_element(self, x: int) -> bool:
        """Whether ``x`` encodes an element of this group."""

    @abstractmethod
    def mul(self, x: int, y: int) -> int:
        """The product x*y."""

    @abstractmethod
    def inv(self, x: int) -> int:
        """The inverse of x."""

    @abstractmethod
    def order(self, x: int) -> Order:
        """Least n >= 1 with x^n = identity, or INFINITE."""

    @property
    @abstractmethod
    def size(self) -> Order:
        """Number of elements, or INFINITE."""

    def is_identity(self, x: int) -> bool:
        return x == self.identity

    @property
    def is_finite(self) -> bool:
        return self.size != INFINITE

    def check(self, x: int) -> int:
        """Validate that ``x`` is an element; return it unchanged."""
        if not isinstance(x, int) or isinstance(x, bool) or not self.is_element(x):
            raise ValueError(f"{x!r} is not an element of {self}")
        return x

    def elements(self) -> Iterator[int]:
        """All elements, each exactly once.  Finite groups only."""
        if not self.is_finite:
            raise ValueError(f"cannot enumerate the elements of {self}")
        return iter(range(int(self.size)))

    def window(self, radius: int) -> Iterable[int]:
        """The elements a defect scan visits, in scan order: every element of
        a finite group, or [-radius, radius] on the integers."""
        if self.is_finite:
            return tuple(self.elements())
        return range(-radius, radius + 1)

    def power(self, x: int, n: int) -> int:
        """x^n for any integer n, by repeated squaring."""
        return power_by_squaring(self.mul, self.inv, self.identity, self.check(x), n)


@dataclass(frozen=True)
class IntegerGroup(FactorGroup):
    """The infinite cyclic group; elements are exponents of a fixed generator."""

    @property
    def identity(self) -> int:
        return 0

    def is_element(self, x: int) -> bool:
        return True

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x

    def order(self, x: int) -> Order:
        return 1 if x == 0 else INFINITE

    @property
    def size(self) -> Order:
        return INFINITE

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class CyclicGroup(FactorGroup):
    """Z/n with elements the residues 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        _require_int(self.n, 2, "a cyclic factor's n")

    @property
    def identity(self) -> int:
        return 0

    def is_element(self, x: int) -> bool:
        return 0 <= x < self.n

    def mul(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def inv(self, x: int) -> int:
        return (-x) % self.n

    def order(self, x: int) -> Order:
        self.check(x)
        return self.n // math.gcd(self.n, x) if x else 1

    @property
    def size(self) -> Order:
        return self.n

    def __str__(self) -> str:
        return f"Z/{self.n}"


@dataclass(frozen=True)
class FiniteTableGroup(FactorGroup):
    """A finite group given by an explicit multiplication table.

    ``table[x][y]`` is the product x*y, ``inverse[x]`` the inverse of x, and
    ``identity_index`` the identity.  The constructor verifies that the table
    is a Latin square, that the identity acts neutrally, that the inverse
    table is consistent, and that multiplication is associative.
    """

    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity_index: int = 0

    def __post_init__(self) -> None:
        n = len(self.table)
        if n < 2:
            raise ValueError("finite factor needs at least two elements")
        if any(len(row) != n for row in self.table) or len(self.inverse) != n:
            raise ValueError("multiplication/inverse tables have inconsistent sizes")
        all_elems = set(range(n))
        for i in range(n):
            if set(self.table[i]) != all_elems:
                raise ValueError(f"row {i} is not a permutation")
            if {self.table[j][i] for j in range(n)} != all_elems:
                raise ValueError(f"column {i} is not a permutation")
        e = self.identity_index
        if not 0 <= e < n:
            raise ValueError("identity index out of range")
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise ValueError("identity does not act neutrally")
            if self.table[x][self.inverse[x]] != e or self.table[self.inverse[x]][x] != e:
                raise ValueError(f"inverse table wrong at {x}")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                        raise ValueError(f"multiplication not associative at ({x},{y},{z})")

    @classmethod
    def from_mul(cls, n: int, mul, identity: int = 0) -> "FiniteTableGroup":
        """Build the tables from a multiplication callable on 0..n-1."""
        table = tuple(tuple(mul(x, y) for y in range(n)) for x in range(n))
        inverse = []
        for x in range(n):
            candidates = [y for y in range(n) if table[x][y] == identity]
            if not candidates:
                raise ValueError(f"element {x} has no inverse")
            inverse.append(candidates[0])
        return cls(table, tuple(inverse), identity)

    @property
    def identity(self) -> int:
        return self.identity_index

    def is_element(self, x: int) -> bool:
        return 0 <= x < len(self.table)

    def mul(self, x: int, y: int) -> int:
        self.check(x)
        self.check(y)
        return self.table[x][y]

    def inv(self, x: int) -> int:
        self.check(x)
        return self.inverse[x]

    def order(self, x: int) -> Order:
        self.check(x)
        k, y = 1, x
        while y != self.identity_index:
            y = self.table[y][x]
            k += 1
        return k

    @property
    def size(self) -> Order:
        return len(self.table)

    def __str__(self) -> str:
        return f"TableGroup({len(self.table)})"


def power_by_squaring(mul: Callable, inv: Callable, identity, x, n: int):
    """x^n for any integer n by square and multiply, in any group given by
    ``mul``, ``inv`` and ``identity``: x is inverted when n < 0, and the
    square after the last bit is skipped."""
    if n < 0:
        x, n = inv(x), -n
    acc = identity
    while n:
        if n & 1:
            acc = mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return acc


def inverse_pairs(group: FactorGroup) -> tuple[list[int], list[int]]:
    """(involutions, representatives) of a finite group, both in element
    order and without the identity: every other element is a representative
    or the inverse of an earlier one."""
    involutions, representatives, seen = [], [], set()
    for x in group.elements():
        if group.is_identity(x) or x in seen:
            continue
        inv_x = group.inv(x)
        seen.add(inv_x)
        (involutions if inv_x == x else representatives).append(x)
    return involutions, representatives


def check_homomorphism(domain: FactorGroup, mapping: Mapping, mul: Callable, equal: Callable) -> None:
    """Raise ValueError unless ``mapping`` covers the finite ``domain`` and
    ``equal(mapping[xy], mul(mapping[x], mapping[y]))`` for every x and y."""
    elements = list(domain.elements())
    if set(mapping) != set(elements):
        raise ValueError("the map must cover the whole domain")
    for x, y in itertools.product(elements, repeat=2):
        if not equal(mapping[domain.mul(x, y)], mul(mapping[x], mapping[y])):
            raise ValueError(f"not a homomorphism at ({x}, {y})")


def set_alternating(table: dict, group: FactorGroup, x: int, value) -> None:
    """Set x -> value and x^-1 -> -value in ``table``, raising ValueError
    where either clashes with a value already there; so an involution, the
    identity included, takes only 0."""
    for key, v in ((x, value), (group.inv(x), -value)):
        if key in table and table[key] != v:
            raise ValueError(f"conflicting value at element {key}")
        table[key] = v


def _require_int(value, least: int, name: str) -> int:
    """``value`` itself when it is an int, not a bool, and at least ``least``;
    ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, not {value!r}")
    return value


def designated_generator(factor: FactorGroup) -> int:
    """1 on the integers and on Z/n; on a table factor, its first
    non-identity element."""
    if isinstance(factor, (IntegerGroup, CyclicGroup)):
        return 1
    return next(x for x in factor.elements() if not factor.is_identity(x))
