"""Split quasi-representations into groups with bi-invariant metrics.

A factor map sends factor elements into a metric group, is alternating
(mu(x^-1) = mu(x)^-1), and is the identity off a finite support on integer
factors.  The split map multiplies the letter images in normal-form order.
Its defect is the larger of the two factor defects; the nontriviality
witness search certifies the distance-to-homomorphisms lower bound.  Every
target's distance is an exact ``Fraction``.
"""

from __future__ import annotations

import functools
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .groups import (CyclicGroup, FactorGroup, IntegerGroup, _fr, check_homomorphism, designated_generator,
                     inverse_pairs, power_by_squaring)
from .quasicocycles import FactorTableMap
from .quasimorphisms import junction_pairs, sampled_defect
from .words import A, B, IDENTITY, Letter, Splitting, SplitMap, Word

__all__ = [
    "MetricGroup",
    "FiniteMetric",
    "Circle",
    "FactorQRMap",
    "SplitQRep",
    "eval_qrep",
    "qrep_defect",
    "qrep_sampled_defect",
    "qrep_delta",
    "FactorHom",
    "SplitHom",
    "enumerate_factor_homs",
    "enumerate_factor_qr_maps",
    "WitnessReport",
    "nontriviality_witness",
    "SmallSubgroupReport",
    "check_no_small_subgroups",
]


class MetricGroup(ABC):
    """A group carrying a bi-invariant metric with exact rational values."""

    @property
    @abstractmethod
    def identity(self): ...

    @abstractmethod
    def mul(self, x, y): ...

    @abstractmethod
    def inv(self, x): ...

    @abstractmethod
    def dist(self, x, y) -> Fraction: ...

    def power(self, x, n: int):
        return power_by_squaring(self.mul, self.inv, self.identity, x, n)

    def product(self, elements: Iterable):
        return functools.reduce(self.mul, elements, self.identity)

    def equal(self, x, y) -> bool:
        return self.dist(x, y) == 0

    def norm(self, x) -> Fraction:
        return self.dist(x, self.identity)


class FiniteMetric(MetricGroup):
    """A finite group with an explicit rational bi-invariant distance matrix.

    Elements are the underlying group's elements (0..n-1); the matrix is
    indexed accordingly.  Metric axioms and bi-invariance are verified
    exhaustively at construction.
    """

    def __init__(self, group: FactorGroup, matrix: Sequence[Sequence]):
        if not group.is_finite:
            raise ValueError("the carrier of a finite metric must be finite")
        self.group = group
        n = group.size
        self.matrix = tuple(tuple(_fr(x) for x in row) for row in matrix)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("distance matrix shape must match the group order")
        elements = list(group.elements())
        for x in elements:
            for y in elements:
                d = self.matrix[x][y]
                if (d == 0) != (x == y):
                    raise ValueError("distance must vanish exactly on the diagonal")
                if d < 0 or d != self.matrix[y][x]:
                    raise ValueError("distance must be symmetric and non-negative")
        for x, y, z in itertools.product(elements, repeat=3):
            if self.matrix[x][z] > self.matrix[x][y] + self.matrix[y][z]:
                raise ValueError(f"triangle inequality fails at ({x}, {y}, {z})")
            left = self.matrix[group.mul(z, x)][group.mul(z, y)]
            right = self.matrix[group.mul(x, z)][group.mul(y, z)]
            if left != self.matrix[x][y] or right != self.matrix[x][y]:
                raise ValueError(f"metric is not bi-invariant at ({x}, {y}, {z})")

    @classmethod
    def from_length_function(cls, group: FactorGroup, lengths: Sequence) -> "FiniteMetric":
        """Build d(x, y) = length(x^-1 y) from a conjugation-invariant,
        symmetric, subadditive length function."""
        ell = tuple(_fr(v) for v in lengths)
        if len(ell) != group.size:
            raise ValueError("length table size must match the group order")
        elements = list(group.elements())
        for x in elements:
            if (ell[x] == 0) != group.is_identity(x):
                raise ValueError("length must vanish exactly at the identity")
            if ell[group.inv(x)] != ell[x]:
                raise ValueError(f"length must be symmetric at {x}")
        for x, y in itertools.product(elements, repeat=2):
            if ell[group.mul(x, y)] > ell[x] + ell[y]:
                raise ValueError(f"length is not subadditive at ({x}, {y})")
            conj = group.mul(group.mul(x, y), group.inv(x))
            if ell[conj] != ell[y]:
                raise ValueError(f"length is not conjugation-invariant at ({x}, {y})")
        matrix = [[ell[group.mul(group.inv(x), y)] for y in elements] for x in elements]
        return cls(group, matrix)

    @property
    def identity(self) -> int:
        return self.group.identity

    def mul(self, x: int, y: int) -> int:
        return self.group.mul(x, y)

    def inv(self, x: int) -> int:
        return self.group.inv(x)

    def power(self, x: int, n: int) -> int:
        return self.group.power(x, n)

    def dist(self, x: int, y: int) -> Fraction:
        return self.matrix[x][y]

    def elements(self) -> Iterator[int]:
        return self.group.elements()


class Circle(MetricGroup):
    """The rotation group with arc-length distance measured in turns.

    Elements are exact rational turns in [0, 1); the distance between turns
    s and t is min(|s-t| mod 1, 1-(|s-t| mod 1)), so a half turn is the
    largest distance.
    """

    @property
    def identity(self) -> Fraction:
        return Fraction(0)

    def turn(self, value) -> Fraction:
        return _fr(value) % 1

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return (x + y) % 1

    def inv(self, x: Fraction) -> Fraction:
        return (-x) % 1

    def power(self, x: Fraction, n: int) -> Fraction:
        return (n * x) % 1

    def dist(self, x: Fraction, y: Fraction) -> Fraction:
        delta = (x - y) % 1
        return min(delta, 1 - delta)


class FactorQRMap(FactorTableMap):
    """An alternating map from one factor into the target group.

    Missing elements map to the target identity, so integer-factor maps are
    the identity off their finite support; alternation forces
    mu(x^-1) = mu(x)^-1.  The metric is bi-invariant, so the orbit rule of
    ``FactorTableMap.defect_witness`` holds, and a pair whose only table
    entry is at y has the size of that value too.
    """

    is_isometry = True

    def __init__(self, side: str, target: MetricGroup, group: FactorGroup, values: Mapping):
        self.target = target
        super().__init__(side, group, values)

    def trivial(self):
        return self.target.identity

    def forced_inverse(self, inv_x: int, value):
        return self.target.inv(value)

    def equal(self, u, v) -> bool:
        return self.target.equal(u, v)

    def coboundary_size(self, x: int, y: int) -> Fraction:
        """d(mu(xy), mu(x)mu(y))."""
        target = self.target
        return target.dist(self(self.group.mul(x, y)), target.mul(self(x), self(y)))

    def pair_sizer(self) -> Callable[[int, int, int], tuple[int, int]]:
        """``coboundary_size`` read straight from the table, unchecked."""
        target, get, e = self.target, self.table.get, self.target.identity
        return lambda x, y, xy: target.dist(get(xy, e), target.mul(get(x, e), get(y, e))).as_integer_ratio()

    def value_sizes(self) -> dict[int, tuple[int, int]]:
        return {x: self.target.norm(v).as_integer_ratio() for x, v in self.table.items()}

    def size_value(self, s: int, t: int) -> Fraction:
        return Fraction(s, t)

    def sup_norm(self) -> Fraction:
        e = self.target.identity
        return max((self.target.dist(v, e) for v in self.table.values()), default=Fraction(0))


@dataclass(frozen=True)
class SplitQRep(SplitMap):
    splitting: Splitting
    target: MetricGroup
    muA: FactorQRMap
    muB: FactorQRMap
    codomain = "target"

    @property
    def factor_maps(self) -> tuple[FactorQRMap, FactorQRMap]:
        return self.muA, self.muB

    def __call__(self, g: Word):
        return eval_qrep(self, g)


def eval_qrep(mu: SplitQRep | SplitHom, g: Word):
    """Ordered product of the letter images, read from the map's letter
    memo: the one evaluator of quasi-representations and homomorphisms."""
    return mu.target.product(map(mu.letter, g))


qrep_defect = SplitMap.defect


def qrep_sampled_defect(mu: SplitQRep, sampler, count: int) -> Fraction:
    """Max coboundary distance over sampled word pairs plus the junction
    pairs embedding each factor's worst pair; never exceeds qrep_defect."""
    return sampled_defect(mu, sampler, count, junction_pairs(mu))


def qrep_delta(mu: SplitQRep) -> Fraction:
    """The larger factor sup-norm, the quantity the witness search certifies."""
    return max(mu.muA.sup_norm(), mu.muB.sup_norm())


@dataclass(frozen=True)
class FactorHom:
    """A homomorphism from one factor into the target, given by the image of
    the designated generator (integer and cyclic factors) or a full table."""

    side: str
    group: FactorGroup
    target: MetricGroup
    generator_image: Optional[object] = None
    table: Optional[Mapping] = None

    def __post_init__(self) -> None:
        if (self.generator_image is None) == (self.table is None):
            raise ValueError("give exactly one of generator_image or table")
        if self.generator_image is not None:
            if isinstance(self.group, CyclicGroup):
                order_power = self.target.power(self.generator_image, self.group.n)
                if not self.target.equal(order_power, self.target.identity):
                    raise ValueError("generator image must satisfy the factor relation")
            elif not isinstance(self.group, IntegerGroup):
                raise ValueError("table groups need an explicit table")
        else:
            table = dict(self.table)
            check_homomorphism(self.group, table, self.target.mul, self.target.equal)
            object.__setattr__(self, "table", table)

    def __call__(self, x: int):
        self.group.check(x)
        if self.table is not None:
            return self.table[x]
        return self.target.power(self.generator_image, x)

    def defect_witness(self) -> tuple[Fraction, int, int]:
        """A homomorphism's coboundary is 0 everywhere: no scan is needed."""
        return Fraction(0), self.group.identity, self.group.identity

    def defect(self) -> Fraction:
        return Fraction(0)


@dataclass(frozen=True)
class SplitHom(SplitMap):
    """A genuine homomorphism on the free product, one factor hom per side."""

    splitting: Splitting
    target: MetricGroup
    hA: FactorHom
    hB: FactorHom
    codomain = "target"

    @property
    def factor_maps(self) -> tuple[FactorHom, FactorHom]:
        return self.hA, self.hB

    def merge(self, u: Letter, v: Letter, w: Letter) -> tuple[int, int]:
        """Every pair of a homomorphism has size 0."""
        return 0, 1

    def __call__(self, g: Word):
        return eval_qrep(self, g)


def enumerate_factor_homs(side: str, group: FactorGroup, target: FiniteMetric) -> Iterator[FactorHom]:
    """All homomorphisms from a cyclic factor into a finite metric target."""
    if not isinstance(group, CyclicGroup):
        raise ValueError("homomorphism enumeration needs a cyclic factor")
    for r in target.elements():
        if target.power(r, group.n) == target.identity:
            yield FactorHom(side, group, target, generator_image=r)


def enumerate_factor_qr_maps(
    side: str, group: FactorGroup, target: FiniteMetric, max_norm
) -> Iterator[FactorQRMap]:
    """All alternating factor maps into a finite metric target whose values
    stay within ``max_norm`` of the identity (finite factors only)."""
    if not group.is_finite:
        raise ValueError("exhaustive map enumeration needs a finite factor")
    max_norm = _fr(max_norm)
    e = target.identity
    ball = [v for v in target.elements() if target.dist(v, e) <= max_norm]
    involutions, representatives = inverse_pairs(group)
    involution_choices = [v for v in ball if target.mul(v, v) == e]
    spaces = [involution_choices] * len(involutions) + [ball] * len(representatives)
    for assignment in itertools.product(*spaces):
        yield FactorQRMap(side, target, group, dict(zip(involutions + representatives, assignment)))


@dataclass(frozen=True)
class WitnessReport:
    word: Optional[Word]
    distance: Fraction
    delta: Fraction
    exhausted: bool
    checked: int

    @property
    def succeeded(self) -> bool:
        return not self.exhausted


def _witness_candidates(mu: SplitQRep, depth: int) -> Iterator[Word]:
    """Factor support elements and their powers first, then powers of the
    mixed junction words made from the designated generators."""
    s = mu.splitting
    seen = set()

    def emit(word: Word):
        if word and word not in seen:
            seen.add(word)
            yield word

    for side in (A, B):
        factor = s.factor(side)
        base = set(mu.factor_map(side).support)
        base.add(designated_generator(factor))
        for x in sorted(base):
            if factor.is_identity(x):
                continue
            for n in range(1, depth + 1):
                power = factor.power(x, n)
                if factor.is_identity(power):
                    break
                yield from emit(Word(((side, power),)))
    gen_a = designated_generator(s.A)
    gen_b = designated_generator(s.B)
    for y in (gen_b, s.B.inv(gen_b)):
        if s.B.is_identity(y):
            continue
        for n in range(1, depth + 1):
            yield from emit(Word(((A, gen_a), (B, y)) * n))


def nontriviality_witness(
    mu: SplitQRep, rho: SplitHom, eps, depth: int = 32
) -> WitnessReport:
    """Search for a word where mu and the homomorphism rho differ by at
    least delta (the larger factor sup-norm).

    Requires 2*delta <= eps; the target should be free of eps-small
    subgroups (see check_no_small_subgroups).  Exhaustion of the search
    space is reported, not raised, to distinguish it from refutation.
    """
    delta = qrep_delta(mu)
    if 2 * delta > _fr(eps):
        raise ValueError("the witness argument needs 2*delta <= eps")
    if delta == 0:
        return WitnessReport(IDENTITY, Fraction(0), delta, exhausted=False, checked=0)
    best_word: Optional[Word] = None
    best = Fraction(0)
    checked = 0
    for g in _witness_candidates(mu, depth):
        checked += 1
        d = mu.target.dist(eval_qrep(mu, g), eval_qrep(rho, g))
        if d > best:
            best, best_word = d, g
        if d >= delta:
            return WitnessReport(g, d, delta, exhausted=False, checked=checked)
    return WitnessReport(best_word, best, delta, exhausted=True, checked=checked)


@dataclass(frozen=True)
class SmallSubgroupReport:
    passed: bool
    epsilon: Fraction
    witness: Optional[tuple]


def _cyclic_closure(target: FiniteMetric, g: int) -> tuple[int, ...]:
    elements = [target.identity]
    x = g
    while x != target.identity:
        elements.append(x)
        x = target.mul(x, g)
    return tuple(elements)


def check_no_small_subgroups(target: MetricGroup, eps) -> SmallSubgroupReport:
    """Decide whether the open eps-ball around the identity contains a
    nontrivial subgroup.

    FiniteMetric: exhaustive over cyclic subgroups (a subgroup lies in the
    ball iff each of its cyclic subgroups does).  Circle: every nontrivial
    subgroup has an element at least 1/3 turn from the identity, and the
    third turns reach exactly 1/3, so the ball holds a subgroup iff
    eps > 1/3.
    """
    eps = _fr(eps)
    if isinstance(target, FiniteMetric):
        for g in target.elements():
            if g == target.identity:
                continue
            subgroup = _cyclic_closure(target, g)
            if all(target.dist(x, target.identity) < eps for x in subgroup):
                return SmallSubgroupReport(False, eps, subgroup)
        return SmallSubgroupReport(True, eps, None)
    if isinstance(target, Circle):
        third = Fraction(1, 3)
        if eps > third:
            return SmallSubgroupReport(False, eps, (Fraction(0), third, 2 * third))
        return SmallSubgroupReport(True, eps, None)
    raise TypeError(f"no small-subgroup rule for {type(target).__name__}")
