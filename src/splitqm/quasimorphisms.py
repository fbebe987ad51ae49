"""Real-valued split quasimorphisms on a free product.

A factor map decomposes as slope + finite support + periodic part + sign
tail; the split map sums factor values over normal-form letters.  All values
are exact rationals, defects are exact suprema computed by finite
enumeration, and homogenization goes through cyclic reduction.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .groups import (CyclicGroup, FactorGroup, IntegerGroup, _fr, certified_window, designated_generator,
                     _require_int, set_alternating)
from .words import (
    A,
    B,
    Letter,
    Splitting,
    SplitMap,
    Word,
    _cyclic_junction,
    _join,
    memo_letter,
    other_side,
    reduce,
    validate_word,
    word_sampler,
)

__all__ = [
    "FactorQM",
    "SplitQM",
    "eval_split",
    "coboundary",
    "split_defect",
    "default_sampler",
    "sampled_defect",
    "junction_pairs",
    "homogenize_eval",
    "DoublingWitness",
    "doubling_witness",
    "maximize_doubling_witness",
    "GromovNormReport",
    "gromov_norm",
    "is_trivial",
    "rademacher",
    "weight_qm",
]


@dataclass(frozen=True)
class FactorQM:
    """An alternating quasimorphism on one factor group.

    On the integers the value at the k-th generator power is

        slope*k + finite_part(k) + residues[k mod period] + sign_coeff*sgn(k);

    on a finite factor only ``finite_part`` (a table on elements) applies.
    """

    group: FactorGroup
    slope: Fraction = Fraction(0)
    finite_part: Mapping[int, Fraction] = field(default_factory=dict)
    period: Optional[int] = None
    residues: tuple[Fraction, ...] = ()
    sign_coeff: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", _fr(self.slope))
        object.__setattr__(self, "sign_coeff", _fr(self.sign_coeff))
        cleaned = {}
        for x, value in self.finite_part.items():
            self.group.check(x)
            value = _fr(value)
            if value:
                cleaned[x] = value
        object.__setattr__(self, "finite_part", cleaned)
        object.__setattr__(self, "residues", tuple(_fr(v) for v in self.residues))
        integer = isinstance(self.group, IntegerGroup)
        if not integer and (self.slope or self.sign_coeff or self.period is not None):
            raise ValueError("slope/period/sign parts need an integer factor")
        if (self.period is None) != (len(self.residues) == 0):
            raise ValueError("period and residue table must come together")
        if self.period is not None and len(self.residues) != _require_int(self.period, 1, "period"):
            raise ValueError("residue table length must equal the period")
        self._validate_alternating()

    # -- validation ------------------------------------------------------

    def _validate_alternating(self) -> None:
        group = self.group
        if self(group.identity):
            raise ValueError("factor map must vanish at the identity")
        if group.is_finite:
            for x in group.elements():
                if self(group.inv(x)) != -self(x):
                    raise ValueError(f"factor map is not alternating at {x}")
        else:
            for k in range(self.alternation_window + 1):
                if self(-k) != -self(k):
                    raise ValueError(f"factor map is not alternating at {k}")

    @cached_property
    def support_radius(self) -> int:
        """Largest |k| (integer factor) carrying a finite-part value."""
        return max((abs(k) for k in self.finite_part), default=0)

    @property
    def period_or_one(self) -> int:
        return self.period if self.period is not None else 1

    @property
    def alternation_window(self) -> int:
        """Checking alternation on [0, M + n + 1] certifies it everywhere:
        past the finite support the map is periodic plus a sign constant."""
        return self.support_radius + self.period_or_one + 1

    @property
    def is_bounded(self) -> bool:
        return self.slope == 0

    @property
    def is_zero(self) -> bool:
        if self.group.is_finite:
            return all(self(x) == 0 for x in self.group.elements())
        window = self.alternation_window
        return self.slope == 0 and all(self(k) == 0 for k in range(1, window + 1))

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: int) -> Fraction:
        return Fraction(self.numerator(x), self.denominator)

    @cached_property
    def denominator(self) -> int:
        """The common denominator L: L*q(x) is an int for every x."""
        values = (self.slope, self.sign_coeff, *self.finite_part.values(), *self.residues)
        return math.lcm(*(v.denominator for v in values))

    @cached_property
    def _scaled_terms(self) -> tuple[int, dict[int, int], tuple[int, ...], int]:
        L = self.denominator
        return (
            int(self.slope * L),
            {x: int(v * L) for x, v in self.finite_part.items()},
            tuple(int(v * L) for v in self.residues),
            int(self.sign_coeff * L),
        )

    def numerator(self, x: int) -> int:
        """L*q(x) as an int, with L the common ``denominator``."""
        x = self.group.check(x)
        slope, finite, residues, sign = self._scaled_terms
        value = slope * x + finite.get(x, 0) + sign * ((x > 0) - (x < 0))
        if residues:
            value += residues[x % len(residues)]
        return value

    # -- defect ----------------------------------------------------------

    def defect_window(self, scale: int = 1) -> int:
        """The certified window on the integers (see ``certified_window``);
        ``scale``, an int >= 1, widens it for cross-checks."""
        return certified_window(self.support_radius, self.period_or_one) * _require_int(scale, 1, "scale")

    def _pairs(self, scale: int = 1) -> Iterator[tuple[int, int, list[int], list[int]]]:
        """The rows that can hold the scan's first maximal pair (see
        ``defect_witness``), x in window order: (x, n(x), the n(y) of the
        row's ys, the n(xy)), where n = L*q less its slope term, which
        cancels in every coboundary.

        On a finite factor the rows are the x other than the identity with
        x^-1 >= x, and y runs from x to the end.  On Z/n the row n/2 of an
        even n goes too: (n/2, y) with y > n/2 has the earlier orbit member
        (n - y, n/2), and (n/2, n/2) has coboundary 0.

        On Z, y runs from x to floor(-x/2), and with M the support radius and
        p the period (1 when there is none) the rows are [-W, -W + p - 1] and
        [-2M, 0], clipped to the window: p + 2M + 1 rows at any scale, as
        W = 2(M + p + 2) keeps the two ranges apart.  Every other row
        x <= -(2M + 1) has its row x - p in the window, and each of its
        pairs (x, y) has the coboundary of (x - p, y): as y <= -x/2, the
        entries x, x - p, x + y and x - p + y are all negative and below -M,
        so n(x) = n(x - p) and n(x + y) = n(x - p + y), from equal residues,
        sign -1 and no finite part.  That y lies in row x - p's range, which
        the scan reads earlier; so by induction every value of a skipped row
        is attained first in a kept row, and the row can neither set the
        first strict maximum nor move it.

        The numerators are tabulated once by list operations in C, with no
        element check: on Z, tiled residues plus a sign block plus the finite
        entries over the products and ys, [-2W, floor(W/2)]; on a finite
        factor, the finite part of each element.  The x*y row is then a
        slice on Z, a rotation on Z/n and the row of the table on a table
        group.  A generator under this name, which the benchmark's tracer
        hooks to count a scan's pairs."""
        group = self.group
        radius = self.defect_window(scale)
        _, finite, residues, sign = self._scaled_terms
        if isinstance(group, IntegerGroup):
            lo, hi = -2 * radius, radius // 2
            num = [-sign] * (2 * radius) + [0] + [sign] * hi
            if residues:
                period, size = len(residues), hi - lo + 1
                start = lo % period
                num = list(map(operator.add, num, (residues * (size // period + 2))[start:start + size]))
            for k, v in finite.items():  # |k| <= M < W/2
                num[k - lo] += v
            near = max(-2 * self.support_radius, -radius)
            rows = chain(range(-radius, min(-radius + self.period_or_one, near)), range(near, 1))
            for x in rows:
                at, end = x - lo, (-x) // 2 - lo + 1
                yield x, num[at], num[at:end], num[at + x:end + x]
            return
        num = list(map(finite.get, group.window(radius), repeat(0)))
        if isinstance(group, CyclicGroup):
            doubled = num * 2
            for x in range(1, (group.n + 1) // 2):  # x^-1 = n - x > x
                yield x, num[x], num[x:], doubled[2 * x:x + group.n]
        else:
            identity = group.identity
            for x, inv_x in enumerate(group.inverse):
                if inv_x >= x and x != identity:
                    yield x, num[x], num[x:], list(map(num.__getitem__, group.table[x][x:]))

    def coboundary(self, x: int, y: int) -> Fraction:
        num = self.numerator
        return Fraction(num(x) + num(y) - num(self.group.mul(x, y)), self.denominator)

    def defect_witness(self, scale: int = 1) -> tuple[Fraction, int, int]:
        """(exact defect, first pair attaining it in x-then-y window order).

        Each row of ``_pairs`` is reduced in C: the max and min of its
        n(y) - n(xy) give its largest |coboundary|, and only a row that
        strictly beats the best so far is searched for its first y.

        ``_pairs`` visits only pairs that come first among the in-window
        members of their coboundary orbit, where the first maximal pair
        lies, and of those only the rows that no earlier row dominates and
        that are not the identity's, whose coboundaries are 0 (see
        ``_pairs``).  On Z that leaves p + 2M + 1 rows of at most 3W/2 + 1
        pairs each, so a scan grows as (p + M) * W, not W^2.

        By alternation, with z = (xy)^-1, the pairs (x, y), (y, z), (z, x),
        (y^-1, x^-1), (x^-1, z^-1) and (z^-1, y^-1) have one |coboundary|.  On a finite factor, whose window holds them
        all, the first has x <= y and x <= x^-1.  On Z, where z = -(x+y),
        every permutation of (x, y, z) and of its negation has it too, and
        the first member is (a, b), the two least entries of (x, y, z) or
        of (-x, -y, -z), whichever pair lies in the window and starts lower;
        so a <= b <= -(a+b).
        """
        best, best_x, best_y = 0, self.group.identity, self.group.identity
        for x, nx, ys, xys in self._pairs(scale):
            row = list(map(operator.sub, ys, xys))
            high, low = max(row), min(row)
            value = max(nx + high, -nx - low)
            if value > best:
                index = min(row.index(d) for d in (value - nx, -value - nx) if d in (high, low))
                best, best_x, best_y = value, x, x + index
        return Fraction(best, self.denominator), best_x, best_y

    def defect(self, scale: int = 1) -> Fraction:
        return self.defect_witness(scale)[0]


@dataclass(frozen=True)
class SplitQM(SplitMap):
    """The split quasimorphism assembled from two factor maps.

    Every value goes through ``numerator``, which sums scaled letter values
    from the map's letter memo (see ``words.SplitMap``).
    """

    splitting: Splitting
    fA: FactorQM
    fB: FactorQM

    @property
    def factor_maps(self) -> tuple[FactorQM, FactorQM]:
        return self.fA, self.fB

    @cached_property
    def denominator(self) -> int:
        """The common denominator L of both factor maps."""
        return math.lcm(self.fA.denominator, self.fB.denominator)

    def letter_value(self, side: str, x: int) -> int:
        q = self.factor_map(side)
        return q.numerator(x) * (self.denominator // q.denominator)

    def numerator(self, g: Word) -> int:
        """L*f(g) as an int, with L the common ``denominator``: the sum of
        the letters' scaled factor values, ``SplitMap.letter`` written out
        for speed.  Raises ValueError on a letter outside the factors."""
        memo = self.letter_memo
        total = 0
        for letter in g:
            value = memo.get(letter) if type(letter[1]) is int else None
            if value is None:
                value = memo_letter(self.splitting, memo, letter, self.letter_value)
            total += value
        return total

    def merge(self, u: Letter, v: Letter, w: Letter) -> tuple[int, int]:
        """L*(q(x) + q(y) - q(xy)) over L, for u and v merging into w."""
        return self.letter(u) + self.letter(v) - self.letter(w), self.denominator

    def __call__(self, g: Word) -> Fraction:
        return eval_split(self, g)


def eval_split(f: SplitQM, g: Word) -> Fraction:
    """Sum of factor values over the normal-form letters."""
    return Fraction(f.numerator(g), f.denominator)


def coboundary(f: SplitQM, g: Word, h: Word) -> Fraction:
    """f(g) + f(h) - f(gh) where they meet; ValueError unless both are normal forms."""
    return Fraction(*f.meet(validate_word(f.splitting, g), validate_word(f.splitting, h)))


split_defect = SplitMap.defect


def default_sampler(
    s: Splitting,
    rng: random.Random,
    length_bound: int = 5,
    exponent_bound: int = 4,
) -> Callable[[], Word]:
    """The ``words.word_sampler`` of ``s`` on ``rng``, with these bounds.

    Kept under this name and argument order for the benchmark harness in
    ``splitbench/``, which calls it; new code calls ``word_sampler``."""
    return word_sampler(s, length_bound, exponent_bound, rng)


def junction_pairs(f) -> list[tuple[Word, Word]]:
    """Each factor's maximizing pair as two one-letter words, skipping pairs
    with an identity letter.  Works for any split map whose factor maps have
    ``defect_witness()``."""
    pairs = []
    for side in (A, B):
        q = f.factor_map(side)
        _, x, y = q.defect_witness()
        if not q.group.is_identity(x) and not q.group.is_identity(y):
            pairs.append((Word(((side, x),)), Word(((side, y),))))
    return pairs


def sampled_defect(
    f: SplitMap,
    sampler: Callable[[], Word],
    count: int,
    extra_pairs: Iterable[tuple[Word, Word]] = (),
) -> Fraction | float:
    """The largest |s| / t over ``count`` sampled pairs (an int >= 0, checked
    before any draw) and ``extra_pairs``, known maximizing factor pairs as
    one-letter words (see ``junction_pairs``), where (s, t) is the pair's
    coboundary read where it meets, compared exactly and returned as
    ``f.size_value``; never exceeds the exact defect.  The pairs of a
    ``word_sampler`` of ``f.splitting`` are drawn as normal-form letter lists
    (``sample.draw``) and go through ``SplitMap.meet``, all others through
    ``SplitMap.junction``, which reduces each word first, so a raw spelling
    is sized as its normal form; a letter outside the factors raises
    ValueError, as a map that is not ``is_isometry`` does before any draw."""
    _require_int(count, 0, "count")
    if not f.is_isometry:
        raise ValueError("sampled sizes are certified only on an isometric action")
    marked = getattr(sampler, "splitting", None) == f.splitting
    draw, size = (sampler.draw, f.meet) if marked else (sampler, f.junction)
    best_s, best_t = 0, 1
    for _ in range(count):
        value, t = size(draw(), draw())
        if abs(value) * best_t > best_s * t:
            best_s, best_t = abs(value), t
    for g, h in extra_pairs:
        value, t = f.junction(g, h)
        if abs(value) * best_t > best_s * t:
            best_s, best_t = abs(value), t
    return f.size_value(best_s, best_t) if best_s else Fraction(0)


def _homogenized_numerator(f: SplitQM, g: Sequence[Letter]) -> int:
    """L*f~(g) as an int, with L = ``f.denominator`` and f~ the
    homogenization, for a normal form g, read where its cyclic ends meet
    and with no core word built.  If the ends of g lie on different sides,
    g is cyclically reduced and this is L*f(g).  Otherwise
    ``words._cyclic_junction`` gives the first end pair (g[-1-t], g[t]) that
    does not cancel and its product w, and the pairs outside it, which
    cancel, add nothing to f(g) by alternation; so the core
    g[t+1 : -1-t] w has L*f(g) less ``merge(g[-1-t], g[t], w)``.  If every
    pair cancels, g is a conjugate of its middle letter, and this is that
    letter's slope term (0 on a finite factor)."""
    if not g:
        return 0
    if g[0][0] != g[-1][0]:
        return f.numerator(g)
    t, w = _cyclic_junction(f.splitting, g)
    if w is None:
        side, x = g[t]
        q = f.factor_map(side)
        return q._scaled_terms[0] * (f.denominator // q.denominator) * x
    return f.numerator(g) - f.merge(g[-1 - t], g[t], w)[0]


def homogenize_eval(f: SplitQM, g: Word) -> Fraction:
    """The homogenization, lim f(g^n)/n: ``g`` is reduced once, then read
    where its cyclic ends meet (see ``_homogenized_numerator``).  That is
    the slope term on a conjugate of a single-factor element and f of a
    cyclically reduced conjugate otherwise."""
    return Fraction(_homogenized_numerator(f, reduce(f.splitting, g)), f.denominator)


# -- doubling witnesses -------------------------------------------------


@dataclass(frozen=True)
class DoublingWitness:
    """Two words whose homogenized coboundary gap doubles a factor gap."""

    g: Word
    h: Word
    gap: Fraction
    side: str
    pair: tuple[int, int]


def _doubling_words(
    s: Splitting, side: str, x1: int, x2: int, aux_same: int, aux_other: int
) -> tuple[Word, Word]:
    """The witness words, written for junction letters on ``side``.

    With x = x1^-1 and y = x2^-1 the pattern is  g = s t x t y t^-1 s^-1  and
    h = s^-1 t^-1 x t y t s,  where s is the same-side auxiliary and t the
    opposite-side one.
    """
    same = s.factor(side)
    other = s.factor(other_side(side))
    x, y = same.inv(x1), same.inv(x2)
    t, t_inv = aux_other, other.inv(aux_other)
    a, a_inv = aux_same, same.inv(aux_same)
    S, T = side, other_side(side)
    g = Word(((S, a), (T, t), (S, x), (T, t), (S, y), (T, t_inv), (S, a_inv)))
    h = Word(((S, a_inv), (T, t_inv), (S, x), (T, t), (S, y), (T, t), (S, a)))
    return validate_word(s, g), validate_word(s, h)


def doubling_witness(
    f: SplitQM,
    x1: int,
    x2: int,
    aux_same: int,
    aux_other: int,
    side: str = A,
) -> DoublingWitness:
    """Witness words g, h with homogenized gap exactly twice the factor
    coboundary of the junction pair (x1, x2).

    Preconditions: x1, x2 and their product are not the identity, the
    same-side auxiliary squares to a non-identity, and the opposite-side
    auxiliary is not the identity.
    """
    s = f.splitting
    same = s.factor(side)
    other = s.factor(other_side(side))
    for x in (x1, x2):
        if same.is_identity(same.check(x)):
            raise ValueError("junction letters must be non-trivial")
    if same.is_identity(same.mul(x1, x2)):
        raise ValueError("junction pair must have non-trivial product")
    if same.is_identity(same.mul(aux_same, aux_same)):
        raise ValueError("same-side auxiliary must not square to the identity")
    if other.is_identity(other.check(aux_other)):
        raise ValueError("opposite-side auxiliary must be non-trivial")
    g, h = _doubling_words(s, side, x1, x2, aux_same, aux_other)
    gap = _homogenized_numerator(f, g) + _homogenized_numerator(f, h)
    gap -= _homogenized_numerator(f, _join(s, g, h))
    return DoublingWitness(g=g, h=h, gap=Fraction(gap, f.denominator), side=side, pair=(x1, x2))


def _aux_same_side(factor: FactorGroup) -> Optional[int]:
    """An element whose square is not the identity, if one exists."""
    if isinstance(factor, IntegerGroup):
        return 1
    for x in factor.elements():
        if not factor.is_identity(factor.mul(x, x)):
            return x
    return None


def _witness_on_pair(f: SplitQM, side: str, x1: int, x2: int) -> DoublingWitness:
    """The doubling witness over a junction pair with non-zero coboundary."""
    q = f.factor_map(side)
    aux_same = _aux_same_side(q.group)
    if aux_same is None:
        # Every element squares to the identity, which forces an alternating
        # map to vanish; a positive gap is impossible here.
        raise RuntimeError("positive factor defect on a factor of exponent two")
    aux_other = designated_generator(f.splitting.factor(other_side(side)))
    num = q.numerator
    if num(x1) + num(x2) < num(q.group.mul(x1, x2)):
        # Flip to the inverse pair so the reported gap is positive.
        x1, x2 = q.group.inv(x2), q.group.inv(x1)
    return doubling_witness(f, x1, x2, aux_same, aux_other, side)


def maximize_doubling_witness(f: SplitQM, side: str) -> Optional[DoublingWitness]:
    """The doubling witness over the junction pair maximizing the factor
    coboundary on the enumeration window; None when no gap is positive.

    The defect witness is that pair: pairs with an identity letter or with
    product the identity have coboundary 0 by alternation, so they never
    win the strict maximum."""
    value, x, y = f.factor_map(side).defect_witness()
    return _witness_on_pair(f, side, x, y) if value else None


@dataclass(frozen=True)
class GromovNormReport:
    value: Fraction
    witness: Optional[DoublingWitness]

    @property
    def witness_attains(self) -> bool:
        return self.witness is not None and self.witness.gap == 2 * self.value


def gromov_norm(f: SplitQM) -> GromovNormReport:
    """Norm of the class of the split map: equal to the split defect, with a
    doubling witness attaining homogenized gap 2*value when positive."""
    witnesses = {A: f.fA.defect_witness(), B: f.fB.defect_witness()}
    side = A if witnesses[A][0] >= witnesses[B][0] else B
    value, x, y = witnesses[side]
    return GromovNormReport(value=value, witness=_witness_on_pair(f, side, x, y) if value else None)


def is_trivial(f: SplitQM) -> bool:
    """True exactly when both factor maps are homomorphisms."""
    return split_defect(f) == 0


def rademacher() -> SplitQM:
    """The split quasimorphism on Z/2 * Z/3 spanning its split classes.

    Alternation forces the Z/2 factor map to vanish; the Z/3 factor map
    takes values 1 and -1 on the two non-trivial residues.
    """
    s = Splitting(CyclicGroup(2), CyclicGroup(3))
    fA = FactorQM(s.A)
    fB = FactorQM(s.B, finite_part={1: Fraction(1), 2: Fraction(-1)})
    return SplitQM(s, fA, fB)


def weight_qm(s_table: Mapping[int, Fraction]) -> SplitQM:
    """Split quasimorphism on Z * Z applying one alternating weight table to
    every syllable exponent.

    Keys may be given on positive exponents only; the alternating extension
    is filled in automatically.
    """
    split = Splitting(IntegerGroup(), IntegerGroup())
    table: dict[int, Fraction] = {}
    for k, value in s_table.items():
        set_alternating(table, split.A, k, _fr(value))
    fA = FactorQM(split.A, finite_part=table)
    fB = FactorQM(split.B, finite_part=table)
    return SplitQM(split, fA, fB)
