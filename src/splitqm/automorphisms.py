"""Endomorphisms of Z * Z by generator images, twist maps, and their action
on split quasimorphisms.

The twist family sends a to itself and b to a^n b.  Invariance of a split
quasimorphism under a twist is decided constructively: periodicity of the
first factor map together with vanishing of the second gives exact equality,
and any failure is certified by a word family with linearly growing
homogenized discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .groups import IntegerGroup
from .quasimorphisms import FactorQM, SplitQM, _homogenized_numerator, eval_split, split_defect
from .words import (
    A,
    B,
    Letter,
    Splitting,
    Word,
    _invert,
    _power,
    conjugate,
    join_into,
    memo_letter,
    power,
    reduce,
    validate_word,
)

__all__ = [
    "Endo",
    "identity_endo",
    "twist",
    "inner",
    "compose",
    "apply",
    "pullback_qm",
    "is_periodic",
    "FixedPointReport",
    "check_fixed_point",
    "GrowthWitness",
    "violation_witness",
    "inner_distance_check",
]


@dataclass(frozen=True)
class Endo:
    """An endomorphism of Z * Z given by the images of the two generators.

    ``letter_memo`` maps each distinct letter applied to its image."""

    splitting: Splitting
    image_a: Word
    image_b: Word

    def __post_init__(self) -> None:
        self.splitting.require_zxz("an endomorphism")
        validate_word(self.splitting, self.image_a)
        validate_word(self.splitting, self.image_b)
        object.__setattr__(self, "letter_memo", {})

    def __call__(self, g: Word) -> Word:
        return apply(self, g)

    def image(self, side: str, k: int) -> tuple[Letter, ...]:
        """The image of (side, k): a power of a generator image checked at construction."""
        return _power(self.splitting, self.image_a if side == A else self.image_b, k)


def apply(e: Endo, g: Word) -> Word:
    """Fold the images of the letters of g onto one normal form, joining
    each at the junction where it meets the result on the same side and
    appending it otherwise.  Each distinct letter is checked against its
    factor and its image computed once, in the letter memo of ``e``.
    Raises ValueError on a letter outside the factors."""
    s, memo, out = e.splitting, e.letter_memo, []
    for letter in g:
        image = memo.get(letter) if type(letter[1]) is int else None
        if image is None:
            image = memo_letter(s, memo, letter, e.image)
        if out and image and out[-1][0] == image[0][0]:
            join_into(s, out, image)
        else:
            out.extend(image)
    return Word(out)


def identity_endo(s: Splitting) -> Endo:
    return Endo(s, Word(((A, 1),)), Word(((B, 1),)))


def twist(s: Splitting, n: int) -> Endo:
    """a maps to a, b maps to a^n b."""
    s.require_zxz("the twist family")
    image_b = Word(((A, n), (B, 1))) if n else Word(((B, 1),))
    return Endo(s, Word(((A, 1),)), image_b)


def inner(s: Splitting, h: Word) -> Endo:
    """Conjugation x -> h^-1 x h."""
    h_inv = _invert(s, reduce(s, h))
    return Endo(
        s,
        conjugate(s, h_inv, Word(((A, 1),))),
        conjugate(s, h_inv, Word(((B, 1),))),
    )


def compose(e1: Endo, e2: Endo) -> Endo:
    """The endomorphism applying e2 first and e1 after."""
    return Endo(e1.splitting, apply(e1, e2.image_a), apply(e1, e2.image_b))


def pullback_qm(
    f: SplitQM,
    e: Endo,
    e_inverse: Endo,
    g: Word,
    verification_sample: Iterable[Word] = (),
) -> Fraction:
    """Evaluate the pulled-back map f o e^-1 at g.

    The caller supplies the inverse; it is verified on g and on the given
    sample of words before use.
    """
    s = e.splitting
    for w in list(verification_sample) + [g]:
        if apply(e, apply(e_inverse, w)) != reduce(s, w):
            raise ValueError("supplied endomorphism inverse fails verification")
    return eval_split(f, apply(e_inverse, g))


def is_periodic(q: FactorQM, period: int) -> bool:
    """Exact test for q(k + period) = q(k) on the integers.

    A window of one support radius plus one period table beyond the shift
    certifies the identity for all k.
    """
    if not isinstance(q.group, IntegerGroup):
        raise ValueError("periodicity applies to integer factor maps")
    if period < 1:
        raise ValueError("period must be >= 1")
    window = q.support_radius + q.period_or_one + period + 2
    return all(q.numerator(k + period) == q.numerator(k) for k in range(-window, window + 1))


@dataclass(frozen=True)
class GrowthWitness:
    """A word whose homogenized twist discrepancy grows linearly in powers."""

    word: Word
    base_gap: Fraction
    growth: tuple[tuple[int, Fraction], ...]  # (power, homogenized gap)


@dataclass(frozen=True)
class FixedPointReport:
    n: int
    periodic_first_factor: bool
    second_factor_zero: bool
    invariant: bool
    checked: int
    failures: tuple[Word, ...]
    witness: Optional[GrowthWitness]
    commutator_gap: Fraction
    forces_zero: bool

    @property
    def condition_holds(self) -> bool:
        return self.periodic_first_factor and self.second_factor_zero


def _twist_gap(f: SplitQM, e: Endo, g: Word) -> Fraction:
    """Homogenized discrepancy of the twist at the normal form g, on int
    numerators (see ``quasimorphisms._homogenized_numerator``)."""
    return Fraction(_homogenized_numerator(f, apply(e, g)) - _homogenized_numerator(f, g), f.denominator)


def violation_witness(
    f: SplitQM,
    n: int,
    growth_powers: Sequence[int] = tuple(range(1, 11)),
) -> Optional[GrowthWitness]:
    """Search the two-syllable family a^k b^l for a homogenized invariance
    failure under the twist by n; absent exactly when the first factor map is
    |n|-periodic and the second vanishes.

    The window sizes come from the support radii and period tables of the
    factor maps, which certify the scan: no failure inside the window means
    no failure anywhere.
    """
    if n == 0:
        raise ValueError("twist exponent must be non-zero")
    s = f.splitting
    s.require_zxz("twist analysis")
    for q in (f.fA, f.fB):
        if not q.is_bounded:
            raise ValueError("twist analysis needs bounded factor maps")
    e = twist(s, n)
    k_window = f.fA.support_radius + f.fA.period_or_one + abs(n) + 2
    l_window = f.fB.support_radius + f.fB.period_or_one + 2
    for k in range(-k_window, k_window + 1):
        for l in range(1, l_window + 1):
            letters = ((A, k), (B, l)) if k else ((B, l),)
            g = Word(letters)
            gap = _twist_gap(f, e, g)
            if gap:
                growth = tuple(
                    (m, _twist_gap(f, e, power(s, g, m))) for m in growth_powers
                )
                return GrowthWitness(word=g, base_gap=gap, growth=growth)
    return None


def check_fixed_point(f: SplitQM, n: int, samples: Iterable[Word]) -> FixedPointReport:
    """Decide twist invariance of a bounded split quasimorphism.

    When the first factor map is |n|-periodic and the second vanishes, plain
    (not just homogenized) invariance holds and is asserted on every sample;
    otherwise a growth witness is produced.  For |n| <= 2 the periodicity
    condition collapses the whole map to zero, which is also reported.
    """
    if n == 0:
        raise ValueError("twist exponent must be non-zero")
    s = f.splitting
    s.require_zxz("twist analysis")
    periodic = is_periodic(f.fA, abs(n))
    second_zero = f.fB.is_zero
    e = twist(s, n)
    failures = []
    checked = 0
    for g in samples:
        checked += 1
        if eval_split(f, apply(e, g)) != eval_split(f, g):
            failures.append(g)
    condition = periodic and second_zero
    forces_zero = condition and abs(n) <= 2
    if forces_zero and not f.fA.is_zero:
        raise RuntimeError("an alternating map with period <= 2 must vanish")
    if condition and failures:
        raise RuntimeError("twist invariance failed although the exact condition holds")
    witness = None if condition else violation_witness(f, n)
    if not condition and witness is None:
        raise RuntimeError("certified scan found no witness although the condition fails")
    commutator = Word(((A, 1), (B, 1), (A, -1), (B, -1)))
    commutator_gap = eval_split(f, apply(e, commutator)) - eval_split(f, commutator)
    return FixedPointReport(
        n=n,
        periodic_first_factor=periodic,
        second_factor_zero=second_zero,
        invariant=condition and not failures,
        checked=checked,
        failures=tuple(failures),
        witness=witness,
        commutator_gap=commutator_gap,
        forces_zero=forces_zero,
    )


def inner_distance_check(f: SplitQM, h: Word, samples: Iterable[Word]) -> Fraction:
    """Max of |f(h g h^-1) - f(g)| over the samples; the conjugated map stays
    within twice the defect of f, which is asserted."""
    s = f.splitting
    bound = 2 * split_defect(f)
    worst = Fraction(0)
    for g in samples:
        value = abs(eval_split(f, conjugate(s, h, g)) - eval_split(f, g))
        if value > worst:
            worst = value
    if worst > bound:
        raise RuntimeError(f"conjugation moved the map by {worst} > 2*defect = {bound}")
    return worst
