"""Counting quasimorphisms on Z * Z and the exact block-decomposition identity.

Words are handled as freely reduced strings over the four-letter alphabet
``a``, ``A`` (= a^-1), ``b``, ``B`` (= b^-1); occurrences of subwords are
counted with overlaps allowed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .quasimorphisms import SplitQM, eval_split
from .words import A, B, Splitting, Word, reduce

__all__ = [
    "letters_from_word",
    "word_from_letters",
    "is_reduced_letters",
    "invert_letters",
    "subword_count",
    "counting_qm",
    "block_counting",
    "decomposition_residual",
]

_SIDE = {"a": A, "A": A, "b": B, "B": B}
_UNKNOWN_LETTER = re.compile(r"[^aAbB]")
_CANCELLING_PAIR = re.compile(r"aA|Aa|bB|Bb")


def letters_from_word(g: Word) -> str:
    """Expand normal-form syllables into single-generator letters."""
    chunks = []
    for side, k in g.letters:
        letter = ("a" if side == A else "b") if k > 0 else ("A" if side == A else "B")
        chunks.append(letter * abs(k))
    return "".join(chunks)


def word_from_letters(s: Splitting, text: str) -> Word:
    s.require_zxz("letter counting")
    letters = []
    for ch in text:
        if ch not in _SIDE:
            raise ValueError(f"unknown letter {ch!r}")
        letters.append((_SIDE[ch], 1 if ch.islower() else -1))
    return reduce(s, letters)


def is_reduced_letters(text: str) -> bool:
    return _CANCELLING_PAIR.search(text) is None


def _check_reduced(text: str) -> str:
    unknown = _UNKNOWN_LETTER.search(text)
    if unknown:
        raise ValueError(f"unknown letter {unknown.group()!r}")
    if _CANCELLING_PAIR.search(text):
        raise ValueError(f"letter word {text!r} is not freely reduced")
    return text


def invert_letters(text: str) -> str:
    return text[::-1].swapcase()


def subword_count(w: str, g: str) -> int:
    """Occurrences of w as a subword of g, overlaps allowed; 0 if either is empty."""
    _check_reduced(w)
    _check_reduced(g)
    if not w or not g or len(w) > len(g):
        return 0
    return sum(1 for i in range(len(g) - len(w) + 1) if g[i : i + len(w)] == w)


def counting_qm(w: str, g: str) -> int:
    """Occurrences of w minus occurrences of w^-1; alternating in g."""
    return subword_count(w, g) - subword_count(invert_letters(w), g)


def block_counting(side: str, k: int, g: str) -> int:
    """Signed count of internal syllables of exponent +-k on the given side.

    Sums the four counting maps whose words are the k-th generator power
    flanked by single opposite-side letters on both ends.
    """
    if k < 1:
        raise ValueError("block exponent must be >= 1")
    if side == A:
        core, flank = "a" * k, "bB"
    elif side == B:
        core, flank = "b" * k, "aA"
    else:
        raise ValueError(f"unknown side {side!r}")
    return sum(counting_qm(s1 + core + s2, g) for s1 in flank for s2 in flank)


def _combination_value(f: SplitQM, g: str) -> Fraction:
    """Evaluate the finite sum of block-counting maps weighted by factor values."""
    total = Fraction(0)
    for side, q in ((A, f.fA), (B, f.fB)):
        for k in range(1, q.support_radius + 1):
            weight = q(k)
            if weight:
                total += weight * block_counting(side, k, g)
    return total


def decomposition_residual(f: SplitQM, g: Word) -> Fraction:
    """Difference between the block-counting combination and the split map
    corrected by its two boundary syllables; always exactly zero.

    The combination counts internal syllables only, so the first and last
    normal-form letters of g are subtracted from f(g) (once only when g is a
    single syllable, nothing when g is the identity).  A non-zero residual
    is an implementation bug and is raised rather than returned.
    """
    f.splitting.require_zxz("letter counting")
    for q in (f.fA, f.fB):
        if q.slope or q.sign_coeff or q.period is not None:
            raise ValueError("decomposition needs finite-support factor maps")
    letters = g.letters
    boundary = Fraction(0)
    if len(letters) == 1:
        side, k = letters[0]
        boundary = f.factor_map(side)(k)
    elif len(letters) >= 2:
        for side, k in (letters[0], letters[-1]):
            boundary += f.factor_map(side)(k)
    residual = _combination_value(f, letters_from_word(g)) - (eval_split(f, g) - boundary)
    if residual:
        raise RuntimeError(
            f"block decomposition residual {residual} != 0 on {g.letters!r}"
        )
    return residual
