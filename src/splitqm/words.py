"""Normal-form word arithmetic in a free product of two factor groups.

A word is an alternating sequence of letters ``(side, element)`` with no
factor-identity letters; the empty word is the group identity.  Every
operation returns words already in normal form.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .groups import CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup

__all__ = [
    "A",
    "B",
    "Splitting",
    "Word",
    "IDENTITY",
    "reduce",
    "multiply",
    "invert",
    "power",
    "conjugate",
    "cyclically_reduce",
    "parse_word",
    "format_word",
    "random_word",
    "word_sampler",
    "enumerate_words",
]

A = "A"
B = "B"

Letter = tuple[str, int]


def other_side(side: str) -> str:
    return B if side == A else A


T = TypeVar("T")


@dataclass(frozen=True)
class Splitting:
    """An ordered pair of non-trivial factor groups."""

    A: FactorGroup
    B: FactorGroup

    def __post_init__(self) -> None:
        for factor in (self.A, self.B):
            if factor.is_finite and factor.size < 2:
                raise ValueError("factors must be non-trivial")

    def factor(self, side: str) -> FactorGroup:
        if side == A:
            return self.A
        if side == B:
            return self.B
        raise ValueError(f"unknown side {side!r}")

    def require_zxz(self, subject: str) -> None:
        """Raise unless both factors are the integers; ``subject`` names what
        needs them in the error message."""
        if not (isinstance(self.A, IntegerGroup) and isinstance(self.B, IntegerGroup)):
            raise ValueError(f"{subject} needs the Z * Z splitting")


@dataclass(frozen=True)
class Word:
    """A reduced word: alternating sides, no identity letters."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)


IDENTITY = Word()


def reduce(s: Splitting, raw: Iterable[Letter]) -> Word:
    """Normal form of a raw letter sequence.

    Adjacent same-side letters merge via factor multiplication and identity
    letters disappear, repeatedly, until the sequence alternates.
    """
    out: list[Letter] = []
    for side, x in raw:
        factor = s.factor(side)
        factor.check(x)
        while True:
            if factor.is_identity(x):
                break
            if out and out[-1][0] == side:
                x = factor.mul(out.pop()[1], x)
                continue
            out.append((side, x))
            break
    return Word(tuple(out))


def memo_letter(
    s: Splitting, memo: dict[Letter, T], letter: Letter, compute: Callable[[str, int], T]
) -> T:
    """The miss path of every per-letter memo: check ``letter`` against its
    factor (ValueError outside the factors), then store and return
    ``compute(side, x)``.  Callers look a letter up only when its element
    is an exact ``int``, and take this path otherwise: ``True`` and ``1.0``
    hash like ``1``, and an unhashable element cannot be looked up."""
    side, x = letter
    s.factor(side).check(x)
    value = memo[letter] = compute(side, x)
    return value


class SplitMap:
    """The core of every split map on A * B (``SplitQM``, ``SplitQC``,
    ``SplitQRep``, ``SplitHom``): a frozen dataclass with a ``splitting``
    field and ``factor_maps``, its maps on A and on B, whose letter values
    it adds up or multiplies over the normal-form letters of a word.

    ``codomain`` names the attribute that the map and both factor maps must
    share, if any: the module action or the target group.  ``letter_memo``
    maps each distinct letter evaluated to its ``letter_value``.
    """

    codomain: Optional[str] = None

    def __post_init__(self) -> None:
        # A factor quasimorphism carries no side tag; the table maps do.
        for side, q in zip((A, B), self.factor_maps):
            if q.group != self.splitting.factor(side) or getattr(q, "side", side) != side:
                raise ValueError(f"the factor map on side {side} does not match the splitting")
            if self.codomain and getattr(q, self.codomain) is not getattr(self, self.codomain):
                raise ValueError(f"factor maps must share the {self.codomain}")
        object.__setattr__(self, "letter_memo", {})

    def factor_map(self, side: str):
        on_a, on_b = self.factor_maps
        if side == A:
            return on_a
        if side == B:
            return on_b
        raise ValueError(f"unknown side {side!r}")

    def letter_value(self, side: str, x: int):
        return self.factor_map(side)(x)

    def letter(self, letter: Letter):
        """``letter_value`` through the memo; ValueError on a letter outside
        the factors (see ``memo_letter``)."""
        memo = self.letter_memo
        value = memo.get(letter) if type(letter[1]) is int else None
        if value is None:
            value = memo_letter(self.splitting, memo, letter, self.letter_value)
        return value

    def defect(self):
        """The larger factor defect: the split defect (for a quasicocycle,
        when the action is isometric)."""
        on_a, on_b = self.factor_maps
        return max(on_a.defect(), on_b.defect())


def validate_word(s: Splitting, g: Word) -> Word:
    """Check the normal-form invariants; return ``g`` unchanged."""
    prev = None
    for side, x in g.letters:
        factor = s.factor(side)
        factor.check(x)
        if factor.is_identity(x):
            raise ValueError("identity letter in word")
        if side == prev:
            raise ValueError("adjacent letters on the same side")
        prev = side
    return g


def multiply(s: Splitting, g: Word, h: Word) -> Word:
    return reduce(s, g.letters + h.letters)


def _join(s: Splitting, g: tuple[Letter, ...], h: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Product of two normal-form letter tuples.

    Only the junction can cancel or merge: pop matching letters from the end
    of ``g`` and the start of ``h`` while they cancel, and stop at the first
    merge that leaves a non-identity letter.
    """
    j, i = len(g), 0
    while j and i < len(h) and g[j - 1][0] == h[i][0]:
        side = h[i][0]
        factor = s.factor(side)
        x = factor.mul(g[j - 1][1], h[i][1])
        if not factor.is_identity(x):
            return g[: j - 1] + ((side, x),) + h[i + 1 :]
        j, i = j - 1, i + 1
    return g[:j] + h[i:]


def invert(s: Splitting, g: Word) -> Word:
    letters = tuple((side, s.factor(side).inv(x)) for side, x in reversed(g.letters))
    return Word(letters)


def power(s: Splitting, g: Word, n: int) -> Word:
    """g^n: reduce g once, then square and multiply joining at junctions."""
    g = reduce(s, g.letters)
    if n < 0:
        g, n = invert(s, g), -n
    acc, sq = (), g.letters
    while n:
        if n & 1:
            acc = _join(s, acc, sq)
        n >>= 1
        if n:
            sq = _join(s, sq, sq)
    return Word(acc)


def conjugate(s: Splitting, h: Word, g: Word) -> Word:
    """h g h^-1."""
    h = reduce(s, h.letters)
    return reduce(s, h.letters + g.letters + invert(s, h).letters)


def cyclically_reduce(s: Splitting, g: Word) -> tuple[Word, Word]:
    """Split ``g`` as conjugator * core * conjugator^-1.

    The core either lies in a single factor (at most one letter) or its
    normal form starts and ends in different factors.  Only the first strip
    reduces; later ones move the first letter onto the last, which it merges
    with or cancels, tracked by two indices and the current last letter, so
    the whole strip takes linear time.
    """
    core = g.letters
    if len(core) < 2 or core[0][0] != core[-1][0]:
        return Word(core), IDENTITY
    stripped = [core[0]]
    core = reduce(s, core[1:] + core[:1]).letters
    lo, hi = 0, len(core)
    last = core[-1] if core else None
    while hi - lo >= 2 and core[lo][0] == last[0]:
        first = core[lo]
        stripped.append(first)
        lo += 1
        factor = s.factor(first[0])
        x = factor.mul(last[1], first[1])
        if factor.is_identity(x):
            hi -= 1
            last = core[hi - 1]
        else:
            last = (first[0], x)
    return Word(core[lo : hi - 1] + (last,) if hi > lo else ()), Word(tuple(stripped))


_GEN_TOKEN = re.compile(r"^([ab])(?:\^(-?\d+))?$")
_INDEX_TOKEN = re.compile(r"^([AB])\[(\d+)\](?:\^(-?\d+))?$")


class WordSyntaxError(ValueError):
    """Malformed word text; carries the character position of the bad token."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _letter_from_token(s: Splitting, token: str, position: int) -> Letter:
    m = _GEN_TOKEN.match(token)
    if m:
        side = A if m.group(1) == "a" else B
        factor = s.factor(side)
        if isinstance(factor, FiniteTableGroup):
            raise WordSyntaxError(
                f"factor {side} is a table group; use {side}[i] tokens", position
            )
        k = int(m.group(2)) if m.group(2) is not None else 1
        if isinstance(factor, CyclicGroup):
            return side, k % factor.n
        return side, k
    m = _INDEX_TOKEN.match(token)
    if m:
        side = m.group(1)
        factor = s.factor(side)
        if not isinstance(factor, FiniteTableGroup):
            raise WordSyntaxError(f"factor {side} is not a table group", position)
        index = int(m.group(2))
        if not factor.is_element(index):
            raise WordSyntaxError(f"element index {index} out of range", position)
        k = int(m.group(3)) if m.group(3) is not None else 1
        return side, factor.power(index, k)
    raise WordSyntaxError(f"cannot parse token {token!r}", position)


def parse_word(s: Splitting, text: str) -> Word:
    """Parse whitespace-separated generator tokens; the empty text is the identity.

    Grammar: ``a``, ``b``, ``a^k``, ``b^k`` for integer/cyclic factors, and
    ``A[i]``, ``B[j]`` (optionally with ``^k``) for table-group factors.
    """
    letters = []
    for m in re.finditer(r"\S+", text):
        letters.append(_letter_from_token(s, m.group(0), m.start()))
    return reduce(s, letters)


def _format_letter(s: Splitting, side: str, x: int) -> str:
    factor = s.factor(side)
    if isinstance(factor, FiniteTableGroup):
        return f"{side}[{x}]"
    name = "a" if side == A else "b"
    return name if x == 1 else f"{name}^{x}"


def format_word(s: Splitting, g: Word) -> str:
    """Inverse of parse_word on normal forms; the identity formats as ''."""
    return " ".join(_format_letter(s, side, x) for side, x in g.letters)


def _nonzero_elements(factor: FactorGroup, exponent_bound: int) -> list[int]:
    """The letters' elements on one factor: the non-identity elements of a
    finite factor, or the exponents in [-exponent_bound, exponent_bound]
    without 0, in increasing order."""
    if isinstance(factor, IntegerGroup):
        return [k for k in range(-exponent_bound, exponent_bound + 1) if k]
    return [x for x in factor.elements() if not factor.is_identity(x)]


def _letter_draw(
    s: Splitting, side: str, exponent_bound: int, rng: random.Random
) -> Callable[[], Letter]:
    """One random letter on ``side``.  On the integers the exponent size is
    ``randrange(exponent_bound) + 1`` and then ``random()`` picks the sign;
    on a finite factor ``randrange`` picks a non-identity element."""
    factor = s.factor(side)
    randrange = rng.randrange
    if isinstance(factor, IntegerGroup):
        e, uniform = exponent_bound, rng.random

        def draw() -> Letter:
            k = randrange(e) + 1
            return (side, k) if uniform() < 0.5 else (side, -k)

        return draw
    letters = [(side, x) for x in _nonzero_elements(factor, exponent_bound)]
    n = len(letters)
    return lambda: letters[randrange(n)]


def word_sampler(
    s: Splitting,
    length_bound: int,
    exponent_bound: int,
    rng: random.Random | int,
) -> Callable[[], Word]:
    """A seeded source of random normal-form words.

    Each word has ``randrange(length_bound + 1)`` letters and starts on A if
    ``random() < 0.5``, else on B; its letters alternate sides and come from
    each side's letter draw (``_letter_draw``), built once here.  Every word
    is a normal form, and the draws are those ``randint`` and ``choice``
    make, so a seed gives the same words as it always has.
    """
    if length_bound < 1 or exponent_bound < 1:
        raise ValueError("bounds must be >= 1")
    if isinstance(rng, int):
        rng = random.Random(rng)
    on_a = _letter_draw(s, A, exponent_bound, rng)
    on_b = _letter_draw(s, B, exponent_bound, rng)
    # A word of n letters starting on A makes the first n draws of from_a.
    from_a = (on_a, on_b) * ((length_bound + 1) // 2)
    from_b = (on_b, on_a) * ((length_bound + 1) // 2)
    randrange, uniform, top = rng.randrange, rng.random, length_bound + 1

    def sample() -> Word:
        length = randrange(top)
        draws = from_a if uniform() < 0.5 else from_b
        return Word(tuple([draw() for draw in draws[:length]]))

    return sample


def random_word(
    s: Splitting,
    length_bound: int,
    exponent_bound: int,
    rng: random.Random | int,
) -> Word:
    """One word of a fresh ``word_sampler``; deterministic for a fixed seed."""
    return word_sampler(s, length_bound, exponent_bound, rng)()


def enumerate_words(s: Splitting, max_letters: int, exponent_bound: int) -> Iterator[Word]:
    """All reduced words with at most ``max_letters`` normal-form letters.

    Integer-factor exponents range over [-exponent_bound, exponent_bound].
    """
    choices = {side: _nonzero_elements(s.factor(side), exponent_bound) for side in (A, B)}
    yield IDENTITY

    def extend(prefix: tuple[Letter, ...], side: str, remaining: int) -> Iterator[Word]:
        for x in choices[side]:
            word = prefix + ((side, x),)
            yield Word(word)
            if remaining > 1:
                yield from extend(word, other_side(side), remaining - 1)

    if max_letters >= 1:
        yield from extend((), A, max_letters)
        yield from extend((), B, max_letters)
