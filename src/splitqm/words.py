"""Normal-form word arithmetic in a free product of two factor groups.

A word is an alternating sequence of letters ``(side, element)`` with no
factor-identity letters; the empty word is the group identity.  A ``Word``
is the immutable tuple of those letters, so the library reads, iterates and
concatenates it as one.  Every operation returns words already in normal
form, and ``word_sampler`` draws each random word in one loop.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .groups import CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup, _require_int

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
    "validate_word",
    "WordSyntaxError",
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
    """An ordered pair of non-trivial factor groups; ``letter_tests`` holds
    each side's element test (see ``_is_normal``)."""

    A: FactorGroup
    B: FactorGroup

    def __post_init__(self) -> None:
        for factor in (self.A, self.B):
            if factor.is_finite and factor.size < 2:
                raise ValueError("factors must be non-trivial")
        object.__setattr__(self, "letter_tests", (_letter_test(self.A), _letter_test(self.B)))

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


def _letter_test(factor: FactorGroup) -> Callable[[int], bool]:
    """A C-level test that an int is a non-identity element of ``factor``,
    for ``_is_normal``.  A factor of any other type, whose element test may
    differ, gets a test that always fails, so its letters take the loop."""
    if type(factor) is IntegerGroup:
        return (0).__ne__
    if type(factor) is CyclicGroup:
        return range(1, factor.n).__contains__
    if type(factor) is FiniteTableGroup:
        return frozenset(x for x in factor.elements() if not factor.is_identity(x)).__contains__
    return frozenset().__contains__


class Word(tuple):
    """A reduced word: alternating sides, no identity letters.

    A Word is the immutable tuple of its letters, so it hashes and compares
    as that tuple: ``Word(t) == t``.  ``Word(letters)`` takes any iterable of
    letters; ``letters`` gives them back as a plain tuple."""

    __slots__ = ()
    letters = property(tuple)

    def __repr__(self) -> str:
        return f"Word(letters={tuple(self)!r})"


IDENTITY = Word()


def _is_normal(s: Splitting, g: tuple) -> bool:
    """Whether the tuple ``g`` is already a normal form of s, in one pass
    whose only call per letter is a C-level element test: every letter is a
    tuple of length 2 whose side is A or B and differs from the last one, and
    whose element is an exact int (not ``True`` or ``1.0``) that passes its
    side's test in ``Splitting.letter_tests``: not the identity, in range."""
    in_a, in_b = s.letter_tests
    prev = None
    try:
        for letter in g:
            if type(letter) is not tuple:
                return False
            side, x = letter
            if side == prev or type(x) is not int or not (in_a(x) if side == A else side == B and in_b(x)):
                return False
            prev = side
    except ValueError:  # a tuple that is no pair
        return False
    return True


def reduce(s: Splitting, raw: Iterable[Letter]) -> Word:
    """Normal form of a raw letter sequence.

    Adjacent same-side letters merge via factor multiplication and identity
    letters disappear, repeatedly, until the sequence alternates.  A tuple
    that is already a normal form (``_is_normal``) comes back as itself, as
    a ``Word``, without that loop.
    """
    if isinstance(raw, tuple) and _is_normal(s, raw):
        return raw if type(raw) is Word else Word(raw)
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
    return Word(out)


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
    ``is_isometry`` is false only for a quasicocycle on a non-isometric action.
    """

    codomain: Optional[str] = None
    is_isometry = True

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

    def junction(self, g: Sequence[Letter], h: Sequence[Letter]) -> tuple[int, int]:
        """``meet`` of the normal forms of g and h, raw spellings too, as
        ``multiply`` reduces first; ``reduce`` checks every letter."""
        s = self.splitting
        return self.meet(reduce(s, g), reduce(s, h))

    def meet(self, g: Sequence[Letter], h: Sequence[Letter]) -> tuple[int, int]:
        """The coboundary of normal forms g and h (``Word``s or letter lists)
        as (s, t), that is s / t, read where they meet; letters away from there
        are not read.  Letter pairs that cancel add nothing, as factor maps are
        alternating; the first merge, of u and v into w, gives ``merge(u, v,
        w)``, and none gives (0, 1).  Sides alternate: if the first pair shares
        a side, all do."""
        if g and h and g[-1][0] == h[0][0]:
            for u, v in zip(reversed(g), h):
                factor = self.splitting.factor(u[0])
                x = factor.mul(u[1], v[1])
                if not factor.is_identity(x):
                    return self.merge(u, v, (u[0], x))
        return 0, 1

    @cached_property
    def pair_sizers(self) -> dict:
        """Each side's factor ``pair_sizer``, built once per map."""
        on_a, on_b = self.factor_maps
        return {A: on_a.pair_sizer(), B: on_b.pair_sizer()}

    def merge(self, u: Letter, v: Letter, w: Letter) -> tuple[int, int]:
        """The factor map's ``pair_sizer`` on the letters u and v merging into w:
        the size of the whole pair, as the target is a bi-invariant metric or
        an isometric action; ``pair_sizer`` raises ValueError on any other."""
        return self.pair_sizers[u[0]](u[1], v[1], w[1])

    def size_value(self, s: int, t: int):
        """The size that ``junction`` gives as (s, t), as a number."""
        return Fraction(s, t)

    def defect(self):
        """The larger factor defect: the split defect.  ValueError for a
        quasicocycle on a non-isometric action, as its factor scans raise."""
        on_a, on_b = self.factor_maps
        return max(on_a.defect(), on_b.defect())


def validate_word(s: Splitting, g: Word) -> Word:
    """Check the normal-form invariants, each letter a (side, element)
    tuple; return ``g`` unchanged, or raise ValueError naming the broken
    rule.  A tuple that ``_is_normal`` accepts comes back as itself with no
    loop."""
    if isinstance(g, tuple) and _is_normal(s, g):
        return g
    prev = None
    for letter in g:
        if type(letter) is not tuple or len(letter) != 2:
            raise ValueError("letter is not a (side, element) tuple")
        side, x = letter
        factor = s.factor(side)
        factor.check(x)
        if factor.is_identity(x):
            raise ValueError("identity letter in word")
        if side == prev:
            raise ValueError("adjacent letters on the same side")
        prev = side
    return g


def multiply(s: Splitting, g: Word, h: Word) -> Word:
    """g h: reduce each once, then join at the junction."""
    return Word(_join(s, reduce(s, g), reduce(s, h)))


def join_into(s: Splitting, out: list[Letter], h: tuple[Letter, ...]) -> None:
    """Multiply the normal form ``out`` by the normal form ``h``, in place.

    Only the junction can cancel or merge: pop letters off the end of ``out``
    while they cancel the start of ``h``, merge at the first pair that does
    not cancel, and extend with the rest of ``h``.  No letter is checked.
    """
    i = 0
    while out and i < len(h) and out[-1][0] == h[i][0]:
        side, x = out.pop()
        factor = s.factor(side)
        x = factor.mul(x, h[i][1])
        i += 1
        if not factor.is_identity(x):
            out.append((side, x))
            break
    out.extend(h[i:])


def _join(s: Splitting, g: tuple[Letter, ...], h: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Product of two normal-form letter tuples: ``join_into``'s rule on
    slices, without copying g into a list, and g + h when the sides where
    they meet differ.  Sides alternate, so when the first pair shares a side
    every later pair does, and the side is tested once."""
    if not g or not h or g[-1][0] != h[0][0]:
        return g + h
    n, m, i = len(g), len(h), 0
    while True:
        side, x = g[n - 1 - i]
        factor = s.factor(side)
        x = factor.mul(x, h[i][1])
        i += 1
        if not factor.is_identity(x):
            return g[: n - i] + ((side, x),) + h[i:]
        if i == n or i == m:
            return g[: n - i] + h[i:]


def _invert(s: Splitting, g: tuple[Letter, ...]) -> Word:
    """g^-1 for a normal form g, letter by letter; no letter is checked."""
    return Word([(side, s.factor(side).inv(x)) for side, x in reversed(g)])


def invert(s: Splitting, g: Word) -> Word:
    """g^-1; ValueError unless g is a normal form (see ``validate_word``)."""
    return _invert(s, validate_word(s, g))


def _power(s: Splitting, g: Word, n: int) -> Word:
    """g^n for a normal form g: square and multiply, joining at junctions."""
    # Not groups.power_by_squaring: a partial of _join as its mul slowed long-words.
    if n < 0:
        g, n = _invert(s, g), -n
    acc, sq = (), g
    while n:
        if n & 1:
            acc = _join(s, acc, sq)
        n >>= 1
        if n:
            sq = _join(s, sq, sq)
    return Word(acc)


def power(s: Splitting, g: Word, n: int) -> Word:
    """g^n: reduce g once, then ``_power``."""
    return _power(s, reduce(s, g), n)


def conjugate(s: Splitting, h: Word, g: Word) -> Word:
    """h g h^-1: reduce h and g once each, then join at both junctions."""
    h = reduce(s, h)
    out = list(h)
    join_into(s, out, reduce(s, g))
    join_into(s, out, _invert(s, h))
    return Word(out)


def _cyclic_junction(s: Splitting, g: tuple[Letter, ...]) -> tuple[int, Optional[Letter]]:
    """Where the cyclic ends of a normal form g meet, for g whose first and
    last letters share a side (so len(g) is odd).

    Read inwards, the end pairs (g[-1-t], g[t]) cancel until the first one
    whose product w = g[-1-t] * g[t], last letter first, is not the
    identity; that gives (t, w).  If every pair cancels, g is a conjugate of
    its middle letter g[t] and this gives (t, None) with t = len(g) // 2.
    The only strip rule: ``cyclically_reduce`` builds its split from it, and
    ``quasimorphisms`` reads homogenized values from it."""
    n = len(g)
    for t in range(n // 2):
        side, x = g[n - 1 - t]
        factor = s.factor(side)
        w = factor.mul(x, g[t][1])
        if not factor.is_identity(w):
            return t, (side, w)
    return n // 2, None


def cyclically_reduce(s: Splitting, g: Word) -> tuple[Word, Word]:
    """Split ``g`` as conjugator * core * conjugator^-1.

    The core either lies in a single factor (at most one letter) or its
    normal form starts and ends in different factors.  ``g`` is reduced
    first, so every spelling of an element gives the same split.  When the
    ends share a side, ``_cyclic_junction`` finds where they meet: the t
    cancelled end pairs and the merged letter w give the core
    g[t+1 : -1-t] w with conjugator g[:t+1], and a conjugate of the middle
    letter g[t] has conjugator g[:t].
    """
    core = reduce(s, g)
    if len(core) < 2 or core[0][0] != core[-1][0]:
        return core, IDENTITY
    t, w = _cyclic_junction(s, core)
    if w is None:
        return Word(core[t : t + 1]), Word(core[:t])
    return Word(core[t + 1 : len(core) - 1 - t] + (w,)), Word(core[: t + 1])


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
    return " ".join(_format_letter(s, side, x) for side, x in g)


def _nonzero_elements(factor: FactorGroup, exponent_bound: int) -> list[int]:
    """The letters' elements on one factor: the non-identity elements of a
    finite factor, or the exponents in [-exponent_bound, exponent_bound]
    without 0, in increasing order."""
    if isinstance(factor, IntegerGroup):
        return [k for k in range(-exponent_bound, exponent_bound + 1) if k]
    return [x for x in factor.elements() if not factor.is_identity(x)]


def word_sampler(
    s: Splitting,
    length_bound: int,
    exponent_bound: int,
    rng: random.Random | int,
) -> Callable[[], Word]:
    """A seeded source of random normal-form words.

    Each word has ``randrange(length_bound + 1)`` letters and starts on A if
    ``random() < 0.5``, else on B.  One loop draws its letters, alternating
    between the two sides' specs (bits, n, letters, side), built once here:
    each letter is an index below n, drawn as ``randrange`` draws it, by
    rejection on ``getrandbits(bits)`` (CPython's
    ``_randbelow_with_getrandbits``).  On a finite factor the index picks a
    non-identity letter; on the integers it is the exponent size less 1,
    and ``random()`` then picks the sign, so any exponent bound costs the
    same.  So a seed gives the same words as ``randint`` and ``choice``
    always gave.  Both bounds must be ints >= 1 (not bools), checked before
    any draw.  A ``Random`` subclass that supplies ``random()`` but not
    ``getrandbits`` is not stream-compatible: its own ``randrange`` draws
    from ``random()``.  ``sample.draw`` is that loop: it returns a word's
    letters as a plain list, and ``sample()`` is ``Word(sample.draw())``.
    ``sample.splitting`` is ``s``, of which every word is a normal form, as
    ``sampled_defect`` trusts.
    """
    for bound in (length_bound, exponent_bound):
        _require_int(bound, 1, "each bound")
    if isinstance(rng, int):
        rng = random.Random(rng)
    specs = []
    for side in (A, B):
        factor = s.factor(side)
        if isinstance(factor, IntegerGroup):
            specs.append((exponent_bound.bit_length(), exponent_bound, None, side))
        else:
            letters = [(side, x) for x in _nonzero_elements(factor, exponent_bound)]
            specs.append((len(letters).bit_length(), len(letters), letters, side))
    # A word of n letters starting on A reads the first n specs of from_a.
    from_a = tuple(specs) * ((length_bound + 1) // 2)
    from_b = tuple(reversed(specs)) * ((length_bound + 1) // 2)
    getrandbits, uniform, top = rng.getrandbits, rng.random, length_bound + 1
    k = top.bit_length()

    def draw() -> list[Letter]:
        length = getrandbits(k)
        while length >= top:
            length = getrandbits(k)
        out = []
        for bits, n, letters, side in (from_a if uniform() < 0.5 else from_b)[:length]:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            if letters is not None:
                out.append(letters[r])
            elif uniform() < 0.5:
                out.append((side, r + 1))
            else:
                out.append((side, -r - 1))
        return out

    def sample() -> Word:
        return Word(draw())

    sample.draw, sample.splitting = draw, s
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
