"""Normal-form word arithmetic: reduction, parsing, and enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup
from splitqm.words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    WordSyntaxError,
    conjugate,
    cyclically_reduce,
    enumerate_words,
    format_word,
    invert,
    multiply,
    other_side,
    parse_word,
    power,
    random_word,
    reduce,
    validate_word,
    word_sampler,
)

KLEIN_MUL = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

ZXZ = Splitting(IntegerGroup(), IntegerGroup())
C5XC6 = Splitting(CyclicGroup(5), CyclicGroup(6))
MIXED = Splitting(
    FiniteTableGroup.from_mul(4, lambda x, y: KLEIN_MUL[x][y]),
    CyclicGroup(3),
)
# S3 does not commute, so junction merges must keep the order of the letters.
S3XZ = Splitting(
    FiniteTableGroup.from_mul(
        6, lambda x, y: [
            [0, 1, 2, 3, 4, 5],
            [1, 2, 0, 4, 5, 3],
            [2, 0, 1, 5, 3, 4],
            [3, 5, 4, 0, 2, 1],
            [4, 3, 5, 1, 0, 2],
            [5, 4, 3, 2, 1, 0],
        ][x][y]
    ),
    IntegerGroup(),
)
SPLITTINGS = [ZXZ, C5XC6, MIXED, S3XZ]
ZXC3 = Splitting(IntegerGroup(), CyclicGroup(3))


def _letter_values(s, side, draw):
    factor = s.factor(side)
    if factor.is_finite:
        return draw(st.integers(0, factor.size - 1))
    return draw(st.integers(-4, 4))


def _raw_letters(s, draw, max_len):
    """Letters that need not alternate and may be identities."""
    raw = []
    for _ in range(draw(st.integers(0, max_len))):
        side = draw(st.sampled_from([A, B]))
        raw.append((side, _letter_values(s, side, draw)))
    return tuple(raw)


@st.composite
def splitting_and_words(draw, count=1, max_len=10, raw=False):
    """A splitting and ``count`` reduced words; with ``raw``, each word may
    also be left unreduced."""
    s = draw(st.sampled_from(SPLITTINGS))
    words = []
    for _ in range(count):
        letters = _raw_letters(s, draw, max_len)
        words.append(Word(letters) if raw and draw(st.booleans()) else reduce(s, letters))
    return (s, *words)


# -- the full-reduce definitions the junction kernel replaced, as oracles ------


def full_reduce_power(s, g, n):
    """g^n by square-and-multiply over ``multiply``."""
    if n < 0:
        g, n = invert(s, g), -n
    acc, sq = IDENTITY, g
    while n:
        if n & 1:
            acc = multiply(s, acc, sq)
        sq = multiply(s, sq, sq)
        n >>= 1
    return acc


def full_reduce_conjugate(s, h, g):
    return multiply(s, multiply(s, h, g), invert(s, h))


def full_reduce_cyclically_reduce(s, g):
    """Strip one letter at a time, reducing the rotated word each time."""
    core = g
    stripped = []
    while len(core) >= 2 and core.letters[0][0] == core.letters[-1][0]:
        first = core.letters[0]
        core = reduce(s, core.letters[1:] + (first,))
        stripped.append(first)
    return core, Word(tuple(stripped))


def test_reduce_merges_adjacent_letters_and_drops_identities():
    assert reduce(ZXZ, [(A, 1), (A, -1), (B, 2)]) == Word(((B, 2),))
    assert reduce(ZXZ, [(A, 1), (B, 0), (A, 2)]) == Word(((A, 3),))
    assert reduce(ZXZ, [(A, 0), (B, 0)]) == IDENTITY
    assert reduce(C5XC6, [(A, 2), (A, 3), (B, 4)]) == Word(((B, 4),))


@given(splitting_and_words())
def test_reduce_output_is_reduced_and_stable(case):
    s, g = case
    validate_word(s, g)
    assert reduce(s, g.letters) == g


@given(splitting_and_words())
def test_inverse_cancels(case):
    s, g = case
    assert multiply(s, g, invert(s, g)) == IDENTITY
    assert multiply(s, invert(s, g), g) == IDENTITY
    assert invert(s, invert(s, g)) == g


@given(splitting_and_words(count=3, max_len=6))
def test_multiplication_is_associative(case):
    s, g, h, k = case
    assert multiply(s, multiply(s, g, h), k) == multiply(s, g, multiply(s, h, k))


@settings(max_examples=300)
@given(splitting_and_words(max_len=5, raw=True), st.integers(-6, 6))
def test_power_matches_repeated_multiplication(case, n):
    s, g = case
    base = g if n >= 0 else invert(s, g)
    expected = IDENTITY
    for _ in range(abs(n)):
        expected = multiply(s, expected, base)
    assert power(s, g, n) == expected == full_reduce_power(s, g, n)


@given(splitting_and_words(count=2, max_len=6, raw=True))
def test_conjugation_definition(case):
    s, g, h = case
    assert conjugate(s, h, g) == full_reduce_conjugate(s, h, g)


@settings(max_examples=300)
@given(splitting_and_words(max_len=12, raw=True))
def test_cyclic_reduction_matches_the_rotate_and_reduce_loop(case):
    s, g = case
    assert cyclically_reduce(s, g) == full_reduce_cyclically_reduce(s, g)


def test_cyclic_reduction_of_a_long_conjugate_matches_the_loop():
    # g = h a^2 b h'^-1 with h' = h less its last letter b^2: 1999 strips
    # cancel, and the last one merges b^2 into b.
    h = Word(tuple((A if i % 2 == 0 else B, 1 + i % 3) for i in range(2000)))
    core = Word(((A, 2), (B, 3)))
    g = conjugate(ZXZ, h, core)
    assert len(g) == 4001
    assert cyclically_reduce(ZXZ, g) == full_reduce_cyclically_reduce(ZXZ, g) == (core, h)


def test_junction_merges_keep_the_order_of_non_commuting_letters():
    for x in range(1, 6):
        for y in range(1, 6):
            g = Word(((A, x), (B, 2), (A, y)))
            for n in (-3, -2, 2, 3):
                assert power(S3XZ, g, n) == full_reduce_power(S3XZ, g, n)
            assert cyclically_reduce(S3XZ, g) == full_reduce_cyclically_reduce(S3XZ, g)


def raises_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


@st.composite
def words_with_an_invalid_letter(draw):
    """A splitting and two raw words, each holding one letter that is no
    element of its factor."""
    s = draw(st.sampled_from(SPLITTINGS))
    side = draw(st.sampled_from([A, B]))
    factor = s.factor(side)
    if factor.is_finite:
        x = draw(st.one_of(st.integers(-6, -1), st.integers(factor.size, factor.size + 6)))
    else:
        x = draw(st.sampled_from([True, False, 1.5]))
    words = []
    for _ in range(2):
        letters = _raw_letters(s, draw, 6)
        position = draw(st.integers(0, len(letters)))
        words.append(Word(letters[:position] + ((side, x),) + letters[position:]))
    return (s, *words)


@given(words_with_an_invalid_letter(), st.integers(-3, 3))
def test_invalid_letters_still_raise(case, n):
    """Wherever the full-reduce definition raises, the kernel raises too."""
    s, g, h = case
    for new, old, args in [
        (power, full_reduce_power, (s, g, n)),
        (conjugate, full_reduce_conjugate, (s, h, g)),
        (conjugate, full_reduce_conjugate, (s, g, h)),
        (cyclically_reduce, full_reduce_cyclically_reduce, (s, g)),
    ]:
        if raises_value_error(old, *args):
            assert raises_value_error(new, *args)


@given(splitting_and_words())
def test_cyclic_reduction_reassembles_the_word(case):
    s, g = case
    core, conjugator = cyclically_reduce(s, g)
    assert conjugate(s, conjugator, core) == g
    assert len(core) <= len(g)
    if len(core) >= 2:
        assert core.letters[0][0] != core.letters[-1][0]


def test_cyclic_reduction_strips_conjugating_letters():
    g = parse_word(ZXZ, "a b a^-1")
    core, conjugator = cyclically_reduce(ZXZ, g)
    assert core == Word(((B, 1),))
    assert conjugator == Word(((A, 1),))


@given(splitting_and_words())
def test_format_parse_round_trip(case):
    s, g = case
    assert parse_word(s, format_word(s, g)) == g


def test_parse_concrete_words():
    g = parse_word(ZXZ, "a b^-2 a^3 b")
    assert g.letters == ((A, 1), (B, -2), (A, 3), (B, 1))
    assert parse_word(ZXZ, "") == IDENTITY
    assert parse_word(ZXZ, "   ") == IDENTITY
    assert parse_word(ZXZ, "a^0 b") == Word(((B, 1),))
    assert parse_word(C5XC6, "a^7") == Word(((A, 2),))
    # Every non-identity Klein element is an involution, so squares vanish.
    assert parse_word(MIXED, "A[1]^2") == IDENTITY
    assert parse_word(MIXED, "A[1] b^2") == Word(((A, 1), (B, 2)))


def test_format_uses_index_tokens_for_table_factors():
    g = Word(((A, 3), (B, 2)))
    assert format_word(MIXED, g) == "A[3] b^2"
    assert format_word(ZXZ, Word(((A, 1), (B, -2)))) == "a b^-2"


@pytest.mark.parametrize(
    "splitting, text, position",
    [
        (ZXZ, "q", 0),
        (ZXZ, "a q", 2),
        (ZXZ, "a b A[1]", 4),
        (MIXED, "a b", 0),
        (MIXED, "A[9]", 0),
        (ZXZ, "a^x", 0),
    ],
)
def test_parse_errors_carry_positions(splitting, text, position):
    with pytest.raises(WordSyntaxError, match=rf"\(at position {position}\)$") as info:
        parse_word(splitting, text)
    assert info.value.position == position


def test_random_words_are_deterministic_and_bounded():
    for s in SPLITTINGS:
        assert random_word(s, 5, 3, 7) == random_word(s, 5, 3, 7)
        for seed in range(50):
            g = random_word(s, 5, 3, seed)
            validate_word(s, g)
            assert len(g) <= 5
            for side, x in g:
                if not s.factor(side).is_finite:
                    assert 1 <= abs(x) <= 3


def test_random_word_rejects_empty_ranges():
    with pytest.raises(ValueError):
        random_word(ZXZ, 0, 3, 1)
    with pytest.raises(ValueError):
        random_word(ZXZ, 5, 0, 1)


def test_word_sampler_draws_huge_exponents_without_listing_them():
    sampler = word_sampler(ZXZ, 4, 10**9, 1)
    for _ in range(20):
        assert all(1 <= abs(k) <= 10**9 for _, k in sampler())
    assert all(1 <= abs(k) <= 10**9 for _, k in random_word(ZXZ, 5, 10**9, 2))


def test_word_sampler_rejects_empty_ranges_when_built():
    for bounds in ((0, 3), (5, 0), (-1, 1)):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            word_sampler(ZXZ, *bounds, rng)
        assert rng.random() == random.Random(1).random()


# The seeded draws of random_word before it became one draw of a
# word_sampler, kept verbatim as the oracle the sampler must match.
def _random_letter(factor, side, exponent_bound, rng):
    if isinstance(factor, IntegerGroup):
        k = rng.randint(1, exponent_bound)
        return side, k if rng.random() < 0.5 else -k
    choices = [x for x in factor.elements() if not factor.is_identity(x)]
    return side, rng.choice(choices)


def oracle_random_word(s, length_bound, exponent_bound, rng):
    """A uniform-ish random reduced word; deterministic for a fixed seed."""
    if length_bound < 1 or exponent_bound < 1:
        raise ValueError("bounds must be >= 1")
    if isinstance(rng, int):
        rng = random.Random(rng)
    length = rng.randint(0, length_bound)
    side = A if rng.random() < 0.5 else B
    letters = []
    for _ in range(length):
        letters.append(_random_letter(s.factor(side), side, exponent_bound, rng))
        side = other_side(side)
    return Word(tuple(letters))


@pytest.mark.parametrize("s", [ZXZ, C5XC6, ZXC3, S3XZ], ids=["ZxZ", "Z5xZ6", "ZxZ3", "S3xZ"])
@pytest.mark.parametrize("bounds", [(1, 1), (1, 5), (4, 1), (4, 4), (5, 3), (8, 6)])
def test_word_sampler_draws_what_random_word_always_drew(s, bounds):
    for seed in range(60):
        old, new, fresh = random.Random(seed), random.Random(seed), random.Random(seed)
        expected = [oracle_random_word(s, *bounds, old) for _ in range(20)]
        sampler = word_sampler(s, *bounds, new)
        assert [sampler() for _ in range(20)] == expected
        assert [random_word(s, *bounds, fresh) for _ in range(20)] == expected
        # The stream is consumed draw for draw, so later draws agree too.
        assert new.random() == old.random() == fresh.random()
        # An int seed still seeds a fresh generator.
        assert random_word(s, *bounds, seed) == expected[0]
        assert word_sampler(s, *bounds, seed)() == expected[0]


@pytest.mark.parametrize(
    "splitting, per_side, expected",
    [
        # Letter choices per side: 2*bound for integers, size-1 otherwise.
        (ZXZ, (4, 4), 1 + 8 + 32),
        (C5XC6, (4, 5), 1 + 9 + 40),
        (MIXED, (3, 2), 1 + 5 + 12),
    ],
)
def test_enumerate_words_is_exhaustive_and_duplicate_free(splitting, per_side, expected):
    words = list(enumerate_words(splitting, 2, 2))
    assert len(words) == expected
    assert len(set(words)) == expected
    for g in words:
        validate_word(splitting, g)
        assert len(g) <= 2
    na, nb = per_side
    two_letter = sum(1 for g in words if len(g) == 2)
    assert two_letter == 2 * na * nb

