"""Normal-form word arithmetic: reduction, parsing, and enumeration."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup
from splitqm.quasimorphisms import FactorQM, SplitQM, sampled_defect
from splitqm.words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    WordSyntaxError,
    _join,
    conjugate,
    cyclically_reduce,
    enumerate_words,
    format_word,
    invert,
    join_into,
    multiply,
    other_side,
    parse_word,
    power,
    random_word,
    reduce,
    validate_word,
    word_sampler,
)

import reference

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
# Z/3 as a table whose identity is the element 1, not 0.
SHIFTED = Splitting(
    FiniteTableGroup.from_mul(3, lambda x, y: (x + y - 1) % 3, identity=1),
    CyclicGroup(4),
)


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


def test_a_word_is_the_immutable_tuple_of_its_letters():
    letters = ((A, 2), (B, -1), (A, 1))
    g = Word(letters)
    assert Word(list(letters)) == g == Word(x for x in letters)
    assert type(g.letters) is tuple and g.letters == letters
    assert len(g) == 3 and g and not IDENTITY and len(IDENTITY) == 0
    assert list(g) == list(letters) and g[0] == (A, 2) and g[-1] == (A, 1)
    # Hashes and compares as the plain letter tuple.
    assert g == letters and hash(g) == hash(letters) == hash(Word(letters))
    assert {g: 1}[letters] == 1 and letters in {g} and Word() == IDENTITY == ()
    assert g != Word(letters[:2])
    with pytest.raises(AttributeError):
        g.letters = ()
    with pytest.raises(AttributeError):
        g.side = A
    assert repr(g) == "Word(letters=(('A', 2), ('B', -1), ('A', 1)))"
    assert repr(IDENTITY) == "Word(letters=())"
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(copied) is Word and copied == g and copied.letters == letters


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


@pytest.mark.parametrize(
    "s, letter",
    [(ZXZ, (A, True)), (ZXZ, (A, 1.5)), (C5XC6, (A, 7)), (C5XC6, (A, 0))],
    ids=["True", "1.5", "out-of-range", "identity"],
)
def test_invert_rejects_the_letters_validate_word_rejects(s, letter):
    g = Word((letter,))
    with pytest.raises(ValueError) as expected:
        validate_word(s, g)
    with pytest.raises(ValueError) as raised:
        invert(s, g)
    assert str(raised.value) == str(expected.value)


@given(splitting_and_words(count=3, max_len=6))
def test_multiplication_is_associative(case):
    s, g, h, k = case
    assert multiply(s, multiply(s, g, h), k) == multiply(s, g, multiply(s, h, k))


@settings(max_examples=300)
@given(splitting_and_words(max_len=5, raw=True), st.integers(-6, 6))
def test_power_matches_repeated_multiplication(case, n):
    s, g = case
    assert power(s, g, n) == reference.power(s, g, n)


@given(splitting_and_words(count=2, max_len=6, raw=True))
def test_conjugation_definition(case):
    s, g, h = case
    assert conjugate(s, h, g) == reference.conjugate(s, h, g)


@settings(max_examples=300)
@given(splitting_and_words(max_len=12, raw=True))
def test_cyclic_reduction_matches_the_rotate_and_reduce_loop(case):
    """On the normal form of g: every spelling of an element splits alike."""
    s, g = case
    assert cyclically_reduce(s, g) == reference.cyclic_split(s, g)


def test_cyclic_reduction_reduces_a_raw_spelling_first():
    raw = Word(((A, 1), (A, -1), (B, 1)))
    assert cyclically_reduce(ZXZ, raw) == (Word(((B, 1),)), IDENTITY)
    assert cyclically_reduce(ZXZ, Word(((A, 0),))) == (IDENTITY, IDENTITY)


def test_cyclic_reduction_of_a_long_conjugate_matches_the_loop():
    # g = h a^2 b h'^-1 with h' = h less its last letter b^2: 1999 strips
    # cancel, and the last one merges b^2 into b.
    h = Word(tuple((A if i % 2 == 0 else B, 1 + i % 3) for i in range(2000)))
    core = Word(((A, 2), (B, 3)))
    g = conjugate(ZXZ, h, core)
    assert len(g) == 4001
    assert cyclically_reduce(ZXZ, g) == reference.cyclic_split(ZXZ, g) == (core, h)


def test_junction_merges_keep_the_order_of_non_commuting_letters():
    for x in range(1, 6):
        for y in range(1, 6):
            g = Word(((A, x), (B, 2), (A, y)))
            for n in (-3, -2, 2, 3):
                assert power(S3XZ, g, n) == reference.power(S3XZ, g, n)
            assert cyclically_reduce(S3XZ, g) == reference.cyclic_split(S3XZ, g)


@settings(max_examples=300)
@given(splitting_and_words(count=2), st.integers(0, 10))
def test_join_of_normal_forms_is_their_full_reduction(case, cut):
    """Both junction joins, in place and on slices, against the full
    reduction, on every splitting:
    on S3 x Z a merge must keep the order of its letters.  Putting the
    inverse of a suffix of g in front of h makes the junction cancel pairs
    before it merges or stops."""
    s, g, h = case
    tail = Word(g.letters[min(cut, len(g)):])
    for right in (h, multiply(s, invert(s, tail), h)):
        expected = reference.normal_form(s, g.letters + right.letters)
        out = list(g.letters)
        join_into(s, out, right.letters)
        assert Word(tuple(out)) == Word(_join(s, g.letters, right.letters)) == expected


def outcome(fn, *args):
    """What fn returns, or the type and text of what it raises."""
    try:
        return "returns", fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)


def _bad_letters(s, side):
    """Letters on or near ``side`` that no normal form holds."""
    factor = s.factor(side)
    size = factor.size if factor.is_finite else 7
    return [
        (side, True), (side, False), (side, 1.0), (side, factor.identity),
        (side, -1), (side, size), ("C", 1), ("AB", 1), ("", 1), (1, 1),
        [side, 1], (side,), (side, 1, 2),
    ]


def _adversarial_letters(s, draw):
    letters = list(_raw_letters(s, draw, 10))
    if draw(st.booleans()):
        letters = list(reference.normal_form(s, letters))
    for _ in range(draw(st.integers(0, 2)) if letters else 0):
        bad = draw(st.sampled_from(_bad_letters(s, draw(st.sampled_from([A, B])))))
        letters[draw(st.integers(0, len(letters) - 1))] = bad
    return letters


@st.composite
def adversarial_words(draw):
    """A splitting and two lists of letters that may break any rule of a
    normal form: a raw or normal word of up to 10 letters, with up to two
    letters replaced by ``True``, ``1.0``, an identity, an element out of
    range, an unknown or multi-character side, or a letter that is no pair."""
    s = draw(st.sampled_from(SPLITTINGS + [SHIFTED]))
    return s, _adversarial_letters(s, draw), _adversarial_letters(s, draw)


CONTAINERS = {"tuple": tuple, "word": Word, "list": list, "generator": iter}


@settings(max_examples=400)
@given(adversarial_words(), st.sampled_from(sorted(CONTAINERS)))
def test_normal_form_checks_agree_with_the_letter_loops(case, kind):
    """``reduce`` and ``multiply`` return the reference normal form, or raise
    what it raises, on raw words, normal words and adversarial letters, in
    any container; ``validate_word`` returns its argument itself exactly when
    that is a normal form, and raises ValueError otherwise."""
    s, letters, more = case
    wrap = CONTAINERS[kind]
    got = outcome(reduce, s, wrap(letters))
    assert got == outcome(reference.normal_form, s, wrap(letters))
    if got[0] == "returns":
        assert type(got[1]) is Word and all(type(letter) is tuple for letter in got[1])
    g = wrap(letters)
    got = outcome(validate_word, s, g)
    if reference.is_normal(s, letters):
        assert got[0] == "returns" and got[1] is g
    else:
        assert got[:2] == ("raises", ValueError)
    if kind != "generator":
        expected = outcome(reference.normal_form, s, letters + more)
        assert outcome(multiply, s, wrap(letters), wrap(more)) == expected


@pytest.mark.parametrize("s", SPLITTINGS + [SHIFTED])
def test_each_bad_letter_in_a_normal_word_takes_the_loop(s):
    g = reference.normal_form(s, [(A, 2), (B, 2), (A, 2), (B, 2)])
    for i in range(len(g)):
        for bad in _bad_letters(s, g[i][0]):
            word = g[:i] + (bad,) + g[i + 1 :]
            assert outcome(reduce, s, word) == outcome(reference.normal_form, s, word)
            got = outcome(validate_word, s, word)
            if reference.is_normal(s, word):
                assert got[0] == "returns" and got[1] is word
            else:
                assert got[:2] == ("raises", ValueError)


@pytest.mark.parametrize(
    "s, word, message",
    [
        (ZXZ, ((A, 1), (A, 2)), "adjacent letters on the same side"),
        (C5XC6, ((A, 2), (B, 0)), "identity letter in word"),
        (C5XC6, ((A, 5), (B, 1)), "5 is not an element of Z/5"),
        (C5XC6, ((B, -1),), "-1 is not an element of Z/6"),
        (ZXZ, ((A, True),), "True is not an element of Z"),
        (ZXZ, (("C", 1),), "unknown side 'C'"),
        (ZXZ, ((A, 1), [B, 1]), "letter is not a (side, element) tuple"),
        (ZXZ, ((A, 1), (B,)), "letter is not a (side, element) tuple"),
    ],
)
def test_validate_word_names_the_broken_rule(s, word, message):
    with pytest.raises(ValueError) as info:
        validate_word(s, word)
    assert str(info.value) == message


# A normal form holds only (side, element) tuples: a list letter, which
# unpacks as a pair, is refused before the letter memo could raise TypeError.
@pytest.mark.parametrize("word", [([A, 1], (B, 1)), ((A, 1), [B, 1]), Word(([A, 1], [B, 2]))])
def test_validate_word_refuses_list_letters(word):
    assert not reference.is_normal(ZXZ, word)
    with pytest.raises(ValueError, match=r"letter is not a \(side, element\) tuple"):
        validate_word(ZXZ, word)


def test_a_normal_tuple_comes_back_as_itself():
    g = Word(((A, 2), (B, -1), (A, 1)))
    assert reduce(ZXZ, g) is g and validate_word(ZXZ, g) is g
    assert type(reduce(ZXZ, g.letters)) is Word


def test_the_identity_of_a_table_is_its_identity_index_not_0():
    g = Word(((A, 0), (B, 1), (A, 2)))
    assert reduce(SHIFTED, g) is g and validate_word(SHIFTED, g) is g
    raw = Word(((A, 1), (B, 1), (A, 2)))
    assert reduce(SHIFTED, raw) == reference.normal_form(SHIFTED, raw) == Word(((B, 1), (A, 2)))
    with pytest.raises(ValueError, match="identity letter"):
        validate_word(SHIFTED, raw)


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
    """Wherever the reference raises, the kernel raises too."""
    s, g, h = case
    for new, old, args in [
        (power, reference.power, (s, g, n)),
        (conjugate, reference.conjugate, (s, h, g)),
        (conjugate, reference.conjugate, (s, g, h)),
        (cyclically_reduce, reference.cyclic_split, (s, g)),
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
    for bounds in ((0, 3), (5, 0), (-1, 1), (4.0, 4), (4, 2.5), (True, 4), (4, True)):
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


# Z/2 has a single non-identity letter: its index is a getrandbits(1) draw
# that rejects half the time.
Z2XZ = Splitting(CyclicGroup(2), IntegerGroup())
# Bounds where getrandbits' rejection rate changes: exponent bounds on either
# side of a power of two (2**31 + 1 needs 32 bits and rejects almost half the
# draws), and length bounds 3 and 7, whose length draw below 4 or 8 rejects
# nothing.
SAMPLER_BOUNDS = [
    (1, 1), (1, 5), (4, 1), (4, 4), (5, 3), (8, 6),
    (3, 2), (7, 3), (3, 7), (7, 8), (3, 9), (7, 2**31 + 1),
]


@pytest.mark.parametrize(
    "s", [ZXZ, C5XC6, ZXC3, S3XZ, Z2XZ], ids=["ZxZ", "Z5xZ6", "ZxZ3", "S3xZ", "Z2xZ"]
)
@pytest.mark.parametrize("bounds", SAMPLER_BOUNDS)
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


class RecordingRandom(random.Random):
    """A Random that logs each ``getrandbits(k)`` and ``random()`` call."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)

    def random(self):
        self.calls.append("random")
        return super().random()


@pytest.mark.parametrize("s", [ZXZ, C5XC6, Z2XZ, S3XZ], ids=["ZxZ", "Z5xZ6", "Z2xZ", "S3xZ"])
@pytest.mark.parametrize("bounds", [(3, 2), (4, 4), (7, 2**31 + 1)])
def test_word_sampler_makes_the_oracles_getrandbits_calls(s, bounds):
    f = SplitQM(s, FactorQM(s.A), FactorQM(s.B))
    for seed in range(20):
        old, new = RecordingRandom(seed), RecordingRandom(seed)
        expected = [oracle_random_word(s, *bounds, old) for _ in range(20)]
        sampler = word_sampler(s, *bounds, new)
        assert [sampler() for _ in range(20)] == expected
        # Same calls with the same k, draw for draw, and the log saw them.
        assert new.calls == old.calls
        assert any(k != "random" for k in new.calls)
        # sampled_defect draws each pair of a marked sampler as two letter
        # lists (sample.draw) and sizes only some: the same calls as 2 * 25
        # oracle words, and the stream after them agrees.
        old, new = RecordingRandom(seed), RecordingRandom(seed)
        for _ in range(2 * 25):
            oracle_random_word(s, *bounds, old)
        sampled_defect(f, word_sampler(s, *bounds, new), 25)
        assert new.calls == old.calls
        assert new.random() == old.random()


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

