"""Letter-string counting maps and the block-decomposition identity."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.counting import (
    block_counting,
    counting_qm,
    decomposition_residual,
    invert_letters,
    is_reduced_letters,
    letters_from_word,
    subword_count,
    word_from_letters,
)
from splitqm.groups import IntegerGroup
from splitqm.quasimorphisms import FactorQM, SplitQM, weight_qm
from splitqm.words import A, B, IDENTITY, Splitting, Word, invert, parse_word, random_word

ZXZ = Splitting(IntegerGroup(), IntegerGroup())

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


@st.composite
def reduced_strings(draw, max_len=12):
    out = []
    for _ in range(draw(st.integers(0, max_len))):
        choices = [c for c in "aAbB" if not out or c != _INVERSE[out[-1]]]
        out.append(draw(st.sampled_from(choices)))
    return "".join(out)


@given(reduced_strings())
def test_letter_strings_round_trip_through_words(text):
    g = word_from_letters(ZXZ, text)
    assert letters_from_word(g) == text
    assert word_from_letters(ZXZ, letters_from_word(g)) == g


def test_word_from_letters_reduces_and_validates():
    assert word_from_letters(ZXZ, "aA") == IDENTITY
    assert word_from_letters(ZXZ, "abBA") == IDENTITY
    assert word_from_letters(ZXZ, "aab") == Word(((A, 2), (B, 1)))
    with pytest.raises(ValueError):
        word_from_letters(ZXZ, "axb")


def test_letters_from_word_expands_syllables():
    g = parse_word(ZXZ, "a^3 b^-2 a^-1")
    assert letters_from_word(g) == "aaaBBA"


@given(reduced_strings())
def test_inversion_of_letter_strings(text):
    assert invert_letters(invert_letters(text)) == text
    assert is_reduced_letters(invert_letters(text))
    g = word_from_letters(ZXZ, text)
    assert word_from_letters(ZXZ, invert_letters(text)) == invert(ZXZ, g)


@given(reduced_strings(max_len=4), reduced_strings(max_len=16))
def test_subword_count_matches_regex_oracle(w, g):
    expected = len(re.findall(f"(?={re.escape(w)})", g)) if w else 0
    assert subword_count(w, g) == expected


def test_subword_count_rejects_bad_strings():
    with pytest.raises(ValueError, match=re.escape("unknown letter 'x'")):
        subword_count("ax", "aba")
    with pytest.raises(ValueError, match=re.escape("unknown letter '\\n'")):
        subword_count("ab", "ab\nab")
    with pytest.raises(ValueError, match=re.escape("letter word 'aA' is not freely reduced")):
        subword_count("aA", "ab")
    with pytest.raises(ValueError, match=re.escape("letter word 'abBa' is not freely reduced")):
        subword_count("ab", "abBa")


def test_counting_anchor():
    assert subword_count("aba", "ababa") == 2
    assert counting_qm("aba", "ababa") == 2
    assert counting_qm("ab", "BABA") == -2


@given(reduced_strings(max_len=4), reduced_strings(max_len=16))
def test_counting_qm_is_alternating(w, g):
    assert counting_qm(w, g) == -counting_qm(w, invert_letters(g))


def test_block_counting_anchor():
    text = letters_from_word(parse_word(ZXZ, "b a^3 b"))
    assert block_counting(A, 3, text) == 1
    assert block_counting(A, 3, invert_letters(text)) == -1
    assert block_counting(A, 2, text) == 0
    assert block_counting(A, 3, "aaab") == 0  # boundary syllables do not count
    with pytest.raises(ValueError):
        block_counting(A, 0, text)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([A, B]), st.integers(1, 4))
def test_block_counting_counts_signed_internal_syllables(seed, side, k):
    g = random_word(ZXZ, 7, 5, seed)
    expected = sum(
        (1 if exp > 0 else -1)
        for s, exp in g.letters[1:-1]
        if s == side and abs(exp) == k
    )
    assert block_counting(side, k, letters_from_word(g)) == expected


@st.composite
def finite_support_split_qms(draw):
    values = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    maps = []
    for group in (ZXZ.A, ZXZ.B):
        table = {}
        for key in draw(st.sets(st.integers(1, 4), max_size=3)):
            value = draw(values)
            if value:
                table[key], table[-key] = value, -value
        maps.append(FactorQM(group, finite_part=table))
    return SplitQM(ZXZ, maps[0], maps[1])


@settings(deadline=None, max_examples=50)
@given(finite_support_split_qms(), st.integers(0, 2**32 - 1))
def test_decomposition_residual_vanishes(f, seed):
    for text in ("", "a", "baab", "baaab", "ABBA"):
        assert decomposition_residual(f, word_from_letters(ZXZ, text)) == 0
    for offset in range(20):
        g = random_word(ZXZ, 6, 5, seed + offset)
        assert decomposition_residual(f, g) == 0


def test_decomposition_handles_boundary_syllables():
    f = weight_qm({1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(-1)})
    for text in ("b a^2 b", "a^2", "b a^2", "a^3 b^-1 a^-2", ""):
        assert decomposition_residual(f, parse_word(ZXZ, text)) == 0


def test_decomposition_rejects_unbounded_maps():
    unbounded = [
        FactorQM(ZXZ.A, slope=Fraction(1)),
        FactorQM(ZXZ.A, sign_coeff=Fraction(1)),
        FactorQM(ZXZ.A, period=2, residues=(Fraction(0), Fraction(0))),
    ]
    for q in unbounded:
        f = SplitQM(ZXZ, q, FactorQM(ZXZ.B))
        with pytest.raises(ValueError):
            decomposition_residual(f, parse_word(ZXZ, "a b"))
