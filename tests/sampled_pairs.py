"""The slow paths for ``sampled_defect``, shared by the split
quasimorphism, quasicocycle and quasi-representation tests: every pair
sized from its three whole words by ``reference.whole_word_size``, and every
letter of a sampled pair checked before the pair is sized."""

import random
from unittest import mock

from reference import whole_word_size
from splitqm.quasimorphisms import junction_pairs, sampled_defect
from splitqm.words import SplitMap, Word, invert, multiply, word_sampler


def cancelling_pairs(s, seed, count):
    """``count`` pairs of sampled normal forms; in every second pair h
    starts by undoing a tail of g, so the junction cancels and then merges."""
    sampler = word_sampler(s, 5, 4, seed)
    pairs = []
    for k in range(count):
        g, h = sampler(), sampler()
        if k % 2 and g:
            h = multiply(s, invert(s, Word(g.letters[k % len(g) :])), h)
        pairs.append((g, h))
    return pairs


def merging_letters(s, g, h):
    """The letters where g and h first merge, as one-letter words, or None
    when no pair merges: gh loses the letters that cancel, in pairs, and
    one more when a pair merges into one letter."""
    lost = len(g) + len(h) - len(multiply(s, g, h))
    return (Word((g[-1 - lost // 2],)), Word((h[lost // 2],))) if lost % 2 else None


def check_meet_reads_what_the_walk_gives(f, seed):
    """``f.meet`` sizes each of ``cancelling_pairs``, as ``Word``s and as the
    letter lists ``sample.draw`` gives, as the whole words of its merging
    letters, which is also the size of the whole pair."""
    s = f.splitting
    pairs = cancelling_pairs(s, seed, 40)
    merging = [merging_letters(s, g, h) for g, h in pairs]
    expected = [whole_word_size(f, *letters) if letters else 0 for letters in merging]
    assert expected == [whole_word_size(f, g, h) for g, h in pairs]
    for convert in (Word, list):
        assert [abs(f.size_value(*f.meet(convert(g), convert(h)))) for g, h in pairs] == expected


def check_joins_as_multiply_does(f, seed, sampled=sampled_defect):
    """``sampled_defect`` gives on ``f`` the exact value the slow path gives
    on each pair, and ``sampled`` (``sampled_defect`` or an entry point built
    on it) gives their maximum over all the pairs."""
    pairs = cancelling_pairs(f.splitting, seed, 40) + junction_pairs(f)
    slow = [whole_word_size(f, g, h) for g, h in pairs]
    # One pair at a time, so a wrong junction cannot hide below the maximum.
    assert [sampled_defect(f, iter(pair).__next__, 1) for pair in pairs] == slow
    words = iter([w for pair in pairs for w in pair]).__next__
    assert sampled(f, words, len(pairs)) == max(slow)


def check_marked_sampler_meets_as_the_checked_path(f, seed, count, bounds=(4, 4)):
    """A ``word_sampler`` of f's splitting is marked with it, so
    ``sampled_defect`` sizes its pairs by ``SplitMap.meet`` alone, on a cold
    letter memo when f is fresh.  The same draws through an unmarked lambda
    take ``SplitMap.junction``, which checks every letter first.  Both give
    the largest whole-word size of those pairs."""
    marked = word_sampler(f.splitting, *bounds, random.Random(seed))
    assert marked.splitting is f.splitting
    with mock.patch.object(SplitMap, "junction", side_effect=AssertionError("a marked pair was checked")):
        fast = sampled_defect(f, marked, count)
    unmarked = word_sampler(f.splitting, *bounds, random.Random(seed))
    assert fast == sampled_defect(f, lambda: unmarked(), count)
    # Both samplers made the same draws.
    assert marked() == unmarked()
    words = word_sampler(f.splitting, *bounds, random.Random(seed))
    assert fast == max((whole_word_size(f, words(), words()) for _ in range(count)), default=0)
