"""The slow path for ``sampled_defect``: every pair's product reduced by
``multiply``, shared by the split quasimorphism and quasi-representation tests."""

from fractions import Fraction

from splitqm.quasimorphisms import junction_pairs, sampled_defect
from splitqm.words import Word, invert, multiply, word_sampler


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


def check_joins_as_multiply_does(f, seed, sampled=sampled_defect):
    """``sampled_defect`` gives on ``f`` the exact value the slow path gives
    on each pair, and ``sampled`` (``sampled_defect`` or an entry point built
    on it) gives their maximum over all the pairs."""
    s = f.splitting
    pairs = cancelling_pairs(s, seed, 40) + junction_pairs(f)
    slow = [Fraction(*f.pair_size(g, h, multiply(s, g, h))) for g, h in pairs]
    # One pair at a time, so a wrong product cannot hide below the maximum.
    assert [sampled_defect(f, iter(pair).__next__, 1) for pair in pairs] == slow
    words = iter([w for pair in pairs for w in pair]).__next__
    assert sampled(f, words, len(pairs)) == max(slow)
