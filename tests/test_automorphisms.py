"""Twist and inner endomorphisms acting on split quasimorphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.automorphisms import (
    Endo,
    apply,
    check_fixed_point,
    compose,
    identity_endo,
    inner,
    inner_distance_check,
    is_periodic,
    pullback_qm,
    twist,
    violation_witness,
)
from splitqm.groups import CyclicGroup, IntegerGroup
from splitqm.quasimorphisms import FactorQM, SplitQM, eval_split, split_defect, weight_qm
from splitqm.words import (
    A,
    B,
    Splitting,
    Word,
    conjugate,
    invert,
    parse_word,
    random_word,
    reduce,
)

import reference

ZXZ = Splitting(IntegerGroup(), IntegerGroup())


def _period_qm(group, n, values):
    residues = [Fraction(0)] * n
    for j, value in enumerate(values, start=1):
        residues[j] = Fraction(value)
        residues[n - j] = -Fraction(value)
    return FactorQM(group, period=n, residues=tuple(residues))


def _bump_qm(group):
    return FactorQM(group, finite_part={1: Fraction(1), -1: Fraction(-1)})


def test_apply_substitutes_generator_images():
    e = twist(ZXZ, 2)
    assert apply(e, parse_word(ZXZ, "b")) == parse_word(ZXZ, "a^2 b")
    assert apply(e, parse_word(ZXZ, "a b^-1")) == parse_word(ZXZ, "a b^-1 a^-2")
    assert apply(e, parse_word(ZXZ, "")) == parse_word(ZXZ, "")


@pytest.mark.parametrize("bad", [("C", 1), (A, True), (A, 1.0), (A, 1.5), (A, [1])])
@pytest.mark.parametrize("before", [(), ((A, 1), (B, 1))])
def test_apply_rejects_letters_outside_the_factors(bad, before):
    # After a valid a, the letter True would hit the memo slot of a, on a
    # fresh Endo and on one whose letter memo an earlier call warmed.
    e = twist(ZXZ, 2)
    with pytest.raises(ValueError):
        apply(e, Word(before + (bad,)))
    assert apply(e, Word(((A, 1), (B, 1)))) == parse_word(ZXZ, "a^3 b")
    with pytest.raises(ValueError):
        apply(e, Word(before + (bad,)))
    assert e == twist(ZXZ, 2) and hash(e) == hash(twist(ZXZ, 2))


_RAW_LETTERS = st.tuples(st.sampled_from([A, B]), st.integers(-4, 4))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.lists(_RAW_LETTERS, max_size=10),
)
def test_apply_matches_a_left_fold_of_multiply(seed_a, seed_b, raw):
    # The normal form of each letter's image raised to its exponent, in order.
    e = Endo(ZXZ, random_word(ZXZ, 4, 3, seed_a), random_word(ZXZ, 4, 3, seed_b))
    images = {A: e.image_a, B: e.image_b}
    for g in (Word(tuple(raw)), reduce(ZXZ, raw)):
        assert apply(e, g) == reference.normal_form(ZXZ, sum((reference.power(ZXZ, images[side], k) for side, k in g), ()))


@given(st.integers(0, 2**32 - 1))
def test_identity_endo_fixes_everything(seed):
    g = random_word(ZXZ, 6, 4, seed)
    assert apply(identity_endo(ZXZ), g) == g


@given(st.integers(-4, 4).filter(bool), st.integers(0, 2**32 - 1))
def test_twists_compose_to_the_identity(n, seed):
    assert compose(twist(ZXZ, n), twist(ZXZ, -n)) == identity_endo(ZXZ)
    g = random_word(ZXZ, 5, 3, seed)
    assert apply(twist(ZXZ, n), apply(twist(ZXZ, -n), g)) == g


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_inner_endo_conjugates(seed_h, seed_g):
    h = random_word(ZXZ, 4, 3, seed_h)
    g = random_word(ZXZ, 5, 3, seed_g)
    expected = conjugate(ZXZ, invert(ZXZ, h), g)
    assert apply(inner(ZXZ, h), g) == expected


@given(st.integers(-3, 3).filter(bool), st.integers(0, 2**32 - 1))
def test_composition_applies_right_then_left(n, seed):
    rng_words = [random_word(ZXZ, 4, 3, seed + k) for k in range(3)]
    e1 = twist(ZXZ, n)
    e2 = inner(ZXZ, rng_words[0])
    composed = compose(e1, e2)
    for g in rng_words[1:]:
        assert apply(composed, g) == apply(e1, apply(e2, g))


def test_pullback_verifies_the_supplied_inverse():
    f = weight_qm({1: Fraction(1)})
    g = parse_word(ZXZ, "a b^2 a^-1")
    sample = [parse_word(ZXZ, "a b"), parse_word(ZXZ, "b^-1 a^3")]
    value = pullback_qm(f, twist(ZXZ, 2), twist(ZXZ, -2), g, sample)
    assert value == eval_split(f, apply(twist(ZXZ, -2), g))
    with pytest.raises(ValueError):
        pullback_qm(f, twist(ZXZ, 2), twist(ZXZ, 2), g, sample)


def test_pullback_verifies_raw_words_against_their_normal_forms():
    f = weight_qm({1: Fraction(1)})
    g = Word(((A, 1), (A, -1), (B, 1)))
    sample = [Word(((B, 2), (A, 0), (B, -1), (A, 3), (A, -1)))]
    value = pullback_qm(f, twist(ZXZ, 2), twist(ZXZ, -2), g, sample)
    assert value == pullback_qm(f, twist(ZXZ, 2), twist(ZXZ, -2), parse_word(ZXZ, "b")) == 1
    with pytest.raises(ValueError):
        pullback_qm(f, twist(ZXZ, 2), twist(ZXZ, 2), g, sample)


def test_is_periodic_detects_residue_tables():
    q = _period_qm(ZXZ.A, 3, [1])
    assert is_periodic(q, 3)
    assert is_periodic(q, 6)
    assert not is_periodic(q, 2)
    assert not is_periodic(_bump_qm(ZXZ.A), 3)
    zero = FactorQM(ZXZ.A)
    assert all(is_periodic(zero, n) for n in range(1, 6))
    with pytest.raises(ValueError):
        is_periodic(q, 0)
    with pytest.raises(ValueError):
        is_periodic(FactorQM(CyclicGroup(5), finite_part={}), 2)


@pytest.mark.parametrize("n", [3, -3, 4, 5])
def test_fixed_point_holds_for_periodic_first_factor(n):
    f = SplitQM(ZXZ, _period_qm(ZXZ.A, abs(n), [1]), FactorQM(ZXZ.B))
    samples = [random_word(ZXZ, 5, 2 * abs(n), seed) for seed in range(60)]
    report = check_fixed_point(f, n, samples)
    assert report.condition_holds
    assert report.invariant
    assert report.checked == 60
    assert report.failures == ()
    assert report.witness is None
    assert report.commutator_gap == 0
    assert not report.forces_zero


@pytest.mark.parametrize(
    "bad",
    [
        lambda: SplitQM(ZXZ, _period_qm(ZXZ.A, 3, [1]), _bump_qm(ZXZ.B)),
        lambda: SplitQM(ZXZ, _bump_qm(ZXZ.A), FactorQM(ZXZ.B)),
        lambda: SplitQM(ZXZ, _period_qm(ZXZ.A, 4, [1]), FactorQM(ZXZ.B)),
    ],
)
def test_fixed_point_failure_produces_a_growing_witness(bad):
    f = bad()
    report = check_fixed_point(f, 3, [])
    assert not report.condition_holds
    assert not report.invariant
    witness = report.witness
    assert witness is not None
    assert witness.base_gap != 0
    gaps = [gap for _, gap in witness.growth]
    assert gaps == [m * gaps[0] for m, _ in witness.growth]
    absolute = [abs(g) for g in gaps]
    assert absolute == sorted(absolute) and len(set(absolute)) == len(absolute)


@pytest.mark.parametrize("n", [1, 2, -1, -2])
def test_small_twists_force_the_zero_map(n):
    f = SplitQM(ZXZ, FactorQM(ZXZ.A), FactorQM(ZXZ.B))
    report = check_fixed_point(f, n, [random_word(ZXZ, 4, 3, seed) for seed in range(20)])
    assert report.forces_zero
    assert report.invariant


def test_violation_witness_agrees_with_the_exact_condition():
    first = {
        "zero": FactorQM(ZXZ.A),
        "period3": _period_qm(ZXZ.A, 3, [1]),
        "bump": _bump_qm(ZXZ.A),
        "period4": _period_qm(ZXZ.A, 4, [1]),
    }
    second = {"zero": FactorQM(ZXZ.B), "bump": _bump_qm(ZXZ.B)}
    for fa in first.values():
        for fb in second.values():
            f = SplitQM(ZXZ, fa, fb)
            expected_invariant = is_periodic(fa, 3) and fb.is_zero
            assert (violation_witness(f, 3) is None) == expected_invariant


def test_twist_analysis_rejects_bad_inputs():
    f = SplitQM(ZXZ, FactorQM(ZXZ.A, slope=Fraction(1)), FactorQM(ZXZ.B))
    with pytest.raises(ValueError):
        violation_witness(f, 3)
    with pytest.raises(ValueError):
        check_fixed_point(weight_qm({1: Fraction(1)}), 0, [])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_inner_distance_stays_within_twice_the_defect(seed):
    f = weight_qm({1: Fraction(1), 2: Fraction(-1, 2)})
    h = random_word(ZXZ, 4, 3, seed)
    samples = [random_word(ZXZ, 5, 3, seed + k + 1) for k in range(40)]
    worst = inner_distance_check(f, h, samples)
    expected = max(
        abs(eval_split(f, conjugate(ZXZ, h, g)) - eval_split(f, g)) for g in samples
    )
    assert worst == expected
    assert worst <= 2 * split_defect(f)
