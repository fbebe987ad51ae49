"""Module actions, split quasicocycles, and the ladder/staircase witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitqm import quasicocycles
from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup, inverse_pairs
from splitqm.qrep import Circle, FactorQRMap, FiniteMetric
from splitqm.quasicocycles import (
    FactorCocycleMap,
    FiniteDimRep,
    GrowthCheckError,
    RegularRep,
    SplitQC,
    _is_multiple,
    eval_split_qc,
    identity_matrix,
    inner_cocycle,
    inner_split_eval,
    ladder_word,
    mat_inv,
    mat_mul,
    mat_pow,
    power_ladder_cocycle,
    qc_coboundary,
    split_qc_defect,
    staircase_cocycle,
    staircase_word,
)
from splitqm.quasimorphisms import default_sampler, junction_pairs, sampled_defect
from splitqm.words import (
    A, B, IDENTITY, Splitting, Word, invert, multiply, parse_word, random_word, reduce, word_sampler,
)

import reference
from sampled_pairs import (
    check_joins_as_multiply_does,
    check_marked_sampler_meets_as_the_checked_path,
    check_meet_reads_what_the_walk_gives,
)

ZXZ = Splitting(IntegerGroup(), IntegerGroup())

SHEAR = ((1, 1), (0, 1))
FLIP = ((0, 1), (1, 0))


def _matrix_rep():
    return FiniteDimRep(ZXZ, SHEAR, FLIP)


def _permutation_rep():
    # Permutation matrices act by sup-norm isometries, so the certified
    # window applies (the shear above is not an isometry).
    return FiniteDimRep(ZXZ, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


# Signed permutation matrices, with -1 entries: isometries of the sup norm.
SIGNED_PERMUTATION = (((0, -1, 0), (0, 0, 1), (1, 0, 0)), ((-1, 0, 0), (0, 0, -1), (0, 1, 0)))


def _rational_rep():
    # Non-integral generators and inverses, so letter matrices carry denominators.
    return FiniteDimRep(ZXZ, ((2, 1), (1, 1)), ((Fraction(1, 2), 0), (0, 2)))


def _cyclic_rep():
    # The second factor is Z/3, acting by a rotation of order 3.
    return FiniteDimRep(Splitting(IntegerGroup(), CyclicGroup(3)), SHEAR, ((0, -1), (1, -1)))


def test_matrix_helpers():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    assert mat_mul(m, mat_inv(m)) == identity_matrix(2)
    assert mat_pow(m, 0) == identity_matrix(2)
    assert mat_pow(m, 3) == mat_mul(m, mat_mul(m, m))
    assert mat_pow(m, -2) == mat_inv(mat_mul(m, m))
    for k in range(-4, 7):
        expected = identity_matrix(2)
        for _ in range(abs(k)):
            expected = mat_mul(expected, m if k >= 0 else mat_inv(m))
        assert mat_pow(m, k) == expected
    with pytest.raises(ValueError):
        mat_inv(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))


def test_finite_dim_rep_validates_generators():
    with pytest.raises(ValueError):
        FiniteDimRep(ZXZ, ((1, 0), (0, 1)), ((1, 1),))
    with pytest.raises(ValueError):
        FiniteDimRep(ZXZ, ((1, 1), (1, 1)), FLIP)
    cyclic = Splitting(CyclicGroup(2), CyclicGroup(3))
    FiniteDimRep(cyclic, FLIP, ((0, -1), (1, -1)))
    with pytest.raises(ValueError):
        FiniteDimRep(cyclic, SHEAR, ((0, -1), (1, -1)))


@given(st.integers(0, 2**32 - 1))
def test_matrix_action_is_a_homomorphism(seed):
    rep = _matrix_rep()
    g = random_word(ZXZ, 4, 3, seed)
    h = random_word(ZXZ, 4, 3, seed + 1)
    v = rep.vector([1, Fraction(-1, 2)])
    assert rep.act(g, rep.act(h, v)) == rep.act(multiply(ZXZ, g, h), v)
    assert rep.act(IDENTITY, v) == v


@given(st.integers(0, 2**32 - 1))
def test_dense_action_matches_the_word_matrix_product(seed):
    for rep in (_rational_rep(), _cyclic_rep()):
        g = random_word(rep.splitting, 8, 3, seed)
        v = rep.vector([Fraction(2, 3), Fraction(-5, 4)])
        assert rep.act(g, v) == reference.act(rep, g, v)
        assert rep.act(g, rep.zero()) == rep.zero()


@pytest.mark.parametrize("bad", [(B, 7), (A, True), (A, 1.0), ("C", 1), (A, 1.5), (A, [1])])
@pytest.mark.parametrize("after", [(), ((A, 1), (B, 1))])
def test_dense_action_rejects_letters_outside_the_factors(bad, after):
    # act applies letters right to left, so the valid ones fill the memo
    # first; the letter True would then hit the memo slot of a.
    rep = _cyclic_rep()
    with pytest.raises(ValueError):
        rep.act(Word((bad,) + after), rep.vector([1, 0]))


def test_matrix_norms():
    rep = _matrix_rep()
    v = rep.vector([3, -4])
    assert rep.norm(v) == 4


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([A, B]), st.integers(-3, 3)), max_size=6),
)
def test_regular_rep_translation_is_an_isometry(seed, raw):
    """Translation by a normal form and by a raw word, with an identity
    letter and a cancelling pair, against the reference; the key at g^-1
    moves to the identity."""
    rep = RegularRep(ZXZ, 1)
    g = random_word(ZXZ, 4, 3, seed)
    h = random_word(ZXZ, 4, 3, seed + 1)
    raw_g = Word(tuple(raw) + ((A, 0), (B, 2), (B, -2)) + g.letters)
    v = rep.vector({h: 1, IDENTITY: Fraction(-1, 3), invert(ZXZ, reduce(ZXZ, raw_g.letters)): 2})
    for word in (g, raw_g):
        assert rep.act(word, v) == reference.act(rep, word, v)
        assert rep.norm(rep.act(word, v)) == rep.norm(v)


@pytest.mark.parametrize("bad", [(B, True), (A, 1.0), ("C", 1), (A, 1.5)])
def test_regular_action_rejects_letters_outside_the_factors(bad):
    rep = RegularRep(ZXZ, 1)
    v = rep.indicator(parse_word(ZXZ, "a b"))
    for g in (Word((bad,)), Word(((A, 1), bad, (B, 1)))):
        with pytest.raises(ValueError):
            rep.act(g, v)


@given(st.integers(0, 2**32 - 1))
def test_regular_one_letter_translation_on_numerators_matches_act(seed):
    s = Splitting(IntegerGroup(), CyclicGroup(3))
    rep = RegularRep(s, 1)
    v = rep.vector({random_word(s, 4, 3, seed + i): Fraction(i - 2, i + 1) for i in range(4)})
    den = rep.denominator(v)
    for side, x in ((A, 0), (A, 2), (A, -1), (B, 0), (B, 1), (B, 2)):
        nums, d = rep.translate(side, x, rep.numerators(v, den))
        assert d == 1
        assert nums == rep.numerators(rep.act(reduce(s, ((side, x),)), v), den)


def test_regular_rep_norms_and_vectors():
    rep1 = RegularRep(ZXZ, 1)
    rep2 = RegularRep(ZXZ, 2)
    rep_inf = RegularRep(ZXZ, math.inf)
    v = {IDENTITY: Fraction(3), parse_word(ZXZ, "a"): Fraction(-4)}
    assert rep1.norm(v) == 7
    assert rep2.norm(v) == pytest.approx(5.0)
    assert rep_inf.norm(v) == 4
    assert rep1.vector({IDENTITY: Fraction(0)}) == {}
    assert rep1.indicator(IDENTITY, 0) == {}


@pytest.mark.parametrize("p", [0, -1, 1.5, 2.0, True, "inf"])
def test_regular_rep_takes_an_integer_or_infinite_exponent(p):
    with pytest.raises(ValueError):
        RegularRep(ZXZ, p)


def test_factor_cocycle_map_forces_inverse_values():
    rep = RegularRep(ZXZ, 1)
    v = rep.indicator(IDENTITY)
    q = FactorCocycleMap(A, rep, {2: v})
    forced = rep.neg(rep.act(Word(((A, -2),)), v))
    assert q(-2) == forced
    assert q.support == (-2, 2)
    assert q.support_radius == 2
    assert q(1) == rep.zero()
    FactorCocycleMap(A, rep, {2: v, -2: forced})  # consistent explicit pair
    with pytest.raises(ValueError):
        FactorCocycleMap(A, rep, {2: v, -2: v})
    with pytest.raises(ValueError):
        FactorCocycleMap(A, rep, {0: v})


def test_an_explicit_zero_value_must_match_the_forced_one():
    # On the permutation action, f(1) = e1 forces f(-1) = -a^-1.e1 = (0, -1, 0),
    # so an explicit zero at -1 breaks alternation, like any other clash.
    rep = _permutation_rep()
    for clash in ((0, 0, 0), (5, 0, 0)):
        with pytest.raises(ValueError, match="map breaks alternation"):
            FactorCocycleMap(A, rep, {1: (1, 0, 0), -1: clash})
        with pytest.raises(ValueError, match="map breaks alternation"):
            FactorCocycleMap(A, rep, {-1: clash, 1: (1, 0, 0)})
    assert FactorCocycleMap(A, rep, {1: (1, 0, 0), -1: (0, -1, 0)}).table == {1: (1, 0, 0), -1: (0, -1, 0)}
    assert FactorCocycleMap(A, rep, {1: (0, 0, 0), -1: (0, 0, 0)}).table == {}


def test_factor_cocycle_map_checks_alternation_at_an_involution():
    # On Z/2 the generator is its own inverse, so its value must equal the
    # value -a.f(a) that alternation forces there.
    s = Splitting(CyclicGroup(2), CyclicGroup(3))
    rep = RegularRep(s, 1)
    e, a = rep.indicator(IDENTITY), rep.indicator(Word(((A, 1),)))
    with pytest.raises(ValueError):
        FactorCocycleMap(A, rep, {1: e})
    q = FactorCocycleMap(A, rep, {1: rep.sub(e, a)})
    assert q.support == (1,)
    assert q(1) == rep.sub(e, a)


def test_split_qc_validates_sides_and_action():
    rep = RegularRep(ZXZ, 1)
    other = RegularRep(ZXZ, 1)
    fA = FactorCocycleMap(A, rep, {})
    fB = FactorCocycleMap(B, rep, {})
    SplitQC(ZXZ, rep, fA, fB)
    with pytest.raises(ValueError):
        SplitQC(ZXZ, rep, fB, fA)
    with pytest.raises(ValueError):
        SplitQC(ZXZ, other, fA, fB)
    # A splitting that is not the action's: coboundaries would multiply
    # words in Z/5 * Z/6 while the action lives on Z * Z.
    with pytest.raises(ValueError):
        SplitQC(Splitting(CyclicGroup(5), CyclicGroup(6)), rep, fA, fB)


def _split_qcs():
    regular = RegularRep(ZXZ, 1)
    yield SplitQC(
        ZXZ, regular,
        FactorCocycleMap(A, regular, {1: regular.indicator(IDENTITY)}),
        FactorCocycleMap(B, regular, {1: regular.indicator(parse_word(ZXZ, "a b"))}),
    )
    for rep in (_rational_rep(), _cyclic_rep()):
        fA = FactorCocycleMap(A, rep, {1: rep.vector([1, Fraction(-1, 3)]), 3: rep.vector([0, 2])})
        fB = FactorCocycleMap(B, rep, {1: rep.vector([Fraction(1, 2), 1])})
        yield SplitQC(rep.splitting, rep, fA, fB)


@given(st.integers(0, 2**32 - 1))
def test_split_evaluation_is_the_prefix_translated_sum(seed):
    for f in _split_qcs():
        rep = f.action
        g = random_word(f.splitting, 6, 4, seed)
        assert eval_split_qc(f, g) == reference.value(f, g)


@given(st.integers(0, 2**32 - 1))
def test_split_coboundary_is_bounded_by_the_defect(seed):
    rep = RegularRep(ZXZ, 1)
    fA = FactorCocycleMap(A, rep, {1: rep.indicator(IDENTITY)})
    fB = FactorCocycleMap(B, rep, {})
    f = SplitQC(ZXZ, rep, fA, fB)
    defect = split_qc_defect(f)
    for offset in range(10):
        g = random_word(ZXZ, 5, 3, seed + 2 * offset)
        h = random_word(ZXZ, 5, 3, seed + 2 * offset + 1)
        assert rep.norm(qc_coboundary(f, g, h)) <= defect


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize(
    "make",
    [lambda: RegularRep(ZXZ, 1), lambda: RegularRep(ZXZ, math.inf), _permutation_rep],
    ids=["regular-l1", "regular-linf", "permutation"],
)
def test_sampled_split_coboundaries_attain_the_split_defect(make, depth):
    # The paper's defect equality for an isometric action: the largest
    # coboundary norm over word pairs is the larger factor defect, and the
    # junction pairs attain it.
    rep = make()
    seed = rep.vector((1, 0, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(IDENTITY)
    _, f = staircase_cocycle(rep, seed, depth)
    sampler = default_sampler(ZXZ, random.Random(depth), 4, 4)
    pairs = [(sampler(), sampler()) for _ in range(300)] + junction_pairs(f)
    worst = max(reference.whole_word_size(f, g, h) for g, h in pairs)
    assert worst == split_qc_defect(f) > 0


@pytest.mark.parametrize(
    "make, worst",
    [
        (lambda: RegularRep(ZXZ, 1), 3),
        (lambda: RegularRep(ZXZ, 2), math.sqrt(3)),
        (lambda: RegularRep(ZXZ, math.inf), 1),
        (_permutation_rep, 5),
    ],
    ids=["regular-l1", "regular-l2", "regular-linf", "permutation"],
)
def test_staircase_pairs_join_as_multiply_does(make, worst):
    # Sized at the junction from the factor pair, a split quasicocycle pair
    # has the norm of its whole-word coboundary, as the action is isometric.
    rep = make()
    xi = rep.vector((1, -2, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(parse_word(ZXZ, "b"))
    _, f = staircase_cocycle(rep, xi, 3)
    for seed in (5, 6):
        check_joins_as_multiply_does(f, seed)
    assert sampled_defect(f, iter(()).__next__, 0, junction_pairs(f)) == split_qc_defect(f) == worst


@pytest.mark.parametrize(
    "make",
    [lambda: RegularRep(ZXZ, 1), lambda: RegularRep(ZXZ, 2), lambda: FiniteDimRep(ZXZ, *SIGNED_PERMUTATION)],
    ids=["regular-l1", "regular-l2", "signed-permutation"],
)
@settings(deadline=None, max_examples=25)
@given(depth=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), count=st.integers(0, 120))
def test_marked_sampler_pairs_meet_as_the_checked_path_sizes_them(make, depth, seed, count):
    rep = make()
    xi = rep.vector((1, -2, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(parse_word(ZXZ, "b"))
    check_marked_sampler_meets_as_the_checked_path(staircase_cocycle(rep, xi, depth)[1], seed, count)


@pytest.mark.parametrize(
    "make, isometric",
    [(lambda: RegularRep(ZXZ, 1), True), (lambda: FiniteDimRep(ZXZ, *CRITERION_9_DIM3), False)],
    ids=["regular-l1", "criterion-9-unipotent"],
)
def test_meet_reads_what_the_walk_gives(make, isometric):
    # Criterion 9's depth-6 staircase; off an isometry the size of the merging
    # letters is not the size of the whole words, so a merge is refused.
    rep = make()
    xi = rep.vector((1, 0, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(IDENTITY)
    f = staircase_cocycle(rep, xi, depth=6)[1]
    assert f.action.is_isometry is isometric
    if not isometric:
        g, h = parse_word(ZXZ, "b a^2"), parse_word(ZXZ, "a^4 b")
        for size, convert in ((f.junction, Word), (f.meet, Word), (f.meet, list)):
            with pytest.raises(ValueError, match="isometric"):
                size(convert(g), convert(h))
        return
    for seed in (5, 6):
        check_meet_reads_what_the_walk_gives(f, seed)


def _oracle_split_qc(rep):
    """A split quasicocycle with rational values on a, a^3 and b (and their
    forced inverses), and words whose letters all lie off that support."""
    if isinstance(rep, RegularRep):
        ab, b_inv = parse_word(ZXZ, "a b"), parse_word(ZXZ, "b^-1")
        values_a = {1: rep.indicator(IDENTITY), 3: rep.vector({ab: Fraction(1, 2), b_inv: Fraction(-2, 3)})}
        values_b = {1: rep.vector({parse_word(ZXZ, "a"): Fraction(1, 3)})}
    else:
        pad = (0,) * (rep.dim - 2)
        values_a = {1: rep.vector((1, Fraction(-1, 3)) + pad), 3: rep.vector((0, 2) + pad)}
        values_b = {1: rep.vector((Fraction(1, 2), 1) + pad)}
    f = SplitQC(rep.splitting, rep, FactorCocycleMap(A, rep, values_a), FactorCocycleMap(B, rep, values_b))
    off = [Word(((A, 2),)), Word(((A, -5),))]
    if rep.splitting == ZXZ:
        off.append(parse_word(ZXZ, "a^2 b^3 a^-4 b^-2"))
    return f, off


ORACLE_ACTIONS = {
    "regular-l1": lambda: RegularRep(ZXZ, 1),
    "regular-l2": lambda: RegularRep(ZXZ, 2),
    "regular-linf": lambda: RegularRep(ZXZ, math.inf),
    "permutation": _permutation_rep,
    "rational": _rational_rep,
    "cyclic": _cyclic_rep,
}


@pytest.mark.parametrize("name", ORACLE_ACTIONS)
@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_numerator_evaluation_matches_the_fraction_oracle(name, seed):
    rep = ORACLE_ACTIONS[name]()
    f, off = _oracle_split_qc(rep)
    rng = random.Random(seed)
    words = [random_word(f.splitting, 7, 5, rng) for _ in range(6)] + off
    expected = [reference.value(f, g) for g in words]
    assert all(rep.is_zero(v) for v in expected[-len(off):])
    for memo in ("cold", "warm"):
        got = [eval_split_qc(f, g) for g in words]
        assert got == expected, memo
    if isinstance(rep, RegularRep):
        for g, v in zip(words, expected):
            eval_split_qc(f, g)[IDENTITY] = Fraction(7)
            assert eval_split_qc(f, g) == v


def test_a_zero_running_sum_restarts_over_the_map_denominator():
    # f(b) = -b.f(a), so the sum over "b a" is zero after b, whose matrix has
    # denominator 2; on "a^3 b a" only f(a^3) is left, over the map's own D.
    rep = _rational_rep()
    fa, fa3 = rep.vector([1, Fraction(-1, 3)]), rep.vector([0, 2])
    fb = rep.neg(rep.act(Word(((B, 1),)), fa))
    f = SplitQC(ZXZ, rep, FactorCocycleMap(A, rep, {1: fa, 3: fa3}), FactorCocycleMap(B, rep, {1: fb}))
    assert eval_split_qc(f, parse_word(ZXZ, "b a")) == rep.zero()
    g = parse_word(ZXZ, "a^3 b a")
    assert eval_split_qc(f, g) == fa3 == reference.value(f, g)


@given(st.integers(0, 2**32 - 1))
def test_inner_split_evaluation_telescopes(seed):
    for rep in (RegularRep(ZXZ, 1), RegularRep(ZXZ, 2), _matrix_rep(), _rational_rep()):
        v = (
            rep.indicator(parse_word(ZXZ, "a"))
            if isinstance(rep, RegularRep)
            else rep.vector([1, 2])
        )
        g = random_word(ZXZ, 6, 4, seed)
        assert rep.equal(inner_split_eval(rep, v, g), inner_cocycle(rep, v, g))


def test_witness_word_shapes():
    assert ladder_word(ZXZ, 2, 0) == IDENTITY
    assert ladder_word(ZXZ, 2, 2) == parse_word(ZXZ, "b a^2 b a^4")
    assert staircase_word(ZXZ, 0) == IDENTITY
    assert staircase_word(ZXZ, 3) == parse_word(ZXZ, "a b a^2 b a^3")


@pytest.mark.parametrize("p, control", [(2, 3), (3, 2), (5, 7)])
def test_power_ladder_grows_linearly_and_ignores_other_primes(p, control):
    rep = RegularRep(ZXZ, 1)
    v = rep.indicator(IDENTITY)
    fA, f = power_ladder_cocycle(rep, p, v, depth=5, check_prime=control)
    assert set(fA.support) == {p**i for i in range(1, 6)} | {-(p**i) for i in range(1, 6)}
    for n in range(6):
        assert eval_split_qc(f, ladder_word(ZXZ, p, n)) == rep.scale(Fraction(n), v)
        assert eval_split_qc(f, ladder_word(ZXZ, control, n)) == rep.zero()


def test_power_ladder_rejects_bad_parameters():
    rep = RegularRep(ZXZ, 1)
    v = rep.indicator(IDENTITY)
    with pytest.raises(ValueError):
        power_ladder_cocycle(rep, 4, v, depth=3)
    with pytest.raises(ValueError):
        power_ladder_cocycle(rep, 2, v, depth=0)
    with pytest.raises(ValueError):
        power_ladder_cocycle(rep, 2, v, depth=3, check_prime=2)
    with pytest.raises(ValueError):
        power_ladder_cocycle(rep, 2, v, depth=3, convention="suffix")


def test_literal_convention_is_a_working_negative_control():
    rep = RegularRep(ZXZ, 1)
    with pytest.raises(GrowthCheckError):
        power_ladder_cocycle(rep, 2, rep.indicator(IDENTITY), depth=4, convention="literal")
    assert issubclass(GrowthCheckError, RuntimeError)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 6))
def test_staircase_grows_linearly(depth):
    rep = RegularRep(ZXZ, 1)
    xi = rep.indicator(parse_word(ZXZ, "b"))
    fA, f = staircase_cocycle(rep, xi, depth)
    assert set(fA.support) == {n for n in range(1, depth + 1)} | {
        -n for n in range(1, depth + 1)
    }
    for n in range(depth + 1):
        assert eval_split_qc(f, staircase_word(ZXZ, n)) == rep.scale(Fraction(n), xi)


def test_mutating_a_returned_vector_leaves_the_map_unchanged():
    rep = RegularRep(ZXZ, 1)
    _, f = staircase_cocycle(rep, rep.indicator(IDENTITY), 2)
    a, b = Word(((A, 1),)), Word(((B, 1),))
    table = {x: dict(v) for x, v in f.fA.table.items()}
    for value in (lambda: eval_split_qc(f, a), lambda: f.fA(1), lambda: eval_split_qc(f, b), lambda: f.fB(1)):
        before = value()
        value()[IDENTITY] = Fraction(5)
        assert value() == before
    assert f.fA.table == table
    assert eval_split_qc(f, a) == {IDENTITY: 1}


def test_staircase_on_a_matrix_action():
    rep = _matrix_rep()
    xi = rep.vector([1, 0])
    _, f = staircase_cocycle(rep, xi, 4)
    for n in range(5):
        assert eval_split_qc(f, staircase_word(ZXZ, n)) == rep.scale(Fraction(n), xi)


def test_letter_matrices_are_memoized_matrix_powers(monkeypatch):
    # Each letter's matrix applied to the unit vectors, on a cold letter memo
    # and then a warm one: one matrix power per distinct letter.
    rep = _rational_rep()
    units = [rep.vector((1, 0)), rep.vector((0, 1))]
    powers = []
    monkeypatch.setattr(quasicocycles, "mat_pow", lambda m, k: powers.append(k) or mat_pow(m, k))
    letters = [(side, k) for side in (A, B) for k in range(-7, 8)]
    for _ in range(2):
        for letter in letters:
            g = Word((letter,))
            assert [rep.act(g, e) for e in units] == [reference.act(rep, g, e) for e in units]
    assert powers == [k for _, k in letters]


@pytest.mark.parametrize(
    "make",
    [
        lambda rep: staircase_cocycle(rep, rep.indicator(parse_word(ZXZ, "b")), 3)[1],
        lambda rep: power_ladder_cocycle(rep, 2, rep.indicator(IDENTITY), 2)[1],
    ],
)
def test_regular_qc_window_is_stable_under_widening(make):
    f = make(RegularRep(ZXZ, 1))
    assert split_qc_defect(f) == max(map(reference.defect, f.factor_maps)) > 0


@pytest.mark.parametrize(
    "xi, depth",
    [([1, 0, Fraction(-1, 2)], 2), ([1, 0, Fraction(-1, 2)], 4), ([1, -2, 0], 1), ([1, -2, 0], 3)],
)
def test_dense_qc_window_is_stable_under_widening(xi, depth):
    rep = _permutation_rep()
    _, f = staircase_cocycle(rep, rep.vector(xi), depth)
    assert split_qc_defect(f) == max(map(reference.defect, f.factor_maps)) > 0


def _hexagon():
    return FiniteMetric.from_length_function(CyclicGroup(6), [0, Fraction(1, 2), 1, 1, 1, Fraction(1, 2)])


def _regular_staircase():
    rep = RegularRep(ZXZ, 1)
    return staircase_cocycle(rep, rep.indicator(parse_word(ZXZ, "b")), 3)[1]


def _dense_staircase():
    rep = _permutation_rep()
    return staircase_cocycle(rep, rep.vector([1, -2, 0]), 3)[1]


def _small_regular():
    return RegularRep(Splitting(CyclicGroup(2), CyclicGroup(3)), 1)


TABLE_MAPS = {
    "regular-staircase": lambda: _regular_staircase().fA,
    "regular-empty": lambda: _regular_staircase().fB,
    "regular-ladder": lambda: power_ladder_cocycle(RegularRep(ZXZ, 1), 2, {IDENTITY: Fraction(1)}, 2)[0],
    "regular-cyclic": lambda: FactorCocycleMap(B, _small_regular(), {1: {IDENTITY: Fraction(1)}}),
    "permutation-staircase": lambda: _dense_staircase().fA,
    "qrep-cyclic": lambda: FactorQRMap(B, _hexagon(), CyclicGroup(3), {1: 1}),
    "qrep-empty": lambda: FactorQRMap(A, _hexagon(), CyclicGroup(2), {}),
    "qrep-integer": lambda: FactorQRMap(A, _hexagon(), IntegerGroup(), {2: 1, 3: 2}),
    # On Z/8 with support {3, 5}, both sent to the involution 3, the first
    # maximum is at (1, 2), where only xy = 3 lies on the support.
    "qrep-only-xy": lambda: FactorQRMap(A, _hexagon(), CyclicGroup(8), {3: 3}),
}


@pytest.mark.parametrize("name", TABLE_MAPS)
def test_defect_witness_skipping_off_support_pairs_matches_the_full_scan(name):
    q = TABLE_MAPS[name]()
    expected = reference.first_max(q)
    assert q.defect_witness() == expected
    if name == "qrep-only-xy":
        assert expected == (1, 1, 2)
    if not q.table:
        assert expected == (0, q.group.identity, q.group.identity)


RAW_CANCELLING = Word(((A, 1), (A, -1)))


def test_regular_vectors_normalise_their_keys():
    rep = RegularRep(ZXZ, 1)
    v = rep.vector({RAW_CANCELLING: 1, IDENTITY: 1})
    assert v == {IDENTITY: 2}
    assert rep.norm(rep.act(IDENTITY, v)) == rep.norm(v) == 2
    assert rep.is_zero(rep.vector({RAW_CANCELLING: 1, IDENTITY: -1}))
    assert rep.indicator(Word(((A, 0),))) == rep.indicator(IDENTITY)
    assert rep.indicator(Word(((A, 1), (B, 0), (A, 1)))) == rep.indicator(parse_word(ZXZ, "a^2"))
    for bad in ((A, 1.5), (A, True), ("C", 1)):
        with pytest.raises(ValueError):
            rep.indicator(Word((bad,)))


def test_factor_cocycle_map_validates_its_values():
    with pytest.raises(ValueError):
        FactorCocycleMap(A, _permutation_rep(), {1: (1, 2)})
    rep = RegularRep(ZXZ, 1)
    q = FactorCocycleMap(A, rep, {1: {RAW_CANCELLING: 1, IDENTITY: -1}})
    assert q.table == {}
    assert q.defect() == 0
    q = FactorCocycleMap(A, rep, {1: {RAW_CANCELLING: 1, IDENTITY: 2}})
    assert q(1) == {IDENTITY: 3}


SCAN_ACTIONS = {
    "regular-l1": lambda: RegularRep(ZXZ, 1),
    "regular-l2": lambda: RegularRep(ZXZ, 2),
    "regular-linf": lambda: RegularRep(ZXZ, math.inf),
    "permutation": _permutation_rep,
    "signed-permutation": lambda: FiniteDimRep(ZXZ, *SIGNED_PERMUTATION),
    "rational": _rational_rep,
    "cyclic": _cyclic_rep,
}

_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _random_cocycle_map(draw, rep):
    """An alternating factor cocycle map with one to three random values; the
    regular ones have unreduced keys, so values may merge or cancel."""
    side = draw(st.sampled_from((A, B)))
    group = rep.splitting.factor(side)
    support = (1,) if group.is_finite else (1, 2, 3)
    values = {}
    for x in draw(st.lists(st.sampled_from(support), min_size=1, max_size=3, unique=True)):
        if isinstance(rep, RegularRep):
            letters = st.tuples(st.sampled_from((A, B)), st.integers(-2, 2))
            keys = st.lists(letters, max_size=3).map(lambda raw: Word(tuple(raw)))
            values[x] = draw(st.dictionaries(keys, _small_fractions, min_size=1, max_size=3))
        else:
            values[x] = draw(st.lists(_small_fractions, min_size=rep.dim, max_size=rep.dim))
    return FactorCocycleMap(side, rep, values)


@pytest.mark.parametrize("name", SCAN_ACTIONS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_integer_scan_matches_the_fraction_oracle(name, data):
    # Every window pair, met as two one-letter words, has its reference size.
    q = _random_cocycle_map(data.draw, SCAN_ACTIONS[name]())
    rep, side = q.action, q.side
    empty = FactorCocycleMap(B if side == A else A, rep, {})
    f = SplitQC(rep.splitting, rep, *((q, empty) if side == A else (empty, q)))
    if not q.is_isometry:
        for refused in (q.defect_witness, lambda: f.junction(Word(((side, 1),)), Word(((side, 1),)))):
            with pytest.raises(ValueError, match="isometric"):
                refused()
        return
    window = range(-q.defect_window(), q.defect_window() + 1)
    for x in window:
        for y in window:
            size = f.size_value(*f.junction(Word(((side, x),)), Word(((side, y),))))
            assert size == reference.coboundary_size(q, x, y)
    assert q.defect_witness() == reference.first_max(q)
    assert q.defect() == reference.defect(q)


CRITERION_9_DIM3 = (((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)))


@pytest.mark.parametrize(
    "make, witness",
    [
        (lambda: FiniteDimRep(ZXZ, *CRITERION_9_DIM3), None),
        (lambda: RegularRep(ZXZ, 1), (Fraction(3), -6, 1)),
        (lambda: RegularRep(ZXZ, 2), (1.7320508075688772, -6, 1)),
    ],
)
def test_criterion_9_staircase_defects_are_pinned(make, witness):
    # Criterion 9's depth-6 staircases, with values recorded from the
    # Fraction scan that built one vector-valued coboundary per pair.  The
    # unipotent action is no isometry, so no defect is certified there.
    rep = make()
    seed = rep.vector((1, 0, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(IDENTITY)
    _, f = staircase_cocycle(rep, seed, depth=6)
    if witness is None:
        for refused in (f.fA.defect_witness, f.fB.defect_witness, lambda: split_qc_defect(f)):
            with pytest.raises(ValueError, match="isometric"):
                refused()
        return
    assert f.fA.defect_witness() == witness
    assert f.fB.defect_witness() == (0, 0, 0)
    defect = split_qc_defect(f)
    assert defect == witness[0] and type(defect) is type(witness[0])


_S3_PERMS = list(itertools.permutations(range(3)))
S3 = FiniteTableGroup.from_mul(6, lambda x, y: _S3_PERMS.index(tuple(_S3_PERMS[x][i] for i in _S3_PERMS[y])))
SCAN_FACTORS = {"Z": IntegerGroup(), "Z/6": CyclicGroup(6), "S3": S3}


def _scan_support(draw, group):
    """Distinct elements none of which is the inverse of another or of itself,
    so that any values on them are alternating."""
    if group.is_finite:
        candidates = inverse_pairs(group)[1]
        return draw(st.lists(st.sampled_from(candidates), max_size=len(candidates), unique=True))
    radii = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
    return [draw(st.sampled_from((k, -k))) for k in radii]


def _regular_case(p, factor):
    def build(draw):
        s = Splitting(SCAN_FACTORS[factor], IntegerGroup())
        rep = RegularRep(s, p)
        element = st.integers(-2, 2) if factor == "Z" else st.integers(0, 5)
        letters = st.one_of(st.tuples(st.just(A), element), st.tuples(st.just(B), st.integers(-2, 2)))
        keys = st.lists(letters, max_size=3).map(lambda raw: Word(tuple(raw)))
        pool = draw(st.lists(st.dictionaries(keys, _small_fractions, min_size=1, max_size=3), min_size=1, max_size=2))
        support = _scan_support(draw, s.A)
        return FactorCocycleMap(A, rep, {x: draw(st.sampled_from(pool)) for x in support})
    return build


def _dense_case(mats, s=ZXZ):
    def build(draw):
        rep = FiniteDimRep(s, *mats)
        pool = draw(st.lists(st.lists(_small_fractions, min_size=3, max_size=3), min_size=1, max_size=2))
        return FactorCocycleMap(A, rep, {x: draw(st.sampled_from(pool)) for x in _scan_support(draw, s.A)})
    return build


def _qrep_case(target, factor, values):
    def build(draw):
        group = SCAN_FACTORS[factor]
        pool = draw(st.lists(values, min_size=1, max_size=2))
        return FactorQRMap(A, target, group, {x: draw(st.sampled_from(pool)) for x in _scan_support(draw, group)})
    return build


SUPPORT_SCAN_CASES = {
    **{f"regular-{p}-{factor}": _regular_case(p, factor) for p in (1, 2, math.inf) for factor in SCAN_FACTORS},
    "permutation": _dense_case((((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))),
    "signed-permutation": _dense_case(SIGNED_PERMUTATION),
    # A 3-cycle on Z/3, so the pruned dense scan runs on a finite factor.
    "cyclic-permutation": _dense_case(
        (((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
        Splitting(CyclicGroup(3), IntegerGroup()),
    ),
    **{f"hexagon-{factor}": _qrep_case(_hexagon(), factor, st.integers(0, 5)) for factor in SCAN_FACTORS},
    **{f"circle-{factor}": _qrep_case(Circle(), factor, st.integers(0, 11).map(lambda k: Fraction(k, 12)))
       for factor in ("Z", "Z/6")},
}


@pytest.mark.parametrize("name", SUPPORT_SCAN_CASES)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_support_scan_matches_the_pair_loop(name, data):
    # Values come from a pool of one or two, so maxima tie, and the support
    # may be empty.
    q = SUPPORT_SCAN_CASES[name](data.draw)
    got, expected = q.defect_witness(), reference.first_max(q)
    assert got == expected and type(got[0]) is type(expected[0])
    if not q.table:
        assert got == (0, q.group.identity, q.group.identity)


def coboundary_orbit(group, x, y):
    """(x, y) and the five pairs that share its size on an isometry, z = (xy)^-1."""
    inv = group.inv
    z = inv(group.mul(x, y))
    return [(x, y), (y, z), (z, x), (inv(y), inv(x)), (inv(x), inv(z)), (inv(z), inv(y))]


@pytest.mark.parametrize("name", SUPPORT_SCAN_CASES)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_coboundary_orbits_have_one_size_on_isometries(name, data):
    # On Z the pair is drawn from twice the window, so members such as
    # (y, (xy)^-1) often lie outside it.
    q = SUPPORT_SCAN_CASES[name](data.draw)
    assert q.is_isometry
    group = q.group
    if group.is_finite:
        element = st.sampled_from(list(group.elements()))
    else:
        element = st.integers(-2 * q.defect_window(), 2 * q.defect_window())
    x, y = data.draw(element), data.draw(element)
    sizes = {reference.coboundary_size(q, a, b) for a, b in coboundary_orbit(group, x, y)}
    assert len(sizes) == 1


@pytest.mark.parametrize("name", SUPPORT_SCAN_CASES)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_the_scan_sizes_support_rows_whatever_the_window(name, data):
    # Rows are x in T, and on Z the columns are T too; widening the window
    # changes no pair sized and no defect.
    q = SUPPORT_SCAN_CASES[name](data.draw)
    size = q.pair_sizer()

    def scan():
        sized = []
        q.pair_sizer = lambda: lambda x, y, xy: sized.append((x, y)) or size(x, y, xy)
        return q.defect_witness()[0], sized

    defect, sized = scan()
    assert all(x in q.table and (q.group.is_finite or y in q.table) for x, y in sized)
    window = q.defect_window()
    q.defect_window = lambda: 4 * window
    assert scan() == (defect, sized)


@pytest.mark.parametrize(
    "p, depth, witness", [(5, 3, (2, -250, 125)), (5, 5, (2, -6250, 3125)), (3, 8, (2, -13122, 6561))]
)
def test_prime_ladders_of_large_radius_keep_their_witness(p, depth, witness):
    # Support radius p^depth: 125, 3125 and 6561.  The reference checks the
    # smallest; the larger two were recorded from a full window scan.
    rep = RegularRep(ZXZ, 1)
    fA = power_ladder_cocycle(rep, p, rep.indicator(IDENTITY), depth)[0]
    assert fA.defect_witness() == witness
    if depth == 3:
        assert reference.first_max(fA) == witness


def test_the_unipotent_staircase_refuses_sampling_but_evaluates():
    # Criterion 9's action is no isometry: sampled_defect raises before its
    # first draw, and the growth constructions and evaluations still work.
    rep = FiniteDimRep(ZXZ, *CRITERION_9_DIM3)
    v = rep.vector((1, 0, 0))
    _, f = staircase_cocycle(rep, v, depth=6)
    assert not f.is_isometry
    rng = random.Random(0)
    marked = word_sampler(ZXZ, 5, 3, rng)
    for sampler in (marked, lambda: marked()):
        with pytest.raises(ValueError, match="isometric"):
            sampled_defect(f, sampler, 10)
    assert rng.getstate() == random.Random(0).getstate()
    assert eval_split_qc(f, staircase_word(ZXZ, 6)) == rep.scale(Fraction(6), v)
    _, ladder = power_ladder_cocycle(rep, 2, v, depth=6, check_prime=3)
    assert eval_split_qc(ladder, ladder_word(ZXZ, 2, 6)) == rep.scale(Fraction(6), v)
    g = parse_word(ZXZ, "a^2 b a^-1 b^3")
    assert inner_split_eval(rep, v, g) == inner_cocycle(rep, v, g)


def test_the_unipotent_action_breaks_the_orbit_rule():
    # Criterion 9's depth-6 staircase: the first maximum and its mirror pair
    # (y^-1, x^-1) differ, so the scan must not skip mirrors there.
    rep = FiniteDimRep(ZXZ, *CRITERION_9_DIM3)
    q = staircase_cocycle(rep, rep.vector((1, 0, 0)), depth=6)[0]
    assert not q.is_isometry
    assert (6, 18) in coboundary_orbit(q.group, -18, -6)
    assert reference.coboundary_size(q, -18, -6) == 100108
    assert reference.coboundary_size(q, 6, 18) == 960


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: RegularRep(ZXZ, 1), True),
        (lambda: RegularRep(ZXZ, 2), True),
        (lambda: RegularRep(ZXZ, math.inf), True),
        (_permutation_rep, True),
        (lambda: FiniteDimRep(ZXZ, *SIGNED_PERMUTATION), True),
        (lambda: FiniteDimRep(ZXZ, *CRITERION_9_DIM3), False),
        (lambda: FiniteDimRep(ZXZ, ((0, 2), (2, 0)), FLIP), False),
        # An l2 isometry that stretches (1, 1) in the sup norm.
        (lambda: FiniteDimRep(ZXZ, ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))), FLIP), False),
    ],
    ids=["regular-l1", "regular-l2", "regular-linf", "permutation", "signed-permutation", "unipotent",
         "scaled-permutation", "rotation"],
)
def test_actions_say_whether_they_are_isometries(make, expected):
    rep = make()
    assert rep.is_isometry is expected
    vector = rep.vector([1] + [0] * (rep.dim - 1)) if isinstance(rep, FiniteDimRep) else rep.indicator(IDENTITY)
    assert FactorCocycleMap(A, rep, {1: vector}).is_isometry is expected


def test_tied_maxima_keep_the_first_pair_in_window_order():
    # Both values are the involution 3 at distance 1, the hexagon's diameter,
    # so the first pair with an entry attains the defect: in row -10 of the
    # window, y = -2 comes first, with its entry alone, and y = -1 ties.
    q = FactorQRMap(A, _hexagon(), IntegerGroup(), {1: 3, 2: 3})
    assert q.defect_witness() == reference.first_max(q) == (1, -10, -2)
    assert reference.coboundary_size(q, -10, -1) == 1
    assert FactorQRMap(A, _hexagon(), S3, {}).defect_witness() == (0, S3.identity, S3.identity)


def _literal_ladder(rep, v, p, depth):
    """The ladder map of the literal convention, built without its growth
    check, which it fails."""
    letters = ladder_word(ZXZ, p, depth).letters
    values = {}
    for i, (side, x) in enumerate(letters):
        if side == A:
            prefix = reference.normal_form(ZXZ, letters[i - 1 : i] + letters[: i - 1])
            values[x] = reference.act(rep, reference.inverse(ZXZ, prefix), v)
    return SplitQC(ZXZ, rep, FactorCocycleMap(A, rep, values), FactorCocycleMap(B, rep, {}))


GROWTH_CASES = {
    # Letter matrices with denominators d = 2 and d = 4 on b and b^2.
    "rational-staircase": lambda: (_rational_rep(), (1, Fraction(-1, 3)), staircase_cocycle),
    "permutation-staircase": lambda: (_permutation_rep(), (Fraction(1, 2), 0, -2), staircase_cocycle),
    "regular-staircase": lambda: (RegularRep(ZXZ, 2), {parse_word(ZXZ, "b"): Fraction(2, 3)}, staircase_cocycle),
    "zero-seed": lambda: (_rational_rep(), (0, 0), staircase_cocycle),
    "zero-seed-regular": lambda: (RegularRep(ZXZ, 1), {}, staircase_cocycle),
    "literal-ladder": lambda: (RegularRep(ZXZ, 1), {IDENTITY: 1}, None),
    "literal-ladder-rational": lambda: (_rational_rep(), (2, Fraction(1, 5)), None),
}


@pytest.mark.parametrize("name", GROWTH_CASES)
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_numerator_growth_check_matches_the_fraction_check(name, seed):
    rep, raw, build = GROWTH_CASES[name]()
    v = rep.vector(raw)
    if build is None:
        f, grown = _literal_ladder(rep, v, 2, 4), [ladder_word(ZXZ, 2, n) for n in range(5)]
    else:
        f, grown = build(rep, v, 4)[1], [staircase_word(ZXZ, n) for n in range(5)]
    den = rep.denominator(v)
    nums = rep.numerators(v, den)
    rng = random.Random(seed)
    for g in grown + [random_word(ZXZ, 6, 4, rng) for _ in range(3)]:
        for n in range(-1, 6):
            assert _is_multiple(f, g, n, nums, den) == (reference.value(f, g) == reference.combine(rep, (n, v)))


def test_the_literal_ladder_fails_where_the_fraction_check_does():
    rep = RegularRep(ZXZ, 1)
    v = rep.indicator(IDENTITY)
    f = _literal_ladder(rep, v, 2, 4)
    passed = [reference.value(f, ladder_word(ZXZ, 2, n)) == reference.combine(rep, (n, v)) for n in range(5)]
    first = passed.index(False)
    with pytest.raises(GrowthCheckError, match=f"^ladder evaluation at depth {first} is not {first} times the seed"):
        power_ladder_cocycle(rep, 2, v, depth=4, convention="literal")
