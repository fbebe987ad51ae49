"""Module actions, split quasicocycles, and the ladder/staircase witnesses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.groups import CyclicGroup, IntegerGroup
from splitqm.qrep import FactorQRMap, FiniteMetric
from splitqm.quasicocycles import (
    FactorCocycleMap,
    FiniteDimRep,
    GrowthCheckError,
    RegularRep,
    SplitQC,
    eval_split_qc,
    identity_matrix,
    inner_cocycle,
    inner_split_eval,
    ladder_word,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    power_ladder_cocycle,
    qc_coboundary,
    split_qc_defect,
    staircase_cocycle,
    staircase_word,
)
from splitqm.quasimorphisms import default_sampler, junction_pairs
from splitqm.words import A, B, IDENTITY, Splitting, Word, multiply, parse_word, random_word, reduce

ZXZ = Splitting(IntegerGroup(), IntegerGroup())

SHEAR = ((1, 1), (0, 1))
FLIP = ((0, 1), (1, 0))


def _matrix_rep():
    return FiniteDimRep(ZXZ, SHEAR, FLIP)


def _permutation_rep():
    # Permutation matrices act by sup-norm isometries, so the certified
    # window applies (the shear above is not an isometry).
    return FiniteDimRep(ZXZ, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))


def _rational_rep():
    # Non-integral generators and inverses, so letter matrices carry denominators.
    return FiniteDimRep(ZXZ, ((2, 1), (1, 1)), ((Fraction(1, 2), 0), (0, 2)))


def _cyclic_rep():
    # The second factor is Z/3, acting by a rotation of order 3.
    return FiniteDimRep(Splitting(IntegerGroup(), CyclicGroup(3)), SHEAR, ((0, -1), (1, -1)))


def word_matrix_act(rep, g, v):
    """g.v as the product of uncached letter powers, applied to v once."""
    m = identity_matrix(rep.dim)
    for side, k in g.letters:
        m = mat_mul(m, mat_pow(rep.mat[side], k))
    return mat_vec(m, v)


def translate(rep, g, v):
    """g.v without ``rep.act``."""
    if isinstance(rep, RegularRep):
        return {multiply(rep.splitting, g, w): c for w, c in v.items()}
    return word_matrix_act(rep, g, v)


def cocycle_coboundary(q, x, y):
    """f(x) + x.f(y) - f(xy) of a factor cocycle map on Fractions: the
    definition the integer scan is tested against."""
    m = q.action
    fy = q(y)
    translated = fy if m.is_zero(fy) else m.act(Word(((q.side, x),)), fy)
    return m.sub(m.add(q(x), translated), q(q.group.mul(x, y)))


def coboundary_size(q, x, y):
    """How far (x, y) is from the cocycle or homomorphism identity."""
    if isinstance(q, FactorQRMap):
        return q.coboundary_size(x, y)
    return q.action.norm(cocycle_coboundary(q, x, y))


def letter_matrix(rep, side, k):
    """The Fraction matrix of the letter (side, k), from its memo entry."""
    rows, d = rep._letter(side, k)
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def _qc_window(q):
    return 2 * (q.support_radius + 3)


def _scan_qc_defect(f, reach):
    """Max coboundary norm over |x|, |y| <= reach(q) on each factor."""
    worst = Fraction(0)
    for q in (f.fA, f.fB):
        r = reach(q)
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                worst = max(worst, f.action.norm(cocycle_coboundary(q, x, y)))
    return worst


def test_matrix_helpers():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    assert mat_mul(m, mat_inv(m)) == identity_matrix(2)
    assert mat_pow(m, 0) == identity_matrix(2)
    assert mat_pow(m, 3) == mat_mul(m, mat_mul(m, m))
    assert mat_pow(m, -2) == mat_inv(mat_mul(m, m))
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
        assert rep.act(g, v) == word_matrix_act(rep, g, v)
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


@given(st.integers(0, 2**32 - 1))
def test_regular_rep_translation_is_an_isometry(seed):
    rep = RegularRep(ZXZ, 1)
    g = random_word(ZXZ, 4, 3, seed)
    h = random_word(ZXZ, 4, 3, seed + 1)
    v = rep.add(rep.indicator(h), rep.indicator(IDENTITY, Fraction(-1, 3)))
    assert rep.act(g, v) == {multiply(ZXZ, g, w): c for w, c in v.items()}
    assert rep.norm(rep.act(g, v)) == rep.norm(v)


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
        expected = rep.zero()
        for i, (side, x) in enumerate(g.letters):
            value = f.factor_map(side)(x)
            expected = rep.add(expected, translate(rep, Word(g.letters[:i]), value))
        assert eval_split_qc(f, g) == expected


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
    worst = max(rep.norm(qc_coboundary(f, g, h)) for g, h in pairs)
    assert worst == split_qc_defect(f) > 0


@given(st.integers(0, 2**32 - 1))
def test_inner_split_evaluation_telescopes(seed):
    for rep in (RegularRep(ZXZ, 1), _matrix_rep()):
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


def test_staircase_on_a_matrix_action():
    rep = _matrix_rep()
    xi = rep.vector([1, 0])
    _, f = staircase_cocycle(rep, xi, 4)
    for n in range(5):
        assert eval_split_qc(f, staircase_word(ZXZ, n)) == rep.scale(Fraction(n), xi)


def test_letter_matrices_are_memoized_matrix_powers():
    rep = _permutation_rep()
    for side in (A, B):
        for k in range(-7, 8):
            first = rep._letter(side, k)
            assert letter_matrix(rep, side, k) == mat_pow(rep.mat[side], k)
            assert rep._letter(side, k) is first


@pytest.mark.parametrize("depth", [1, 3])
def test_dense_qc_defect_matches_uncached_brute_force(depth):
    rep = _permutation_rep()
    _, f = staircase_cocycle(rep, rep.vector([1, -2, 0]), depth)
    zero = rep.zero()
    worst = Fraction(0)
    for side, q in ((A, f.fA), (B, f.fB)):
        window = _qc_window(q)
        for x in range(-window, window + 1):
            for y in range(-window, window + 1):
                translated = mat_vec(mat_pow(rep.mat[side], x), q.table.get(y, zero))
                value = rep.sub(rep.add(q.table.get(x, zero), translated), q.table.get(x + y, zero))
                worst = max(worst, rep.norm(value))
    assert split_qc_defect(f) == worst > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda rep: staircase_cocycle(rep, rep.indicator(parse_word(ZXZ, "b")), 3)[1],
        lambda rep: power_ladder_cocycle(rep, 2, rep.indicator(IDENTITY), 2)[1],
    ],
)
def test_regular_qc_window_is_stable_under_widening(make):
    f = make(RegularRep(ZXZ, 1))
    defect = split_qc_defect(f)
    assert defect == _scan_qc_defect(f, lambda q: 2 * _qc_window(q)) > 0


@pytest.mark.parametrize("depth", [2, 4])
def test_dense_qc_window_is_stable_under_widening(depth):
    rep = _permutation_rep()
    _, f = staircase_cocycle(rep, rep.vector([1, 0, Fraction(-1, 2)]), depth)
    defect = split_qc_defect(f)
    assert defect == _scan_qc_defect(f, lambda q: 2 * _qc_window(q)) > 0


def full_scan_defect_witness(q):
    """Every window pair, none skipped: the defect and the first pair
    attaining it in x-outer, y-inner order."""
    window = q.group.window(q.defect_window())
    best = (Fraction(0), q.group.identity, q.group.identity)
    for x in window:
        for y in window:
            value = coboundary_size(q, x, y)
            if value > best[0]:
                best = (value, x, y)
    return best


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
    expected = full_scan_defect_witness(q)
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
    # full_scan_defect_witness measures cocycle_coboundary with action.norm
    # on every window pair: the slow exact definition.
    q = _random_cocycle_map(data.draw, SCAN_ACTIONS[name]())
    size = q.pair_sizer()
    window = q.group.window(q.defect_window())
    for x in window:
        for y in window:
            assert q.size_value(*size(x, y, q.group.mul(x, y))) == coboundary_size(q, x, y)
    assert q.defect_witness() == full_scan_defect_witness(q)


CRITERION_9_DIM3 = (((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)))


@pytest.mark.parametrize(
    "make, witness",
    [
        (lambda: FiniteDimRep(ZXZ, *CRITERION_9_DIM3), (Fraction(100108), -18, -6)),
        (lambda: RegularRep(ZXZ, 1), (Fraction(3), -6, 1)),
        (lambda: RegularRep(ZXZ, 2), (1.7320508075688772, -6, 1)),
    ],
)
def test_criterion_9_staircase_defects_are_pinned(make, witness):
    # Criterion 9's depth-6 staircases, with values recorded from the
    # Fraction scan that built one vector-valued coboundary per pair.
    rep = make()
    seed = rep.vector((1, 0, 0)) if isinstance(rep, FiniteDimRep) else rep.indicator(IDENTITY)
    _, f = staircase_cocycle(rep, seed, depth=6)
    assert f.fA.defect_witness() == witness
    assert f.fB.defect_witness() == (0, 0, 0)
    defect = split_qc_defect(f)
    assert defect == witness[0] and type(defect) is type(witness[0])
