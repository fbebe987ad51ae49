"""Module actions, split quasicocycles, and the ladder/staircase witnesses."""

import math
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
from splitqm.words import A, B, IDENTITY, Splitting, Word, multiply, parse_word, random_word

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


def _qc_window(q):
    return 2 * (q.support_radius + 3)


def _scan_qc_defect(f, reach):
    """Max coboundary norm over |x|, |y| <= reach(q) on each factor."""
    worst = Fraction(0)
    for q in (f.fA, f.fB):
        r = reach(q)
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                worst = max(worst, f.action.norm(q.coboundary(x, y)))
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


@pytest.mark.parametrize("bad", [(B, 7), (A, True), (A, 1.0), ("C", 1), (A, 1.5)])
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
    assert rep.norm(v, which="l1") == 7
    assert rep.norm(v, which="l2") == pytest.approx(5.0)
    with pytest.raises(ValueError):
        rep.norm(v, which="l7")


@given(st.integers(0, 2**32 - 1))
def test_regular_rep_translation_is_an_isometry(seed):
    rep = RegularRep(ZXZ, 1)
    g = random_word(ZXZ, 4, 3, seed)
    h = random_word(ZXZ, 4, 3, seed + 1)
    v = rep.add(rep.indicator(h), rep.indicator(IDENTITY, Fraction(-1, 3)))
    assert rep.act(g, v) == {multiply(ZXZ, g, w): c for w, c in v.items()}
    assert rep.norm(rep.act(g, v)) == rep.norm(v)


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
    with pytest.raises(ValueError):
        RegularRep(ZXZ, 0)


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
            first = rep.letter_matrix(side, k)
            assert first == mat_pow(rep.mat[side], k)
            assert rep.letter_matrix(side, k) is first


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
            value = q.coboundary_size(x, y)
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
