"""Quasi-representations: metric targets, defects, and witness searches."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup
from splitqm.qrep import (
    Circle,
    FactorHom,
    FactorQRMap,
    FiniteMetric,
    MetricGroup,
    SplitHom,
    SplitQRep,
    check_no_small_subgroups,
    enumerate_factor_homs,
    enumerate_factor_qr_maps,
    enumerate_split_qr_maps,
    eval_qrep,
    nontriviality_witness,
    qrep_defect,
    qrep_delta,
    qrep_sampled_defect,
    witnesses_against_homs,
)
from splitqm.quasicocycles import FactorCocycleMap, RegularRep, eval_split_qc, staircase_cocycle
from splitqm.quasimorphisms import FactorQM, SplitQM, eval_split, homogenize_eval, junction_pairs, sampled_defect
from splitqm.words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    parse_word,
    random_word,
    word_sampler,
)

import reference
from sampled_pairs import (
    check_joins_as_multiply_does,
    check_marked_sampler_meets_as_the_checked_path,
    check_meet_reads_what_the_walk_gives,
    check_shared_junctions_size_as_the_whole_words,
)

C2 = CyclicGroup(2)
C3 = CyclicGroup(3)
C6 = CyclicGroup(6)
HEX_LENGTHS = [0, Fraction(1, 2), 1, 1, 1, Fraction(1, 2)]


def _hex_metric():
    return FiniteMetric.from_length_function(C6, HEX_LENGTHS)


def test_length_function_builds_a_bi_invariant_metric():
    target = _hex_metric()
    assert target.dist(0, 1) == Fraction(1, 2)
    assert target.dist(1, 3) == 1  # d(1, 3) = length(2)
    for x in target.elements():
        for y in target.elements():
            assert target.dist(x, y) == target.dist(0, C6.mul(C6.inv(x), y))


def test_length_function_validation():
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(C6, [0, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(C6, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(C6, [0, 0, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(C6, [0, 1, 1, 1, 1, 2])
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(C6, [0, 1, 3, 1, 1, 1])
    with pytest.raises(ValueError):
        FiniteMetric.from_length_function(IntegerGroup(), [0, 1])


def test_metric_matrix_validation():
    FiniteMetric(C2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMetric(C2, [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        FiniteMetric(C2, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        FiniteMetric(C3, [[0, 1, 1], [1, 0, 2], [1, 2, 0]])


def test_circle_arithmetic_is_exact():
    circle = Circle()
    assert circle.turn(Fraction(5, 4)) == Fraction(1, 4)
    assert circle.mul(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)
    assert circle.inv(Fraction(1, 3)) == Fraction(2, 3)
    assert circle.power(Fraction(1, 6), 9) == Fraction(1, 2)
    assert circle.dist(Fraction(0), Fraction(3, 4)) == Fraction(1, 4)
    assert circle.dist(Fraction(0), Fraction(1, 2)) == Fraction(1, 2)
    assert circle.dist(Fraction(1, 10), Fraction(9, 10)) == Fraction(1, 5)
    assert circle.equal(circle.mul(Fraction(1, 3), Fraction(2, 3)), Fraction(0))
    assert not circle.equal(Fraction(0), Fraction(1, 10**9))


class _SquaringCircle(MetricGroup):
    """The circle with ``MetricGroup``'s own power and product."""

    identity = Fraction(0)
    mul, inv, dist = Circle.mul, Circle.inv, Circle.dist


def test_default_power_and_product_match_the_circle():
    circle, squaring = Circle(), _SquaringCircle()
    for x in (Fraction(0), Fraction(1, 2), Fraction(2, 7), Fraction(5, 6)):
        for n in range(-9, 10):
            assert squaring.power(x, n) == circle.power(x, n)
    turns = [Fraction(1, 3), Fraction(3, 4), Fraction(5, 12)]
    assert squaring.product(turns) == Fraction(1, 2)
    assert squaring.product([]) == squaring.identity


def test_factor_qr_map_forces_inverses():
    target = _hex_metric()
    mu = FactorQRMap(B, target, C3, {1: 1})
    assert mu(2) == 5  # inv(1) in the target
    assert mu.is_isometry  # the target's metric is bi-invariant
    assert mu.support == (1, 2)
    assert mu.sup_norm() == Fraction(1, 2)
    with pytest.raises(ValueError):
        FactorQRMap(B, target, C3, {1: 1, 2: 1})
    with pytest.raises(ValueError):
        FactorQRMap(B, target, C3, {0: 1})
    # An involution must map to a self-inverse target element.
    FactorQRMap(A, target, C2, {1: 3})
    with pytest.raises(ValueError):
        FactorQRMap(A, target, C2, {1: 1})


def test_an_explicit_identity_value_must_match_the_forced_one():
    # mu(1) = 2 forces mu(-1) = 4, so an explicit identity at -1 breaks
    # alternation, like any other clash.
    target = _hex_metric()
    for clash in (0, 5):
        with pytest.raises(ValueError, match="map breaks alternation"):
            FactorQRMap(A, target, IntegerGroup(), {1: 2, -1: clash})
        with pytest.raises(ValueError, match="map breaks alternation"):
            FactorQRMap(A, target, IntegerGroup(), {-1: clash, 1: 2})
    assert FactorQRMap(A, target, IntegerGroup(), {1: 2, -1: 4}).table == {1: 2, -1: 4}
    assert FactorQRMap(A, target, IntegerGroup(), {1: 0, -1: 0}).table == {}


@pytest.mark.parametrize(
    "make",
    [
        lambda: FactorQRMap(B, _hex_metric(), C3, {1: 1}),
        lambda: FactorCocycleMap(B, RegularRep(Splitting(C2, C3), 1), {1: {IDENTITY: 1}}),
    ],
    ids=["qrep", "cocycle"],
)
def test_factor_qr_map_defect_witness_attains(make):
    # Both kinds of factor table map share one certificate; its pair must
    # attain the reported defect under the reference coboundary.
    q = make()
    value, x, y = q.defect_witness()
    assert reference.coboundary_size(q, x, y) == value == q.defect() > 0


def _qrep_fixture(mu_b_image=1):
    splitting = Splitting(C2, C3)
    target = _hex_metric()
    muA = FactorQRMap(A, target, C2, {})
    muB = FactorQRMap(B, target, C3, {1: mu_b_image})
    return SplitQRep(splitting, target, muA, muB), target


def test_split_qrep_validates_its_parts():
    mu, target = _qrep_fixture()
    with pytest.raises(ValueError):
        SplitQRep(mu.splitting, target, mu.muB, mu.muA)
    other_target = _hex_metric()
    with pytest.raises(ValueError):
        SplitQRep(mu.splitting, other_target, mu.muA, mu.muB)


def test_split_hom_validates_its_parts():
    s, target = Splitting(C2, C3), _hex_metric()
    hA = FactorHom(A, C2, target, generator_image=3)
    hB = FactorHom(B, C3, target, generator_image=2)
    assert SplitHom(s, target, hA, hB)(Word(((A, 1),))) == 3
    with pytest.raises(ValueError):
        SplitHom(s, target, hB, hA)
    with pytest.raises(ValueError):  # a factor hom on a group outside the splitting
        SplitHom(s, target, FactorHom(A, C3, target, generator_image=2), hB)
    with pytest.raises(ValueError):
        SplitHom(s, _hex_metric(), hA, hB)


def test_a_split_hom_sizes_every_pair_zero():
    # A homomorphism's coboundary vanishes, so each merging pair has size (0, 1).
    s = Splitting(C2, C3)
    target = FiniteMetric.from_length_function(C6, [0, 1, 1, 1, 1, 1])
    h = SplitHom(s, target, FactorHom(A, C2, target, generator_image=3), FactorHom(B, C3, target, generator_image=2))
    b = parse_word(s, "b")
    assert h.junction(b, b) == (0, 1)
    for side, group in ((A, C2), (B, C3)):
        for x in range(1, group.n):
            for y in range(1, group.n):
                assert h.junction(Word(((side, x),)), Word(((side, y),))) == (0, 1)
    assert sampled_defect(h, word_sampler(s, 4, 4, 1), 50) == 0
    for seed in (1, 2):
        check_meet_reads_what_the_walk_gives(h, seed)
        check_shared_junctions_size_as_the_whole_words(h, seed)


def test_a_split_hom_has_defect_zero_and_no_junction_pair():
    s = Splitting(C2, C3)
    target = FiniteMetric.from_length_function(C6, [0, 1, 1, 1, 1, 1])
    h = SplitHom(s, target, FactorHom(A, C2, target, generator_image=3), FactorHom(B, C3, target, generator_image=2))
    assert h.defect() == qrep_defect(h) == 0
    assert h.hA.defect_witness() == (0, 0, 0) and h.hB.defect_witness() == (0, 0, 0)
    assert junction_pairs(h) == []
    assert qrep_sampled_defect(h, word_sampler(s, 4, 4, 1), 5) == 0


def _sign_split_map():
    s = Splitting(IntegerGroup(), IntegerGroup())
    return SplitQM(s, FactorQM(s.A, sign_coeff=1), FactorQM(s.B, sign_coeff=2))


def _staircase_split_map():
    rep = RegularRep(Splitting(IntegerGroup(), IntegerGroup()), 1)
    return staircase_cocycle(rep, rep.indicator(IDENTITY), 3)[1]


def _rho():
    mu, target = _qrep_fixture()
    hA = FactorHom(A, C2, target, generator_image=3)
    return SplitHom(mu.splitting, target, hA, FactorHom(B, C3, target, generator_image=2))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda g: eval_split(_sign_split_map(), g),
        lambda g: homogenize_eval(_sign_split_map(), Word(g.letters + ((A, 1),))),
        lambda g: eval_split_qc(_staircase_split_map(), g),
        lambda g: eval_qrep(_qrep_fixture()[0], g),
        lambda g: _rho()(g),
    ],
    ids=["eval_split", "homogenize_eval", "eval_split_qc", "eval_qrep", "eval_split_hom"],
)
def test_split_evaluators_reject_a_letter_on_an_unknown_side(evaluate):
    with pytest.raises(ValueError, match="unknown side 'C'"):
        evaluate(Word((("C", 1),)))


SPLIT_MAPS = {
    "eval_qrep": (lambda: _qrep_fixture()[0], eval_qrep),
    "SplitHom.__call__": (_rho, lambda f, g: f(g)),
    "eval_split_qc": (_staircase_split_map, eval_split_qc),
}
# Paired with itself, (A, bad) (B, 1) meets at a B|A junction, so the
# junction walk never reads the bad letter: the letter check must.
LETTER_CHECKS = {
    **SPLIT_MAPS,
    "qrep_sampled_defect": (
        lambda: _qrep_fixture()[0],
        lambda f, g: qrep_sampled_defect(f, lambda: g, 1),
    ),
}


@pytest.mark.parametrize("bad", [True, 1.0, [1]])
@pytest.mark.parametrize("name", LETTER_CHECKS)
def test_a_warm_letter_memo_rejects_elements_that_are_not_exact_ints(name, bad):
    make, evaluate = LETTER_CHECKS[name]
    f = make()
    evaluate(f, Word(((A, 1), (B, 1))))
    for word in (Word(((A, bad),)), Word(((A, bad), (B, 1)))):
        with pytest.raises(ValueError):
            evaluate(f, word)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_memo_evaluation_matches_the_plain_factor_map_evaluation(seed):
    for name, (make, evaluate) in SPLIT_MAPS.items():
        f = make()
        words = [random_word(f.splitting, 6, 4, seed + offset) for offset in range(20)]
        expected = [reference.value(f, g) for g in words]
        for _ in range(2):  # a cold memo, then a warm one
            assert [evaluate(f, g) for g in words] == expected, name


def test_eval_qrep_is_the_ordered_letter_product():
    mu, target = _qrep_fixture()
    g = Word(((B, 1), (A, 1), (B, 2)))
    expected = target.product([mu.muB(1), mu.muA(1), mu.muB(2)])
    assert eval_qrep(mu, g) == expected
    assert eval_qrep(mu, IDENTITY) == target.identity


@settings(deadline=None, max_examples=20)
@given(st.dictionaries(st.integers(1, 4), st.integers(0, 5), min_size=1, max_size=3), st.integers(1, 5))
def test_integer_factor_window_is_stable_under_widening(values, b_image):
    # The certified window 2(M + 3) on the integer factor against a scan of
    # twice that width; the finite factor is scanned in full either way.
    target = _hex_metric()
    splitting = Splitting(IntegerGroup(), C6)
    mu = SplitQRep(
        splitting, target, FactorQRMap(A, target, splitting.A, values),
        FactorQRMap(B, target, C6, {1: b_image}),
    )
    wide = reference.defect(mu.muA)
    assert mu.muA.defect() == wide
    assert qrep_defect(mu) == max(wide, reference.defect(mu.muB))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_sampled_defect_matches_the_exact_defect(seed):
    mu, _ = _qrep_fixture()
    rng = random.Random(seed)
    sampler = lambda: random_word(mu.splitting, 5, 2, rng)  # noqa: E731
    exact = qrep_defect(mu)
    assert qrep_sampled_defect(mu, sampler, 300) == exact


@st.composite
def split_qreps(draw):
    """A quasi-representation on C2 * C3 or Z * C6 into the hexagon metric,
    or on Z * Z into the circle."""
    kind = draw(st.sampled_from(["hexagon-finite", "hexagon-integer", "circle"]))
    if kind == "circle":
        target, s = Circle(), Splitting(IntegerGroup(), IntegerGroup())
        turns = st.integers(0, 15).map(lambda k: Fraction(k, 16))
        values = st.dictionaries(st.integers(1, 4), turns, max_size=3)
        return SplitQRep(
            s, target, FactorQRMap(A, target, s.A, draw(values)), FactorQRMap(B, target, s.B, draw(values))
        )
    target = _hex_metric()
    if kind == "hexagon-finite":
        s = Splitting(C2, C3)
        on_a, on_b = (list(enumerate_factor_qr_maps(side, s.factor(side), target, 1)) for side in (A, B))
        return SplitQRep(s, target, draw(st.sampled_from(on_a)), draw(st.sampled_from(on_b)))
    s = Splitting(IntegerGroup(), C6)
    values = draw(st.dictionaries(st.integers(1, 4), st.integers(0, 5), max_size=3))
    return SplitQRep(
        s, target, FactorQRMap(A, target, s.A, values), FactorQRMap(B, target, C6, {1: draw(st.integers(0, 5))})
    )


@settings(deadline=None, max_examples=40)
@given(split_qreps(), st.integers(0, 2**32 - 1))
def test_sampled_defect_joins_pairs_as_multiply_does(mu, seed):
    check_joins_as_multiply_does(mu, seed, qrep_sampled_defect)


@settings(deadline=None, max_examples=30)
@given(split_qreps(), st.integers(0, 2**32 - 1))
def test_pairs_that_share_their_first_junction_pair_size_as_the_whole_words(mu, seed):
    check_shared_junctions_size_as_the_whole_words(mu, seed)


S3_MUL = [
    # 0 = e, 1 = (123), 2 = (132), 3 = (12), 4 = (13), 5 = (23)
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 5, 3, 4],
    [2, 0, 1, 4, 5, 3],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 2, 0, 1],
    [5, 3, 4, 1, 2, 0],
]
S3 = FiniteTableGroup.from_mul(6, lambda x, y: S3_MUL[x][y])
S3_METRICS = {
    "discrete": FiniteMetric.from_length_function(S3, [0, 1, 1, 1, 1, 1]),
    # Transpositions have length 1 and 3-cycles length 2: a class function.
    "transpositions": FiniteMetric.from_length_function(S3, [0, 2, 2, 1, 1, 1]),
}


@st.composite
def s3_qreps(draw):
    """A quasi-representation on C2 * C3 or Z * C3 into S3 with a
    bi-invariant metric: a non-abelian target, where the junction rule
    rests on bi-invariance alone."""
    target = S3_METRICS[draw(st.sampled_from(sorted(S3_METRICS)))]
    if draw(st.booleans()):
        s = Splitting(C2, C3)
        on_a = list(enumerate_factor_qr_maps(A, C2, target, 2))
        muA = draw(st.sampled_from(on_a))
    else:
        s = Splitting(IntegerGroup(), C3)
        # An image for every exponent the sampler draws, so that merged
        # letters often meet non-commuting images.
        images = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
        muA = FactorQRMap(A, target, s.A, dict(zip(range(1, 5), images)))
    on_b = list(enumerate_factor_qr_maps(B, C3, target, 2))
    return SplitQRep(s, target, muA, draw(st.sampled_from(on_b)))


def test_s3_junction_reads_the_images_in_word_order():
    # mu(a) mu(a^2) = (12)(123) = (13) = mu(a^3), but (123)(12) = (23).
    s = Splitting(IntegerGroup(), C3)
    for target in S3_METRICS.values():
        muA = FactorQRMap(A, target, s.A, {1: 3, 2: 1, 3: 4})
        mu = SplitQRep(s, target, muA, FactorQRMap(B, target, C3, {}))
        assert target.mul(1, 3) != target.mul(3, 1)
        g, h = parse_word(s, "a"), parse_word(s, "a^2")
        assert reference.whole_word_size(mu, g, h) == 0 < reference.whole_word_size(mu, h, g)
        for pair in ((g, h), (h, g)):
            assert Fraction(*mu.junction(*pair)) == reference.whole_word_size(mu, *pair)


@settings(deadline=None, max_examples=40)
@given(s3_qreps(), st.integers(0, 2**32 - 1))
def test_sampled_defect_joins_pairs_as_multiply_does_into_s3(mu, seed):
    check_joins_as_multiply_does(mu, seed, qrep_sampled_defect)


@settings(deadline=None, max_examples=40)
@given(st.one_of(split_qreps(), s3_qreps()), st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_marked_sampler_pairs_meet_as_the_checked_path_sizes_them(mu, seed, count):
    check_marked_sampler_meets_as_the_checked_path(mu, seed, count)


def test_factor_hom_forms_and_validation():
    target = _hex_metric()
    hom = FactorHom(B, C3, target, generator_image=2)
    assert [hom(x) for x in C3.elements()] == [0, 2, 4]
    with pytest.raises(ValueError):
        FactorHom(B, C3, target, generator_image=1)
    with pytest.raises(ValueError):
        FactorHom(B, C3, target)
    with pytest.raises(ValueError):
        FactorHom(B, C3, target, generator_image=2, table={0: 0, 1: 2, 2: 4})
    table_hom = FactorHom(B, C3, target, table={0: 0, 1: 2, 2: 4})
    assert table_hom(1) == 2
    with pytest.raises(ValueError):
        FactorHom(B, C3, target, table={0: 0, 1: 2, 2: 3})
    with pytest.raises(ValueError):
        FactorHom(B, C3, target, table={0: 0, 1: 2})


def test_homomorphism_enumeration_counts():
    target = _hex_metric()
    assert len(list(enumerate_factor_homs(A, C2, target))) == 2
    assert len(list(enumerate_factor_homs(B, C3, target))) == 3
    with pytest.raises(ValueError):
        list(enumerate_factor_homs(A, IntegerGroup(), target))


def test_qr_map_enumeration_respects_the_norm_ball():
    target = _hex_metric()
    b_maps = list(enumerate_factor_qr_maps(B, C3, target, Fraction(1, 2)))
    assert len(b_maps) == 3
    assert all(mu.sup_norm() <= Fraction(1, 2) for mu in b_maps)
    a_maps = list(enumerate_factor_qr_maps(A, C2, target, Fraction(1, 2)))
    assert len(a_maps) == 1 and a_maps[0].support == ()
    with pytest.raises(ValueError):
        list(enumerate_factor_qr_maps(A, IntegerGroup(), target, 1))


def test_nontriviality_witness_finds_a_separating_word():
    mu, target = _qrep_fixture()
    delta = qrep_delta(mu)
    assert delta == Fraction(1, 2)
    for hA in enumerate_factor_homs(A, C2, target):
        for hB in enumerate_factor_homs(B, C3, target):
            rho = SplitHom(mu.splitting, target, hA, hB)
            report = nontriviality_witness(mu, rho, eps=1)
            assert report.succeeded
            assert report.distance >= delta
            assert report.word is not None
            observed = target.dist(
                eval_qrep(mu, report.word), rho(report.word)
            )
            assert observed == report.distance


def test_nontriviality_witness_preconditions():
    mu, target = _qrep_fixture()
    with pytest.raises(ValueError):
        nontriviality_witness(
            mu,
            SplitHom(
                mu.splitting,
                target,
                FactorHom(A, C2, target, generator_image=0),
                FactorHom(B, C3, target, generator_image=0),
            ),
            eps=Fraction(1, 2),
        )
    trivial = SplitQRep(
        mu.splitting,
        target,
        FactorQRMap(A, target, C2, {}),
        FactorQRMap(B, target, C3, {}),
    )
    rho = SplitHom(
        mu.splitting,
        target,
        FactorHom(A, C2, target, generator_image=0),
        FactorHom(B, C3, target, generator_image=0),
    )
    report = nontriviality_witness(trivial, rho, eps=1)
    assert report.succeeded
    assert report.word == IDENTITY
    assert report.checked == 0


def test_nontriviality_witness_refuses_a_homomorphism_on_another_splitting_or_target():
    mu, target = _qrep_fixture()
    twin = _hex_metric()  # equal distances, another object
    s6 = Splitting(C2, C6)
    on_c6 = SplitHom(
        s6, twin, FactorHom(A, C2, twin, generator_image=0), FactorHom(B, C6, twin, generator_image=0)
    )
    on_twin = SplitHom(
        mu.splitting, twin, FactorHom(A, C2, twin, generator_image=0), FactorHom(B, C3, twin, generator_image=0)
    )
    circle = Circle()
    zxz = Splitting(IntegerGroup(), IntegerGroup())
    on_circle = SplitHom(
        zxz,
        circle,
        FactorHom(A, zxz.A, circle, generator_image=Fraction(1, 4)),
        FactorHom(B, zxz.B, circle, generator_image=Fraction(1, 4)),
    )
    for rho in (on_c6, on_twin, on_circle):
        with pytest.raises(ValueError, match="mu's splitting into mu's target"):
            nontriviality_witness(mu, rho, eps=1)


def _qrep_targets():
    """The hexagon of configs/finite_qrep.json within its max_norm 1/2, and
    S3 under both metrics within 1, on C2 * C3."""
    yield _hex_metric(), Fraction(1, 2)
    for target in S3_METRICS.values():
        yield target, 1


def test_split_qr_maps_are_the_product_of_the_factor_enumerations():
    s = Splitting(C2, C3)
    for target, max_norm in _qrep_targets():
        mus = list(enumerate_split_qr_maps(s, target, max_norm))
        on_a = list(enumerate_factor_qr_maps(A, C2, target, max_norm))
        on_b = list(enumerate_factor_qr_maps(B, C3, target, max_norm))
        assert [(mu.muA.table, mu.muB.table) for mu in mus] == [(a.table, b.table) for a in on_a for b in on_b]
        assert all(mu.splitting == s and mu.target is target for mu in mus)
    assert len(list(enumerate_split_qr_maps(s, _hex_metric(), Fraction(1, 2)))) == 3
    with pytest.raises(ValueError):
        list(enumerate_split_qr_maps(Splitting(IntegerGroup(), C3), _hex_metric(), 1))


def test_witnesses_against_homs_is_one_witness_search_per_homomorphism():
    s = Splitting(C2, C3)
    for target, max_norm in _qrep_targets():
        homs = [
            SplitHom(s, target, h_a, h_b)
            for h_a in enumerate_factor_homs(A, C2, target)
            for h_b in enumerate_factor_homs(B, C3, target)
        ]
        assert len(homs) == (6 if target.group == C6 else 12)
        for mu in enumerate_split_qr_maps(s, target, max_norm):
            eps = 2 * max_norm
            expected = [nontriviality_witness(mu, rho, eps, depth=5) for rho in homs]
            assert witnesses_against_homs(mu, eps, depth=5) == expected
    circle = Circle()
    mu = SplitQRep(s, circle, FactorQRMap(A, circle, C2, {}), FactorQRMap(B, circle, C3, {}))
    with pytest.raises(ValueError, match="finite metric target"):
        witnesses_against_homs(mu, Fraction(1, 4))


def test_small_subgroups_in_finite_targets():
    target = _hex_metric()
    report = check_no_small_subgroups(target, 1)
    assert report.passed and report.epsilon == 1
    report = check_no_small_subgroups(target, Fraction(5, 4))
    assert not report.passed
    assert set(report.witness) == {0, 1, 2, 3, 4, 5}  # the whole group fits
    lopsided = FiniteMetric.from_length_function(
        C6, [0, 1, Fraction(1, 2), 1, Fraction(1, 2), 1]
    )
    report = check_no_small_subgroups(lopsided, Fraction(3, 4))
    assert not report.passed
    assert set(report.witness) == {0, 2, 4}


def test_small_subgroups_in_the_circle():
    # The third turns lie in the open ball exactly when eps > 1/3.
    circle = Circle()
    thirds = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    for eps in (Fraction(1, 3) + Fraction(1, 10**12), Fraction(1, 2), 1):
        report = check_no_small_subgroups(circle, eps)
        assert not report.passed and report.witness == thirds
        assert report.epsilon == eps and isinstance(report.epsilon, Fraction)
    for eps in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 10**12)):
        report = check_no_small_subgroups(circle, eps)
        assert report.passed and report.witness is None


def test_small_subgroups_need_a_known_target():
    class Trivial(MetricGroup):
        identity = 0

        def mul(self, x, y):
            return 0

        def inv(self, x):
            return 0

        def dist(self, x, y):
            return Fraction(0)

    with pytest.raises(TypeError):
        check_no_small_subgroups(Trivial(), 1)


def test_circle_qrep_is_exact_in_turns():
    circle = Circle()
    splitting = Splitting(IntegerGroup(), IntegerGroup())
    mu = SplitQRep(
        splitting,
        circle,
        FactorQRMap(A, circle, splitting.A, {1: Fraction(1, 8)}),
        FactorQRMap(B, circle, splitting.B, {1: Fraction(1, 8)}),
    )
    delta, defect = qrep_delta(mu), qrep_defect(mu)
    assert isinstance(delta, Fraction) and delta == Fraction(1, 8)
    assert isinstance(defect, Fraction) and defect == Fraction(1, 4)  # mu(2) = 0 vs 1/4
    rho = SplitHom(
        splitting,
        circle,
        FactorHom(A, splitting.A, circle, generator_image=Fraction(0)),
        FactorHom(B, splitting.B, circle, generator_image=Fraction(0)),
    )
    report = nontriviality_witness(mu, rho, eps=Fraction(1, 4))  # 2*delta == eps
    # The first candidate, a^-1, is exactly delta away, which ends the search.
    assert report.succeeded and report.checked == 1
    assert report.word == Word(((A, -1),)) and report.distance == delta
    with pytest.raises(ValueError):
        nontriviality_witness(mu, rho, eps=Fraction(1, 4) - Fraction(1, 10**12))


@settings(deadline=None, max_examples=40)
@given(st.one_of(split_qreps(), s3_qreps()), st.integers(0, 2**32 - 1))
def test_meet_reads_what_the_walk_gives(mu, seed):
    check_meet_reads_what_the_walk_gives(mu, seed)
