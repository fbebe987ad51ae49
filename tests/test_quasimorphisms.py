"""Factor and split quasimorphisms: alternation, defects, witnesses."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup
from splitqm.quasimorphisms import (
    DoublingWitness,
    FactorQM,
    SplitQM,
    coboundary,
    doubling_witness,
    eval_split,
    gromov_norm,
    homogenize_eval,
    is_trivial,
    junction_pairs,
    maximize_doubling_witness,
    rademacher,
    sampled_defect,
    split_defect,
    weight_qm,
)
from splitqm.words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    conjugate,
    invert,
    multiply,
    parse_word,
    power,
    random_word,
    word_sampler,
)

import reference
from sampled_pairs import (
    check_joins_as_multiply_does,
    check_marked_sampler_meets_as_the_checked_path,
    check_meet_reads_what_the_walk_gives,
)

ZXZ = Splitting(IntegerGroup(), IntegerGroup())
C5XC6 = Splitting(CyclicGroup(5), CyclicGroup(6))
# Z/3 (as a table) * S3, so both factors go through FiniteTableGroup.
S3 = FiniteTableGroup.from_mul(
    6, lambda x, y: [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 4, 3, 2, 1, 0],
    ][x][y]
)
TABLES = Splitting(FiniteTableGroup.from_mul(3, lambda x, y: (x + y) % 3), S3)
S3XZ = Splitting(S3, IntegerGroup())


def dihedral(n):
    """D_n of order 2n as a table: element 2r + s is the rotation r followed
    by s reflections."""
    def mul(a, b):
        (r, s), (t, u) = divmod(a, 2), divmod(b, 2)
        return 2 * ((r + (-t if s else t)) % n) + (s ^ u)
    return FiniteTableGroup.from_mul(2 * n, mul)


def quaternion_mul(a, b):
    """Q8: element 2u + s is (-1)^s times the unit u of 1, i, j, k."""
    (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
    if u == 0 or v == 0:
        w, sign = u + v, 0
    elif u == v:
        w, sign = 0, 1
    else:
        w, sign = 6 - u - v, int((v - u) % 3 != 1)
    return 2 * w + (s ^ t ^ sign)


# Non-abelian tables: on the dihedral groups |coboundary| is symmetric, on Q8
# it is not.  Q8 is relabelled so that its identity is 5.
DIHEDRAL = [dihedral(n) for n in (3, 4, 5, 6)]
_Q8_LABELS = (5, 2, 7, 0, 3, 6, 1, 4)
Q8 = FiniteTableGroup.from_mul(
    8, lambda x, y: _Q8_LABELS[quaternion_mul(_Q8_LABELS.index(x), _Q8_LABELS.index(y))], identity=5
)

_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# Few values, so that the largest |coboundary| is attained at many pairs.
_TIED_VALUES = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])


@st.composite
def integer_qms(draw, group=None, values=_VALUES):
    group = group or ZXZ.A
    finite_part = {}
    for k in draw(st.sets(st.integers(1, 4), max_size=3)):
        value = draw(values)
        if value:
            finite_part[k], finite_part[-k] = value, -value
    period = draw(st.sampled_from([None, 2, 3, 4, 5]))
    residues = ()
    if period is not None:
        residues = [Fraction(0)] * period
        for j in range(1, (period + 1) // 2):
            residues[j] = draw(values)
            residues[period - j] = -residues[j]
        residues = tuple(residues)
    return FactorQM(
        group,
        slope=draw(values) if draw(st.booleans()) else Fraction(0),
        finite_part=finite_part,
        period=period,
        residues=residues,
        sign_coeff=draw(values),
    )


@st.composite
def finite_qms(draw, group, values=_VALUES):
    table: dict[int, Fraction] = {}
    for x in group.elements():
        if group.is_identity(x) or x in table:
            continue
        inverse = group.inv(x)
        if inverse == x:
            continue
        value = draw(values)
        if value:
            table[x], table[inverse] = value, -value
    return FactorQM(group, finite_part=table)


@st.composite
def split_qms(draw):
    if draw(st.booleans()):
        return SplitQM(ZXZ, draw(integer_qms(ZXZ.A)), draw(integer_qms(ZXZ.B)))
    return SplitQM(C5XC6, draw(finite_qms(C5XC6.A)), draw(finite_qms(C5XC6.B)))


@st.composite
def all_split_qms(draw):
    s = draw(st.sampled_from([ZXZ, C5XC6, TABLES]))
    if s is ZXZ:
        return SplitQM(s, draw(integer_qms(s.A)), draw(integer_qms(s.B)))
    return SplitQM(s, draw(finite_qms(s.A)), draw(finite_qms(s.B)))


def integer_orbit(x, y):
    """The 12 pairs of Z with the |coboundary| of (x, y): the permutations of
    (x, y, -(x+y)) and their negations."""
    return {p for a, b, _ in itertools.permutations((x, y, -(x + y))) for p in ((a, b), (-a, -b))}


def scanned_pairs(q, scale=1):
    """The pairs in the rows of ``q._pairs``, in scan order."""
    pairs = []
    for x, _, ys, xys in q._pairs(scale):
        assert len(ys) == len(xys)
        pairs.extend((x, x + i) for i in range(len(ys)))
    return pairs


def test_alternation_is_validated():
    with pytest.raises(ValueError):
        FactorQM(ZXZ.A, finite_part={1: Fraction(1)})
    with pytest.raises(ValueError):
        FactorQM(ZXZ.A, period=3, residues=(Fraction(0), Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        FactorQM(ZXZ.A, finite_part={0: Fraction(1)})
    with pytest.raises(ValueError):
        FactorQM(C5XC6.A, finite_part={1: Fraction(1, 2)})
    FactorQM(C5XC6.A, finite_part={1: Fraction(1, 2), 4: Fraction(-1, 2)})
    # period=True once passed as period 1, and period=2.0 raised TypeError.
    for period, residues in ((True, (0,)), (2.0, (0, 0)), (0, (0,)), ("1", (0,))):
        with pytest.raises(ValueError, match="period must be an int >= 1"):
            FactorQM(ZXZ.A, period=period, residues=residues)


def test_values_combine_all_terms():
    q = FactorQM(
        ZXZ.A,
        slope=Fraction(1, 2),
        finite_part={2: Fraction(1), -2: Fraction(-1)},
        period=3,
        residues=(Fraction(0), Fraction(1, 3), Fraction(-1, 3)),
        sign_coeff=Fraction(1, 4),
    )
    assert q(2) == 1 + 1 + Fraction(-1, 3) + Fraction(1, 4)
    assert q(-2) == -q(2)
    assert q(0) == 0


@given(integer_qms())
def test_factor_values_match_the_term_oracle(q):
    for x in range(-2 * q.defect_window(), 2 * q.defect_window() + 1):
        assert q(x) == reference.factor_value(q, x)
        assert q.coboundary(x, 1) == reference.coboundary(q, x, 1)


@given(integer_qms())
def test_integer_values_alternate(q):
    for x in range(1, 2 * q.defect_window() + 1):
        assert q(-x) == -q(x)


@settings(deadline=None, max_examples=20)
@given(integer_qms(), st.randoms(use_true_random=False))
def test_defect_window_is_stable_under_widening(q, rng):
    defect = q.defect()
    assert defect == q.defect(scale=4)
    reach = 4 * q.defect_window() + 1
    for _ in range(200):
        x, y = rng.randint(-reach, reach), rng.randint(-reach, reach)
        assert abs(q.coboundary(x, y)) <= defect


@given(st.one_of(integer_qms(), finite_qms(C5XC6.A), finite_qms(C5XC6.B)))
def test_defect_witness_attains_the_defect(q):
    defect, x, y = q.defect_witness()
    assert abs(q.coboundary(x, y)) == defect
    assert q.defect_witness() == (defect, x, y)


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        st.tuples(integer_qms(), st.sampled_from([1, 2])),
        st.tuples(
            st.one_of(
                finite_qms(C5XC6.A), finite_qms(C5XC6.B), finite_qms(TABLES.A), finite_qms(TABLES.B)
            ),
            st.just(1),
        ),
    )
)
def test_defect_witness_matches_the_fraction_scan(case):
    q, scale = case
    assert q.defect_witness(scale) == reference.first_max(q, q.defect_window(scale))
    assert q.defect(scale) == reference.defect(q)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([_VALUES, _TIED_VALUES]).flatmap(
        lambda values: st.one_of(
            st.tuples(integer_qms(values=values), st.integers(1, 3)),
            st.tuples(st.integers(2, 40).flatmap(lambda n: finite_qms(CyclicGroup(n), values)), st.just(1)),
            st.tuples(st.sampled_from(DIHEDRAL + [Q8]).flatmap(lambda g: finite_qms(g, values)), st.just(1)),
        )
    )
)
# Q8's one involution, -1 (element 2), has a row, which holds the first maximal pair here.
@example((FactorQM(Q8, finite_part={1: 1, 4: -1, 3: 2, 6: -2}), 1))
def test_row_scan_matches_the_pair_loop(case):
    # The scan keeps one pair per coboundary orbit; the reference sizes every pair.
    q, scale = case
    assert q.defect_witness(scale) == reference.first_max(q, q.defect_window(scale))
    assert q.defect() == reference.defect(q)


@pytest.mark.parametrize(
    "q, expected, shape",
    [
        # Found by a seeded search of random maps against the triangle rows.
        (
            FactorQM(
                ZXZ.A,
                finite_part={1: -1, -1: 1, 3: 1, -3: -1},
                period=5,
                residues=(0, Fraction(1, 2), 0, 0, Fraction(-1, 2)),
                sign_coeff=Fraction(-3, 2),
            ),
            (3, -3, 1),
            "at the row's last y",
        ),
        (FactorQM(ZXZ.A, slope=-2, period=3, residues=(0, -1, 1), sign_coeff=1), (4, -10, 2), "in row -W"),
        (FactorQM(ZXZ.A, finite_part={3: -1, -3: 1, 4: 1, -4: -1}, sign_coeff=-1), (3, -6, 3), "tied with another orbit"),
        (FactorQM(ZXZ.A, slope=-1, sign_coeff=1), (1, -6, -6), "with its product off the window"),
    ],
)
def test_pinned_integer_witnesses_match_the_reference(q, expected, shape):
    value, x, y = expected
    radius = q.defect_window()
    window = range(-radius, radius + 1)
    orbits = {frozenset(integer_orbit(a, b)) for a in window for b in window if abs(q.coboundary(a, b)) == value}
    shapes = {
        "at the row's last y": x < y == (-x) // 2,
        "in row -W": x == -radius < y,
        "tied with another orbit": len(orbits) > 1,
        "with its product off the window": x + y < -radius,
    }
    assert shapes[shape]
    assert q.defect_witness() == reference.first_max(q) == expected


@pytest.mark.parametrize(
    "q, scale",
    [
        (FactorQM(ZXZ.A), 1),
        (FactorQM(ZXZ.A), 2),
        (FactorQM(ZXZ.A), 3),
        (
            FactorQM(
                ZXZ.A,
                slope=Fraction(-1, 2),
                finite_part={3: 1, -3: -1},
                period=5,
                residues=(0, 1, -2, 2, -1),
                sign_coeff=Fraction(1, 3),
            ),
            1,
        ),
        (FactorQM(ZXZ.A, period=4, residues=(0, 1, 0, -1)), 3),
    ],
)
def test_integer_rows_hold_one_ordered_member_of_every_orbit(q, scale):
    radius = q.defect_window(scale)
    pairs = scanned_pairs(q, scale)
    assert all(x <= y <= -(x + y) for x, y in pairs)
    visited = set(pairs)
    assert len(visited) == len(pairs)
    window = range(-radius, radius + 1)
    assert all(integer_orbit(x, y) & visited for x in window for y in window)
    # The numerators are L*q less the slope term, which cancels in every coboundary.
    slope = int(q.slope * q.denominator)
    for x, nx, ys, xys in q._pairs(scale):
        assert nx == q.numerator(x) - slope * x
        for y, ny, nxy in zip(itertools.count(x), ys, xys):
            assert (ny, nxy) == (q.numerator(y) - slope * y, q.numerator(x + y) - slope * (x + y))


@given(st.sampled_from([CyclicGroup(n) for n in (2, 3, 7, 8, 40)] + DIHEDRAL + [Q8, S3]).flatmap(finite_qms))
def test_finite_rows_skip_every_x_after_its_inverse(q):
    group = q.group
    rows = list(q._pairs())
    assert [x for x, *_ in rows] == [x for x in group.elements() if group.inv(x) >= x]
    for x, nx, ys, xys in rows:
        assert nx == q.numerator(x)
        assert ys == [q.numerator(y) for y in range(x, group.size)]
        assert xys == [q.numerator(group.mul(x, y)) for y in range(x, group.size)]


@pytest.mark.parametrize(
    "q, expected",
    [
        (FactorQM(ZXZ.A, finite_part={2: 1, -2: -1}, sign_coeff=1), (3, -4, 2)),
        (FactorQM(CyclicGroup(7), finite_part={3: 1, 4: -1}), (2, 1, 3)),
        # On Q8 (y, x) does not attain the defect here, yet (y, (xy)^-1) does.
        (FactorQM(Q8, finite_part={0: -1, 7: 1, 1: -1, 4: 1, 3: -1, 6: 1}), (3, 0, 3)),
    ],
)
def test_defect_witness_is_the_first_of_several_maximal_pairs(q, expected):
    value, x, y = expected
    group = q.group
    window = list(group.elements()) if group.is_finite else range(-q.defect_window(), q.defect_window() + 1)
    maximal = [(a, b) for a in window for b in window if reference.coboundary_size(q, a, b) == value]
    # The equal pair that puts y first, as in the docstring of defect_witness.
    mirror = (y, group.inv(group.mul(x, y))) if group.is_finite else (y, x)
    assert len(maximal) > 2 and mirror in maximal
    assert ((y, x) in maximal) == (group is not Q8)
    assert q.defect_witness() == reference.first_max(q) == expected


@pytest.mark.parametrize("group", [ZXZ.A, CyclicGroup(2), CyclicGroup(40), dihedral(4), Q8])
def test_the_zero_map_has_the_identity_pair_as_witness(group):
    identity = group.identity
    assert FactorQM(group).defect_witness() == (0, identity, identity)
    assert FactorQM(group).defect_witness(2) == (0, identity, identity)


@pytest.mark.parametrize("scale", [0, -1, True, False, 1.0, 2.5, "2", None])
def test_defect_scans_reject_a_scale_that_is_not_a_positive_int(scale):
    for q in (FactorQM(ZXZ.A, finite_part={2: 1, -2: -1}, sign_coeff=1), rademacher().fB):
        for scan in (q.defect_window, q.defect_witness, q.defect):
            with pytest.raises(ValueError):
                scan(scale)
    assert FactorQM(ZXZ.A, finite_part={2: 1, -2: -1}, sign_coeff=1).defect(1) == 3


@given(st.one_of(integer_qms(), finite_qms(C5XC6.B), finite_qms(TABLES.B)))
def test_numerators_are_the_values_over_the_common_denominator(q):
    L = q.denominator
    values = (q.slope, q.sign_coeff, *q.residues, *q.finite_part.values())
    assert all((v * L).denominator == 1 for v in values)
    domain = q.group.elements() if q.group.is_finite else range(-30, 31)
    for x in domain:
        assert Fraction(q.numerator(x), L) == q(x)
        assert isinstance(q.numerator(x), int)


@settings(deadline=None, max_examples=40)
@given(all_split_qms())
def test_gromov_norm_witness_pair_matches_the_junction_scan(f):
    report = gromov_norm(f)
    if report.witness is None:
        assert report.value == 0
        return
    # The first maximal pair, flipped to a positive coboundary: pairs with an
    # identity letter or product have coboundary 0, so none is the first.
    side = report.witness.side
    q = f.factor_map(side)
    _, x, y = reference.first_max(q)
    if reference.coboundary(q, x, y) < 0:
        x, y = q.group.inv(y), q.group.inv(x)
    assert report.witness.pair == (x, y)
    assert maximize_doubling_witness(f, side) == report.witness
    assert report.witness_attains


@settings(deadline=None, max_examples=30)
@given(all_split_qms(), st.integers(0, 2**32 - 1))
def test_sampled_defect_matches_fraction_evaluation(f, seed):
    s = f.splitting
    words = [random_word(s, 4, 4, seed + k) for k in range(60)]
    extras = junction_pairs(f)
    pairs = list(zip(words[::2], words[1::2])) + extras
    expected = max(reference.whole_word_size(f, g, h) for g, h in pairs)
    assert sampled_defect(f, iter(words).__next__, 30, extra_pairs=extras) == expected
    assert expected == split_defect(f)


@settings(deadline=None, max_examples=40)
@given(all_split_qms(), st.integers(0, 2**32 - 1))
def test_sampled_defect_joins_pairs_as_multiply_does(f, seed):
    check_joins_as_multiply_does(f, seed)


@settings(deadline=None, max_examples=30)
@given(split_qms(), st.integers(0, 2**32 - 1))
def test_split_coboundary_is_bounded_by_the_factor_defects(f, seed):
    defect = split_defect(f)
    assert defect == max(f.fA.defect(), f.fB.defect())
    s = f.splitting
    for offset in range(40):
        g = random_word(s, 5, 4, seed + 2 * offset)
        h = random_word(s, 5, 4, seed + 2 * offset + 1)
        assert abs(coboundary(f, g, h)) <= defect


@settings(deadline=None, max_examples=30)
@given(split_qms(), st.integers(0, 2**32 - 1))
def test_sampled_defect_attains_the_exact_value_on_junction_pairs(f, seed):
    extras = []
    for side, q in ((A, f.fA), (B, f.fB)):
        _, x, y = q.defect_witness()
        extras.append((Word(((side, x),)), Word(((side, y),))))
    sampler = lambda: Word(())  # noqa: E731 - junction pairs carry the value
    assert sampled_defect(f, sampler, 1, extra_pairs=extras) == split_defect(f)


@st.composite
def sampled_path_qms(draw):
    """A split quasimorphism on Z * Z, Z/5 * Z/6 or S3 * Z."""
    s = draw(st.sampled_from([ZXZ, C5XC6, S3XZ]))
    fA = draw(finite_qms(s.A) if s.A.is_finite else integer_qms(s.A))
    fB = draw(finite_qms(s.B) if s.B.is_finite else integer_qms(s.B))
    return SplitQM(s, fA, fB)


@settings(deadline=None, max_examples=40)
@given(sampled_path_qms(), st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_marked_sampler_pairs_meet_as_the_checked_path_sizes_them(f, seed, count):
    check_marked_sampler_meets_as_the_checked_path(f, seed, count)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_marked_sampler_pairs_meet_several_letters_deep_on_z2_z3(seed, count):
    # Z/2 letters always cancel, so junctions walk past them to a Z/3 pair.
    check_marked_sampler_meets_as_the_checked_path(rademacher(), seed, count, bounds=(7, 1))


@settings(deadline=None, max_examples=40)
@given(all_split_qms(), st.integers(0, 2**32 - 1))
def test_meet_reads_what_the_walk_gives(f, seed):
    check_meet_reads_what_the_walk_gives(f, seed)


def test_a_sampler_of_another_splitting_takes_the_checked_path():
    # Z * Z words on a Z * Z/6 map: the splittings differ, so every letter is
    # checked, and a negative exponent on B is no element of Z/6.
    s = Splitting(IntegerGroup(), CyclicGroup(6))
    f = SplitQM(s, FactorQM(s.A, sign_coeff=1), FactorQM(s.B, finite_part={1: 1, 5: -1}))
    with pytest.raises(ValueError, match="is not an element of"):
        sampled_defect(f, word_sampler(ZXZ, 4, 4, 1), 200)


@pytest.mark.parametrize("bad", [True, 1.0, [1], 7], ids=["True", "1.0", "list", "out-of-range"])
def test_a_bad_letter_in_the_extra_pairs_raises_beside_a_marked_sampler(bad):
    # The pair meets at A | B, so only the letter check can see the bad letter.
    f = FINITE_MEMO_MAPS["Z5xZ6"]()
    extra = (Word(((A, bad),)), Word(((B, 1),)))
    with pytest.raises(ValueError):
        sampled_defect(f, word_sampler(f.splitting, 4, 4, 1), 20, extra_pairs=[extra])


@pytest.mark.parametrize("count", [-5, -1, 2.5, True, False, "3", None])
def test_sampled_defect_rejects_a_count_that_is_not_an_int_at_least_0_before_any_draw(count):
    def sampler():
        raise AssertionError("a word was drawn")

    f = weight_qm({1: Fraction(1)})
    with pytest.raises(ValueError, match="count must be an int >= 0"):
        sampled_defect(f, sampler, count)
    assert sampled_defect(f, sampler, 0) == 0


@settings(deadline=None, max_examples=60)
@given(all_split_qms(), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_coboundary_is_the_junction_value(f, seed, cut):
    s = f.splitting
    g = random_word(s, 6, 4, seed)
    # h starts by undoing a tail of g, so the junction cancels before it merges.
    h = multiply(s, invert(s, Word(g.letters[cut:])), random_word(s, 4, 4, seed + 1))
    gh = reference.normal_form(s, g + h)
    assert coboundary(f, g, h) == reference.value(f, g) + reference.value(f, h) - reference.value(f, gh)


def test_eval_split_adds_coprime_denominators_exactly():
    f = SplitQM(
        ZXZ,
        FactorQM(ZXZ.A, finite_part={1: Fraction(1, 2), -1: Fraction(-1, 2)}),
        FactorQM(ZXZ.B, sign_coeff=Fraction(1, 3)),
    )
    assert f.denominator == 6
    for text in ["a", "b", "a b", "a b^-3 a b^2", "a^-1 b^-1 a^-1", "a^2 b a"]:
        g = parse_word(ZXZ, text)
        assert eval_split(f, g) == reference.value(f, g)
    assert eval_split(f, parse_word(ZXZ, "a b a b")) == Fraction(5, 3)


@pytest.mark.parametrize("letter", [(A, 5), (A, -1), (B, 6), (B, True)])
def test_eval_split_rejects_letters_outside_the_factors(letter):
    f = SplitQM(C5XC6, FactorQM(C5XC6.A), FactorQM(C5XC6.B, finite_part={1: 1, 5: -1}))
    with pytest.raises(ValueError):
        eval_split(f, Word((letter,)))


@pytest.mark.parametrize(
    "g, h",
    [
        (Word(((A, 1), (A, 1))), IDENTITY),
        (IDENTITY, Word(((A, 1), (A, 1)))),
        (Word(((A, 1),)), Word(((B, 0),))),
        (Word(((A, 1), (B, 2), (B, -2))), Word(((A, -1),))),
    ],
    ids=["same-side-left", "same-side-right", "identity-letter", "unreduced-tail"],
)
def test_coboundary_rejects_words_that_are_not_normal_forms(g, h):
    # A whole-word sum gave 2 on a a, whose normal form a^2 gives 0; the
    # junction rule is no better on raw words, so both inputs are checked.
    f = SplitQM(ZXZ, FactorQM(ZXZ.A, finite_part={1: 1, -1: -1}), FactorQM(ZXZ.B))
    assert coboundary(f, parse_word(ZXZ, "a^2"), IDENTITY) == 0
    with pytest.raises(ValueError):
        coboundary(f, g, h)


def test_single_letter_pairs_reproduce_factor_coboundaries():
    f = weight_qm({1: Fraction(1), 2: Fraction(1, 2)})
    for x, y in [(1, 1), (2, -1), (3, 2)]:
        g, h = Word(((A, x),)), Word(((A, y),))
        assert coboundary(f, g, h) == f.fA.coboundary(x, y)


@settings(deadline=None, max_examples=40)
@given(split_qms(), st.integers(0, 2**32 - 1), st.integers(-5, 5))
def test_homogenization_is_homogeneous_and_conjugation_invariant(f, seed, n):
    s = f.splitting
    g = random_word(s, 4, 3, seed)
    h = random_word(s, 3, 3, seed + 1)
    value = homogenize_eval(f, g)
    assert homogenize_eval(f, power(s, g, n)) == n * value
    assert homogenize_eval(f, conjugate(s, h, g)) == value


@given(integer_qms(), st.integers(-6, 6))
def test_homogenization_of_a_single_letter_is_the_slope_term(q, k):
    f = SplitQM(ZXZ, q, FactorQM(ZXZ.B))
    assert homogenize_eval(f, Word(((A, k),)) if k else Word(())) == q.slope * k


def test_homogenization_reads_the_element_not_its_spelling():
    f = weight_qm({1: Fraction(1)})
    raw = Word(((A, 1), (A, -1), (B, 1)))
    assert homogenize_eval(f, raw) == homogenize_eval(f, parse_word(ZXZ, "b")) == 0
    raw = Word(((A, 1), (B, 2), (A, 0), (B, -2), (A, 1), (B, 1), (A, -1)))
    assert homogenize_eval(f, raw) == homogenize_eval(f, parse_word(ZXZ, "a b")) != 0


def test_doubling_witness_doubles_the_factor_gap():
    f = weight_qm({1: Fraction(1)})
    witness = doubling_witness(f, 1, 1, 1, 1, side=A)
    assert isinstance(witness, DoublingWitness)
    assert witness.gap == 2 * f.fA.coboundary(1, 1) == 4


def test_doubling_witness_rejects_degenerate_inputs():
    f = weight_qm({1: Fraction(1)})
    with pytest.raises(ValueError):
        doubling_witness(f, 0, 1, 1, 1, side=A)
    with pytest.raises(ValueError):
        doubling_witness(f, 1, -1, 1, 1, side=A)
    with pytest.raises(ValueError):
        doubling_witness(f, 1, 1, 0, 1, side=A)
    with pytest.raises(ValueError):
        doubling_witness(f, 1, 1, 1, 0, side=A)


@pytest.mark.parametrize("table", [{1: Fraction(1)}, {1: Fraction(-1)}, {2: Fraction(3, 2)}])
def test_maximized_witness_attains_twice_the_norm(table):
    f = weight_qm(table)
    report = gromov_norm(f)
    assert report.value == split_defect(f)
    assert report.witness_attains
    assert report.witness.gap == 2 * report.value > 0


def test_gromov_norm_of_a_homomorphism_has_no_witness():
    f = SplitQM(ZXZ, FactorQM(ZXZ.A, slope=Fraction(2)), FactorQM(ZXZ.B))
    report = gromov_norm(f)
    assert report.value == 0
    assert report.witness is None
    assert is_trivial(f)


def test_rademacher_map_values_and_norm():
    f = rademacher()
    s = f.splitting
    assert f.fA(1) == 0
    assert f.fB(1) == 1
    assert f.fB(2) == -1
    assert eval_split(f, parse_word(s, "b a b a b")) == 3
    assert split_defect(f) == 3
    report = gromov_norm(f)
    assert report.value == 3
    assert report.witness_attains
    assert report.witness.gap == 6
    assert maximize_doubling_witness(f, A) is None
    assert not is_trivial(f)


def test_weight_tables_fill_in_alternation_and_reject_conflicts():
    f = weight_qm({1: Fraction(1), 2: Fraction(-1, 2)})
    assert f.fA(-1) == -1
    assert f.fB(-2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        weight_qm({1: Fraction(1), -1: Fraction(1)})
    with pytest.raises(ValueError):
        weight_qm({0: Fraction(1)})
    assert is_trivial(weight_qm({}))


@settings(deadline=None, max_examples=25)
@given(all_split_qms(), st.integers(0, 2**32 - 1))
def test_warm_letter_memo_matches_fraction_evaluation(f, seed):
    words = [random_word(f.splitting, 6, 4, seed + offset) for offset in range(30)]
    expected = [reference.value(f, g) for g in words]
    for _ in range(2):
        assert [eval_split(f, g) for g in words] == expected


MEMO_EVALUATORS = pytest.mark.parametrize(
    "evaluate",
    [
        eval_split,
        lambda f, g: f(g),
        homogenize_eval,
        lambda f, g: sampled_defect(f, lambda: g, 1),
        lambda f, g: coboundary(f, g, g),
    ],
    ids=["eval_split", "SplitQM.__call__", "homogenize_eval", "sampled_defect", "coboundary"],
)


def assert_warm_memo_rejects(evaluate, f, bad):
    evaluate(f, Word(((A, 1), (B, 1))))
    for word in (Word(((A, bad),)), Word(((A, bad), (B, 1)))):
        with pytest.raises(ValueError):
            evaluate(f, word)


@pytest.mark.parametrize("bad", [True, 1.0, [1]])
@MEMO_EVALUATORS
def test_a_warm_letter_memo_rejects_elements_that_hash_like_a_valid_one(evaluate, bad):
    f = SplitQM(ZXZ, FactorQM(ZXZ.A, sign_coeff=1), FactorQM(ZXZ.B, sign_coeff=2))
    assert_warm_memo_rejects(evaluate, f, bad)


FINITE_MEMO_MAPS = {
    "Z5xZ6": lambda: SplitQM(
        C5XC6,
        FactorQM(C5XC6.A, finite_part={1: Fraction(1), 4: Fraction(-1)}),
        FactorQM(C5XC6.B, finite_part={1: Fraction(2), 5: Fraction(-2)}),
    ),
    "Z3xS3-tables": lambda: SplitQM(
        TABLES,
        FactorQM(TABLES.A, finite_part={1: Fraction(1), 2: Fraction(-1)}),
        FactorQM(TABLES.B, finite_part={1: Fraction(1), 2: Fraction(-1)}),
    ),
}


# On Z/5, sampled_defect's junction would add [1] + [1] and take it mod 5
# (TypeError) unless the letters were checked: every case is a ValueError.
@pytest.mark.parametrize("bad", [True, 1.0, [1], 7], ids=["True", "1.0", "list", "out-of-range"])
@pytest.mark.parametrize("splitting", FINITE_MEMO_MAPS)
@MEMO_EVALUATORS
def test_a_warm_letter_memo_rejects_bad_elements_of_finite_factors(evaluate, splitting, bad):
    assert_warm_memo_rejects(evaluate, FINITE_MEMO_MAPS[splitting](), bad)
