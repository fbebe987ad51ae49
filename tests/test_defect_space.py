"""Bounded factor maps: arithmetic, norms, order bounds, isometric embeddings."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splitqm.defect_space import (
    GroupHom,
    ShortExactSequence,
    alternating_vectors,
    embed_subgroup,
    order_bound_check,
    pullback_quotient,
    ses_embed,
    sup_norm,
)
from splitqm.groups import CyclicGroup, FiniteTableGroup, IntegerGroup, inverse_pairs, set_alternating
from splitqm.quasimorphisms import FactorQM, SplitQM
from splitqm.words import Splitting

import reference

C2 = CyclicGroup(2)
C3 = CyclicGroup(3)
C4 = CyclicGroup(4)
C6 = CyclicGroup(6)
C12 = CyclicGroup(12)

CHOICES = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


def _vec(carrier, values):
    return FactorQM(carrier, finite_part={x: Fraction(v) for x, v in values.items()})


# S3 as a table on the permutations of 0, 1, 2, in lexicographic order.
_PERMS = list(itertools.permutations(range(3)))
S3 = FiniteTableGroup.from_mul(6, lambda x, y: _PERMS.index(tuple(_PERMS[x][i] for i in _PERMS[y])))
Z = IntegerGroup()


def _value(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def _random_map(group, rng):
    """A random alternating map on ``group``; on Z with a random slope, finite
    part, sign term and a residue table of period 3, 4 or none."""
    finite = {}
    if group.is_finite:
        for x in inverse_pairs(group)[1]:
            if rng.random() < 0.7:
                set_alternating(finite, group, x, _value(rng))
        return FactorQM(group, finite_part=finite)
    for k in rng.sample(range(1, 6), rng.randint(0, 3)):
        set_alternating(finite, group, k, _value(rng))
    period = rng.choice((None, 3, 4))
    residues = ()
    if period is not None:
        table = [Fraction(0)] * period
        for j in range(1, (period + 1) // 2):
            table[j] = _value(rng)
            table[period - j] = -table[j]
        residues = tuple(table)
    return FactorQM(group, _value(rng), finite, period, residues, _value(rng))


def test_vector_arithmetic_and_normalization():
    f = _vec(C6, {1: 1, 5: -1})
    g = _vec(C6, {1: -1, 5: 1, 2: Fraction(1, 2), 4: Fraction(-1, 2)})
    assert (f + g).finite_part == {2: Fraction(1, 2), 4: Fraction(-1, 2)}
    assert f - f == FactorQM(C6)
    assert (-f).finite_part == {1: -1, 5: 1}
    assert f.scale(Fraction(1, 2)).finite_part == {1: Fraction(1, 2), 5: Fraction(-1, 2)}
    assert f.scale(0) == FactorQM(C6)
    with pytest.raises(ValueError):
        _vec(C6, {1: 1})
    with pytest.raises(ValueError):
        f + _vec(C3, {1: 1, 2: -1})
    with pytest.raises(ValueError):
        FactorQM(Z, slope=1) - FactorQM(C6)

    # Residue tables of periods 4 and 3 add over period 12, and cancel to none.
    four = FactorQM(Z, period=4, residues=(0, 1, 0, -1), sign_coeff=-1)
    three = FactorQM(Z, period=3, residues=(0, Fraction(1, 2), Fraction(-1, 2)))
    total = four + three
    assert (total.period, total.sign_coeff) == (12, -1)
    # Equality is of terms, not of functions: the difference keeps period 12.
    assert (total - three).period == 12
    assert all((total - three)(k) == four(k) for k in range(-30, 31))
    assert total - four - three == FactorQM(Z)

    rng = random.Random(36)
    checked = 0
    for group in (Z, C6, CyclicGroup(7), S3):
        for _ in range(40):
            f, g, c = _random_map(group, rng), _random_map(group, rng), _value(rng)
            combined = f + g.scale(c)
            assert f - f == FactorQM(group)
            xs = list(group.elements()) if group.is_finite else range(-25, 26)
            for x in xs:
                assert combined(x) == reference.factor_value(f, x) + c * reference.factor_value(g, x)
                assert (f - g)(x) == reference.factor_value(f, x) - reference.factor_value(g, x)
                checked += 1
            assert f.scale(c).defect() == abs(c) * f.defect()
            assert (f + g).defect() <= f.defect() + g.defect()
    assert checked == 40 * (51 + 6 + 7 + 6)


def test_equal_maps_hash_equal():
    f = _vec(C6, {1: 1, 5: -1})
    assert len({f - f, FactorQM(C6)}) == 1
    assert hash(f + f) == hash(f.scale(2)) and f + f == f.scale(2)
    periodic = FactorQM(Z, slope=1, finite_part={2: 1, -2: -1}, period=3, residues=(0, 1, -1), sign_coeff=1)
    assert hash(periodic) == hash(periodic - FactorQM(Z) + FactorQM(Z))
    assert hash(_vec(S3, {})) == hash(FactorQM(S3))
    s = Splitting(C6, C3)
    split, twin = (SplitQM(s, _vec(C6, {1: 1, 5: -1}), _vec(C3, {1: 2, 2: -2})) for _ in range(2))
    assert split == twin and hash(split) == hash(twin)
    assert {split: "map"}[twin] == "map"


def test_norms_and_witness():
    f = _vec(C6, {1: 1, 5: -1})
    assert sup_norm(f) == 1
    assert f.defect() == 2
    value, x, y = f.defect_witness()
    assert abs(f(x) + f(y) - f(f.group.mul(x, y))) == value == 2
    assert sup_norm(_vec(C6, {})) == 0
    assert _vec(C6, {}).defect() == 0


@pytest.mark.parametrize(
    "f",
    [
        FactorQM(Z, slope=1),
        FactorQM(Z, sign_coeff=1),
        FactorQM(Z, period=3, residues=(0, 1, -1)),
        FactorQM(Z, finite_part={1: 5, -1: -5}, sign_coeff=Fraction(1, 2)),
    ],
)
def test_sup_norm_refuses_a_map_with_unbounded_or_periodic_terms(f):
    # The largest finite-part value is not the sup of such a map.
    for check in (sup_norm, order_bound_check):
        with pytest.raises(ValueError, match="no slope, period or sign term"):
            check(f)


@given(st.integers(3, 8), st.data())
def test_norm_sandwich_and_order_bound(n, data):
    carrier = CyclicGroup(n)
    vectors = list(alternating_vectors(carrier, CHOICES))
    f = data.draw(st.sampled_from(vectors))
    report = order_bound_check(f)
    assert report.checked == n - 1
    assert report.worst_slack >= 0
    assert sup_norm(f) <= report.defect <= 3 * sup_norm(f)
    order = carrier.order(report.tight_at)
    bound = Fraction(order - 2, order) * report.defect
    assert bound - abs(f(report.tight_at)) == report.worst_slack


@pytest.mark.parametrize("factor", [Fraction(1, 2), 4])
def test_order_bound_check_refuses_a_broken_sandwich(monkeypatch, factor):
    f = _vec(C6, {1: 1, 5: -1})
    monkeypatch.setattr(FactorQM, "defect", lambda g, scale=1: factor * sup_norm(g))
    with pytest.raises(RuntimeError, match="norm sandwich fails"):
        order_bound_check(f)


def test_order_bound_on_an_infinite_carrier():
    f = _vec(IntegerGroup(), {1: 1, -1: -1})
    report = order_bound_check(f)
    assert report.defect == 2
    window = f.defect_window()
    assert report.checked == 2 * window
    assert report.worst_slack >= 0


@pytest.mark.parametrize(
    "carrier, count",
    [(C2, 1), (C3, 3), (C6, 9), (CyclicGroup(8), 27)],
)
def test_alternating_vector_counts(carrier, count):
    vectors = list(alternating_vectors(carrier, (Fraction(-1), Fraction(0), Fraction(1))))
    assert len(vectors) == count
    seen = {tuple(sorted(f.finite_part.items())) for f in vectors}
    assert len(seen) == count
    for f in vectors:
        for x in carrier.elements():
            assert f(carrier.inv(x)) == -f(x)
            if carrier.inv(x) == x:
                assert f(x) == 0


def test_alternating_vectors_need_a_finite_carrier():
    with pytest.raises(ValueError):
        list(alternating_vectors(IntegerGroup(), CHOICES))


def _times(k, domain, codomain):
    return GroupHom(domain, codomain, {x: (k * x) % codomain.n for x in range(domain.n)})


def _mod(domain, codomain):
    return GroupHom(domain, codomain, {x: x % codomain.n for x in range(domain.n)})


def test_group_hom_validation_and_properties():
    i = _times(2, C3, C6)
    assert i.is_injective and not i.is_surjective
    assert i.image == frozenset({0, 2, 4})
    assert i.kernel == frozenset({0})
    pi = _mod(C6, C2)
    assert pi.is_surjective and not pi.is_injective
    assert pi.kernel == frozenset({0, 2, 4})
    with pytest.raises(ValueError):
        GroupHom(C3, C6, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError):
        GroupHom(C3, C6, {0: 0, 1: 2})
    with pytest.raises(ValueError):
        GroupHom(CyclicGroup(3), IntegerGroup(), {0: 0, 1: 1, 2: 2})


def test_embeddings_are_isometric():
    f = _vec(C3, {1: 1, 2: -1})
    embedded = embed_subgroup(f, _times(2, C3, C6))
    assert embedded.finite_part == {2: 1, 4: -1}
    assert embedded.defect() == f.defect()

    quot = _vec(C3, {1: Fraction(1, 2), 2: Fraction(-1, 2)})
    pulled = pullback_quotient(quot, _mod(C6, C3))
    assert pulled.finite_part == {1: Fraction(1, 2), 2: Fraction(-1, 2), 4: Fraction(1, 2), 5: Fraction(-1, 2)}
    assert pulled.defect() == quot.defect()

    with pytest.raises(ValueError):
        embed_subgroup(f, _mod(C6, C3))
    with pytest.raises(ValueError):
        pullback_quotient(quot, _times(2, C3, C6))


def test_short_exact_sequence_validation():
    ses = ShortExactSequence(_times(2, C3, C6), _mod(C6, C2))
    assert ses.middle == C6
    with pytest.raises(ValueError):
        ShortExactSequence(_times(2, C3, C6), _mod(C6, C3))
    with pytest.raises(ValueError):
        ShortExactSequence(_times(4, C3, C12), _mod(C12, C2))


@given(st.data())
def test_ses_embedding_takes_the_right_values(data):
    ses = ShortExactSequence(_times(4, C3, C12), _mod(C12, C4))
    f_sub = data.draw(st.sampled_from(list(alternating_vectors(C3, CHOICES))))
    f_quot = data.draw(st.sampled_from(list(alternating_vectors(C4, CHOICES))))
    combined = ses_embed(f_sub, f_quot, ses)
    for g in C12.elements():
        image = g % 4
        if g % 4 == 0:
            assert combined(g) == f_sub(g // 4)
        else:
            assert combined(g) == f_quot(image)
    assert combined.defect() == max(f_sub.defect(), f_quot.defect())


def test_ses_embed_checks_the_carriers():
    ses = ShortExactSequence(_times(2, C3, C6), _mod(C6, C2))
    f_sub = _vec(C3, {1: 1, 2: -1})
    f_quot = _vec(C2, {})
    assert ses_embed(f_sub, f_quot, ses).finite_part == {2: 1, 4: -1}
    with pytest.raises(ValueError):
        ses_embed(f_quot, f_sub, ses)
