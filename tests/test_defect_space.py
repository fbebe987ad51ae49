"""Defect vectors on a factor: norms, order bounds, isometric embeddings."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splitqm import defect_space
from splitqm.defect_space import (
    DefectVector,
    GroupHom,
    ShortExactSequence,
    alternating_vectors,
    defect_norm,
    defect_witness,
    embed_subgroup,
    order_bound_check,
    pullback_quotient,
    ses_embed,
    sup_norm,
)
from splitqm.groups import CyclicGroup, IntegerGroup

C2 = CyclicGroup(2)
C3 = CyclicGroup(3)
C4 = CyclicGroup(4)
C6 = CyclicGroup(6)
C12 = CyclicGroup(12)

CHOICES = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))


def _vec(carrier, values):
    return DefectVector(carrier, {x: Fraction(v) for x, v in values.items()})


def test_vector_arithmetic_and_normalization():
    f = _vec(C6, {1: 1, 5: -1})
    g = _vec(C6, {1: -1, 5: 1, 2: Fraction(1, 2), 4: Fraction(-1, 2)})
    assert (f + g).values == {2: Fraction(1, 2), 4: Fraction(-1, 2)}
    assert (f - f).is_zero
    assert (-f).values == {1: -1, 5: 1}
    assert f.scale(Fraction(1, 2)).values == {1: Fraction(1, 2), 5: Fraction(-1, 2)}
    assert f.scale(0).is_zero
    assert f.support == (1, 5)
    with pytest.raises(ValueError):
        DefectVector(C6, {1: Fraction(1)})
    with pytest.raises(ValueError):
        f + _vec(C3, {1: 1, 2: -1})


def test_norms_and_witness():
    f = _vec(C6, {1: 1, 5: -1})
    assert sup_norm(f) == 1
    assert defect_norm(f) == 2
    value, x, y = defect_witness(f)
    assert abs(f(x) + f(y) - f(f.carrier.mul(x, y))) == value == 2
    assert sup_norm(_vec(C6, {})) == 0
    assert defect_norm(_vec(C6, {})) == 0


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
    monkeypatch.setattr(defect_space, "defect_norm", lambda g: factor * sup_norm(g))
    with pytest.raises(RuntimeError, match="norm sandwich fails"):
        order_bound_check(f)


def test_order_bound_on_an_infinite_carrier():
    f = _vec(IntegerGroup(), {1: 1, -1: -1})
    report = order_bound_check(f)
    assert report.defect == 2
    window = f.qm.defect_window()
    assert report.checked == 2 * window
    assert report.worst_slack >= 0


@pytest.mark.parametrize(
    "carrier, count",
    [(C2, 1), (C3, 3), (C6, 9), (CyclicGroup(8), 27)],
)
def test_alternating_vector_counts(carrier, count):
    vectors = list(alternating_vectors(carrier, (Fraction(-1), Fraction(0), Fraction(1))))
    assert len(vectors) == count
    seen = {tuple(sorted(f.values.items())) for f in vectors}
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
    assert embedded.values == {2: 1, 4: -1}
    assert defect_norm(embedded) == defect_norm(f)

    quot = _vec(C3, {1: Fraction(1, 2), 2: Fraction(-1, 2)})
    pulled = pullback_quotient(quot, _mod(C6, C3))
    assert pulled.values == {1: Fraction(1, 2), 2: Fraction(-1, 2), 4: Fraction(1, 2), 5: Fraction(-1, 2)}
    assert defect_norm(pulled) == defect_norm(quot)

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
    assert defect_norm(combined) == max(defect_norm(f_sub), defect_norm(f_quot))


def test_ses_embed_checks_the_carriers():
    ses = ShortExactSequence(_times(2, C3, C6), _mod(C6, C2))
    f_sub = _vec(C3, {1: 1, 2: -1})
    f_quot = _vec(C2, {})
    assert ses_embed(f_sub, f_quot, ses).values == {2: 1, 4: -1}
    with pytest.raises(ValueError):
        ses_embed(f_quot, f_sub, ses)
