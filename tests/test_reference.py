"""The reference module against values worked out by hand, so that a wrong
reference cannot make a wrong library pass."""

from fractions import Fraction

from splitqm.groups import CyclicGroup, IntegerGroup
from splitqm.quasicocycles import FactorCocycleMap, RegularRep, power_ladder_cocycle
from splitqm.quasimorphisms import FactorQM, SplitQM, rademacher
from splitqm.words import A, B, Splitting

import reference

ZXZ = Splitting(IntegerGroup(), IntegerGroup())


def test_a_raw_word_cancels_then_merges():
    # b b^-1 cancels, then a^2 a^3 merges into a^5; on Z/5, a^2 a^3 cancels too.
    assert reference.normal_form(ZXZ, [(A, 2), (B, 1), (B, -1), (A, 3), (B, 4)]) == ((A, 5), (B, 4))
    c5 = Splitting(CyclicGroup(5), IntegerGroup())
    assert reference.normal_form(c5, [(B, 1), (A, 2), (B, 1), (B, -1), (A, 3), (B, 4)]) == ((B, 5),)


def test_the_sign_map_and_rademacher_have_their_defects():
    # sgn(x) + sgn(y) - sgn(x + y) is -1 at (-6, -6), the first pair of the
    # window [-6, 6] with |.| = 1, and never 2 or more.
    sign = FactorQM(ZXZ.A, sign_coeff=1)
    assert sign.defect_window() == 6
    assert reference.first_max(sign) == (1, -6, -6) and reference.defect(sign) == 1
    # On Z/3 with f(1) = 1, f(2) = -1: f(1) + f(1) - f(2) = 3 at (1, 1).
    f = rademacher()
    assert reference.first_max(f.fB) == (3, 1, 1) and reference.first_max(f.fA) == (0, 0, 0)
    assert reference.value(f, ((B, 1), (A, 1), (B, 1), (A, 1), (B, 1))) == 3


def test_a_regular_coboundary_written_out():
    # f(a) = e forces f(a^-1) = -a^-1.e, so at (1, 1) the coboundary is
    # e + a.e - f(a^2) = e + a, and at (2, -1) it is 0 - a^2.a^-1 - f(a) = -a - e.
    rep = RegularRep(ZXZ, 1)
    q = FactorCocycleMap(A, rep, {1: {(): 1}})
    assert reference.coboundary(q, 1, 1) == {(): 1, ((A, 1),): 1}
    assert reference.coboundary(q, 2, -1) == {(): -1, ((A, 1),): -1}
    assert reference.coboundary(q, 1, -1) == {} and reference.coboundary_size(q, 1, 1) == 2


def test_the_prime_ladder_witness_written_out():
    # p = 5, depth 3: f(a^125) is the indicator of (b a^5 b a^25 b)^-1, and
    # f(a^-250) = 0, so (-250, 125) gives a^-250.f(a^125) - f(a^-125).
    fA = power_ladder_cocycle(RegularRep(ZXZ, 1), 5, {(): Fraction(1)}, 3)[0]
    tail = ((B, -1), (A, -25), (B, -1), (A, -5), (B, -1))
    assert reference.coboundary(fA, -250, 125) == {((A, -250),) + tail: 1, ((A, -125),) + tail: 1}
    assert reference.coboundary_size(fA, -250, 125) == 2


def test_homogenized_values_written_out():
    # q_A(k) = k/2 + sgn(k), and q_B is 1 at b, -1 at b^-1 and 0 elsewhere.
    f = SplitQM(
        ZXZ, FactorQM(ZXZ.A, slope=Fraction(1, 2), sign_coeff=1), FactorQM(ZXZ.B, finite_part={1: 1, -1: -1})
    )
    # (a b a^-1)^n = a b^n a^-1 has f = q_B(n) = 0 for n >= 2; f(a^3n) = 3n/2 + 1.
    assert reference.homogenized(f, ((A, 1), (B, 1), (A, -1))) == 0
    assert reference.homogenized(f, ((A, 3),)) == Fraction(3, 2)
    # (a b a)^n = a (b a^2)^(n-1) b a grows by f(b a^2) = 1 + 2 per power;
    # a b is cyclically reduced, f(a b) = 3/2 + 1.
    assert reference.homogenized(f, ((A, 1), (B, 1), (A, 1))) == 3
    assert reference.homogenized(f, ((A, 1), (B, 1))) == Fraction(5, 2)
