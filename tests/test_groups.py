import math

import pytest
from hypothesis import given, strategies as st

from splitqm.groups import (
    CyclicGroup,
    FiniteTableGroup,
    INFINITE,
    IntegerGroup,
    designated_generator,
    inverse_pairs,
)

KLEIN_MUL = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

S3_MUL = [
    # 0 = e, 1 = (123), 2 = (132), 3 = (12), 4 = (13), 5 = (23)
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 5, 3, 4],
    [2, 0, 1, 4, 5, 3],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 2, 0, 1],
    [5, 3, 4, 1, 2, 0],
]


@pytest.fixture(params=["integer", "cyclic5", "klein", "s3"])
def group(request):
    return {
        "integer": IntegerGroup(),
        "cyclic5": CyclicGroup(5),
        "klein": FiniteTableGroup.from_mul(4, lambda x, y: KLEIN_MUL[x][y]),
        "s3": FiniteTableGroup.from_mul(6, lambda x, y: S3_MUL[x][y]),
    }[request.param]


def some_elements(group):
    if group.is_finite:
        return list(group.elements())
    return list(range(-5, 6))


def test_group_axioms(group):
    e = group.identity
    xs = some_elements(group)
    for x in xs:
        assert group.mul(x, e) == x
        assert group.mul(e, x) == x
        assert group.mul(x, group.inv(x)) == e
        assert group.mul(group.inv(x), x) == e
        for y in xs:
            for z in xs:
                assert group.mul(group.mul(x, y), z) == group.mul(x, group.mul(y, z))


def test_power_matches_iteration(group):
    for x in some_elements(group):
        acc = group.identity
        for n in range(7):
            assert group.power(x, n) == acc
            assert group.power(x, -n) == group.inv(acc)
            acc = group.mul(acc, x)


def test_orders():
    z = IntegerGroup()
    assert z.order(0) == 1
    assert z.order(3) == INFINITE
    assert z.size == INFINITE
    assert not z.is_finite

    c6 = CyclicGroup(6)
    assert [c6.order(x) for x in c6.elements()] == [1, 6, 3, 2, 3, 6]
    assert c6.size == 6

    klein = FiniteTableGroup.from_mul(4, lambda x, y: KLEIN_MUL[x][y])
    assert sorted(klein.order(x) for x in klein.elements()) == [1, 2, 2, 2]

    s3 = FiniteTableGroup.from_mul(6, lambda x, y: S3_MUL[x][y])
    assert sorted(s3.order(x) for x in s3.elements()) == [1, 2, 2, 2, 3, 3]


def test_element_validation(group):
    with pytest.raises(ValueError):
        group.check("a")  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        group.check(True)  # type: ignore[arg-type]
    if group.is_finite:
        with pytest.raises(ValueError):
            group.check(int(group.size))


def test_cyclic_rejects_trivial_sizes():
    # n = 6.0 once gave Z/6.0, whose products were floats.
    for n in (1, 0, -3, True, 6.0, 2.5, "6", None):
        with pytest.raises(ValueError, match="n must be an int >= 2"):
            CyclicGroup(n)


def test_table_group_rejects_non_groups():
    broken = [row[:] for row in KLEIN_MUL]
    broken[3][3] = 1  # now x*x is not involutive and associativity breaks
    with pytest.raises(ValueError):
        FiniteTableGroup.from_mul(4, lambda x, y: broken[x][y])


def test_integer_enumeration_is_refused():
    with pytest.raises(ValueError):
        list(IntegerGroup().elements())


def test_window_is_all_elements_of_a_finite_group_and_an_interval_of_the_integers():
    s3 = FiniteTableGroup.from_mul(6, lambda x, y: S3_MUL[x][y])
    assert list(CyclicGroup(5).window(1)) == [0, 1, 2, 3, 4]
    assert list(s3.window(7)) == [0, 1, 2, 3, 4, 5]
    assert list(IntegerGroup().window(3)) == [-3, -2, -1, 0, 1, 2, 3]
    assert list(IntegerGroup().window(0)) == [0]


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-8, 8))
def test_integer_power_law(x, y, n):
    z = IntegerGroup()
    assert z.power(x, n) == n * x
    assert z.mul(x, y) == z.mul(y, x)


@given(st.integers(2, 12), st.integers(-30, 30), st.integers(-30, 30))
def test_cyclic_is_quotient_of_integers(n, a, b):
    c = CyclicGroup(n)
    assert c.mul(a % n, b % n) == (a + b) % n
    assert c.inv(a % n) == (-a) % n
    order = c.order(a % n)
    if a % n:
        assert order == n // math.gcd(a % n, n)
    else:
        assert order == 1


def test_designated_generator():
    assert designated_generator(IntegerGroup()) == 1
    assert designated_generator(CyclicGroup(5)) == 1
    assert designated_generator(FiniteTableGroup.from_mul(4, lambda x, y: KLEIN_MUL[x][y])) == 1
    # The first element of the table that is not the identity.
    z3 = FiniteTableGroup.from_mul(3, lambda x, y: (x + y + 1) % 3, identity=2)
    assert designated_generator(z3) == 0


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(n) for n in range(2, 13)]
    + [
        FiniteTableGroup.from_mul(4, lambda x, y: KLEIN_MUL[x][y]),
        # Z/6 with the residue r at index (r + 3) % 6: the identity is 3 and
        # the one involution is 0.
        FiniteTableGroup.from_mul(6, lambda x, y: (x + y - 3) % 6, identity=3),
    ],
    ids=str,
)
def test_inverse_pairs_partition_the_group(group):
    involutions, representatives = inverse_pairs(group)
    inverses = [group.inv(x) for x in representatives]
    assert sorted([group.identity, *involutions, *representatives, *inverses]) == list(group.elements())
    assert involutions == sorted(involutions) and representatives == sorted(representatives)
    assert all(group.inv(x) == x for x in involutions)
    assert all(x < y for x, y in zip(representatives, inverses))
