"""Vector-valued split quasicocycles for isometric module actions.

Two module kinds are supported: finite-dimensional rational representations
(one invertible matrix per factor generator) and the left-regular
representation on finitely supported functions with rational values, under
the l^p norm for an integer p >= 1 or p = inf.  All vector identities are
exact.  The l1 and sup norms are exact Fractions; for an integer p >= 2 the
norm is a float, the p-th root of an exact integer sum.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .groups import (CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup, _fr, certified_window,
                     power_by_squaring)
from .words import A, B, Letter, Splitting, SplitMap, Word, _join, invert, memo_letter, multiply, reduce

__all__ = [
    "Matrix",
    "mat_mul",
    "mat_vec",
    "mat_pow",
    "mat_inv",
    "ModuleAction",
    "FiniteDimRep",
    "RegularRep",
    "FactorTableMap",
    "FactorCocycleMap",
    "SplitQC",
    "eval_split_qc",
    "qc_coboundary",
    "split_qc_defect",
    "inner_cocycle",
    "inner_split_eval",
    "GrowthCheckError",
    "ladder_word",
    "power_ladder_cocycle",
    "staircase_word",
    "staircase_cocycle",
]

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
DenseVector = tuple[Fraction, ...]
SparseVector = dict  # Word -> Fraction, no zero entries
Vector = Union[DenseVector, SparseVector]
# A vector as int numerators over a denominator kept beside it: a tuple of
# ints for a dense vector; for a sparse one a dict to non-zero ints from the
# letter tuples of normal-form words, which hash faster than the words.
Numerators = Union[tuple[int, ...], dict]
# A pair size (s, t) with t > 0: pairs are ordered by s / t.
Size = tuple[int, int]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(_fr(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    cols = list(zip(*m2))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in m1
    )


def mat_vec(m: Matrix, v: DenseVector) -> DenseVector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_pow(m: Matrix, k: int) -> Matrix:
    return power_by_squaring(mat_mul, mat_inv, identity_matrix(len(m)), m, k)


class ModuleAction(ABC):
    """A linear action of the free product on a coefficient space.

    ``is_isometry``, fixed at construction, says whether every group element
    keeps the norm that ``sum_size`` measures.  Pair sizes (``SplitMap.merge``,
    ``FactorTableMap.defect_witness``) hold only then, and raise ValueError
    on any other action; evaluation works on every action.
    """

    splitting: Splitting
    is_isometry: bool

    @abstractmethod
    def zero(self) -> Vector: ...

    @abstractmethod
    def add(self, u: Vector, v: Vector) -> Vector: ...

    @abstractmethod
    def scale(self, c: Fraction, v: Vector) -> Vector: ...

    @abstractmethod
    def act(self, g: Word, v: Vector) -> Vector: ...

    @abstractmethod
    def norm(self, v: Vector) -> Union[Fraction, float]: ...

    @abstractmethod
    def is_zero(self, v: Vector) -> bool: ...

    @abstractmethod
    def vector(self, data) -> Vector:
        """Validate and normalise outside data into a vector."""

    @abstractmethod
    def denominator(self, v: Vector) -> int:
        """The lcm of the denominators of the coordinates of v."""

    @abstractmethod
    def numerators(self, v: Vector, den: int) -> Numerators:
        """den * v as ints; den must be a multiple of ``denominator(v)``."""

    @abstractmethod
    def from_numerators(self, nums: Numerators, den: int) -> Vector:
        """The vector nums / den: the inverse of ``numerators``."""

    @abstractmethod
    def translate(self, side: str, x: int, nums: Numerators) -> tuple[Numerators, int]:
        """The letter (side, x) applied to int numerators over some den:
        (numerators of the image, d) with the image over den * d."""

    @abstractmethod
    def sum_size(
        self, u: Optional[Numerators], side: str, x: int, v: Optional[Numerators],
        w: Optional[Numerators], den: int,
    ) -> Size:
        """The norm of u + (side, x).v - w, all three over den and None for
        zero, as a pair size for ``size_value``: no Fraction is built."""

    @abstractmethod
    def size_value(self, s: int, t: int) -> Union[Fraction, float]:
        """The norm that ``sum_size`` measured as (s, t)."""

    def neg(self, v: Vector) -> Vector:
        return self.scale(Fraction(-1), v)

    def sub(self, u: Vector, v: Vector) -> Vector:
        return self.add(u, self.neg(v))

    def equal(self, u: Vector, v: Vector) -> bool:
        return self.is_zero(self.sub(u, v))


class FiniteDimRep(ModuleAction):
    """A rational matrix representation, one generator matrix per factor.

    Integer factors may use any invertible matrix; a cyclic factor of order n
    requires its matrix to have order dividing n.  Table-group factors are
    not supported, since they carry no designated generator.  The action is
    an isometry of the sup norm exactly when every generator matrix is a
    signed permutation matrix: one non-zero entry, 1 or -1, in each row.
    """

    def __init__(self, splitting: Splitting, mat_a: Sequence[Sequence], mat_b: Sequence[Sequence]):
        self.splitting = splitting
        self.mat = {A: as_matrix(mat_a), B: as_matrix(mat_b)}
        self.dim = len(self.mat[A])
        for side in (A, B):
            m = self.mat[side]
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValueError("generator matrices must be square and equal-sized")
            factor = splitting.factor(side)
            if isinstance(factor, FiniteTableGroup):
                raise ValueError("finite table factors have no designated generator")
            mat_inv(m)  # raises when singular
            if isinstance(factor, CyclicGroup):
                if mat_pow(m, factor.n) != identity_matrix(self.dim):
                    raise ValueError(
                        f"matrix for a cyclic factor of order {factor.n} must satisfy m^n = 1"
                    )
        # An invertible matrix with one entry of size 1 per row has one per column too.
        unit_row = [0] * (self.dim - 1) + [1]
        self.is_isometry = all(sorted(map(abs, row)) == unit_row for side in (A, B) for row in self.mat[side])
        # (side, k) -> (int rows, d): the letter's matrix is rows / d.
        self._letters: dict[tuple[str, int], tuple[IntMatrix, int]] = {}

    def zero(self) -> DenseVector:
        return tuple(Fraction(0) for _ in range(self.dim))

    def vector(self, coords: Sequence) -> DenseVector:
        v = tuple(_fr(x) for x in coords)
        if len(v) != self.dim:
            raise ValueError("coordinate count does not match the dimension")
        return v

    def add(self, u: DenseVector, v: DenseVector) -> DenseVector:
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, c: Fraction, v: DenseVector) -> DenseVector:
        c = _fr(c)
        return tuple(c * a for a in v)

    def _letter(self, side: str, k: int) -> tuple[IntMatrix, int]:
        """The matrix of the letter (side, k) scaled to integers by the
        common denominator d of its entries, and d, memoized per letter.
        Raises ValueError on a letter outside the factors."""
        entry = self._letters.get((side, k)) if type(k) is int else None
        if entry is None:
            entry = memo_letter(self.splitting, self._letters, (side, k), self._scaled_power)
        return entry

    def _scaled_power(self, side: str, k: int) -> tuple[IntMatrix, int]:
        m = mat_pow(self.mat[side], k)
        d = math.lcm(*(x.denominator for row in m for x in row))
        return tuple(tuple(int(x * d) for x in row) for row in m), d

    def denominator(self, v: DenseVector) -> int:
        return math.lcm(*(x.denominator for x in v))

    def numerators(self, v: DenseVector, den: int) -> tuple[int, ...]:
        return tuple(x.numerator * (den // x.denominator) for x in v)

    def from_numerators(self, nums: tuple[int, ...], den: int) -> DenseVector:
        return tuple(Fraction(n, den) for n in nums)

    def translate(self, side: str, x: int, nums: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The memoized int rows of the letter times nums, O(d^2)."""
        rows, d = self._letter(side, x)
        return tuple(sum(map(operator.mul, row, nums)) for row in rows), d

    def act(self, g: Word, v: DenseVector) -> DenseVector:
        """Translate v by the letters of g from right to left, on int
        numerators over one common denominator."""
        den = self.denominator(v)
        nums = self.numerators(v, den)
        for side, k in reversed(g):
            nums, d = self.translate(side, k, nums)
            den *= d
        return self.from_numerators(nums, den)

    def sum_size(self, u, side, x, v, w, den) -> Size:
        """The sup norm, as ``norm``.  Only an isometric action is sized, and
        its signed-permutation letter matrices are integral: d = 1."""
        zero = (0,) * self.dim
        t = zero if v is None else self.translate(side, x, v)[0]
        return max((abs(a + b - c) for a, b, c in zip(u or zero, t, w or zero)), default=0), den

    def size_value(self, s: int, t: int) -> Fraction:
        return Fraction(s, t)

    def norm(self, v: DenseVector) -> Fraction:
        """The sup norm, the one the certified scans measure."""
        return max((abs(x) for x in v), default=Fraction(0))

    def is_zero(self, v: DenseVector) -> bool:
        return not any(v)


class RegularRep(ModuleAction):
    """Left translation on finitely supported rational functions on the group.

    Vectors are dicts from words to non-zero rationals; translating by g
    moves the mass at h to g*h, which is an exact isometry for every
    exponent p: an integer p >= 1 or ``math.inf``.
    """

    is_isometry = True

    def __init__(self, splitting: Splitting, p: Union[int, float] = 1):
        if p != math.inf and (type(p) is not int or p < 1):
            raise ValueError("the exponent must be an integer p >= 1 or math.inf")
        self.splitting = splitting
        self.p = p

    def zero(self) -> SparseVector:
        return {}

    def indicator(self, g: Word, value=Fraction(1)) -> SparseVector:
        return self.vector({g: value})

    def vector(self, entries: Mapping[Word, Fraction]) -> SparseVector:
        """Reduce every key to its normal form, which checks its letters, sum
        the values of equal normal forms and drop the zeros."""
        out: dict[Word, Fraction] = {}
        for g, value in entries.items():
            g = reduce(self.splitting, g)
            out[g] = out.get(g, 0) + _fr(value)
        return {g: value for g, value in out.items() if value}

    def add(self, u: SparseVector, v: SparseVector) -> SparseVector:
        out = dict(u)
        _add_into(out, v, 1)
        return out

    def scale(self, c: Fraction, v: SparseVector) -> SparseVector:
        c = _fr(c)
        if not c:
            return {}
        return {g: c * value for g, value in v.items()}

    def act(self, g: Word, v: SparseVector) -> SparseVector:
        """Reduce g once, checking its letters, and join it onto each key."""
        s = self.splitting
        g = reduce(s, g)
        return {Word(_join(s, g, h)): value for h, value in v.items()}

    def norm(self, v: SparseVector) -> Union[Fraction, float]:
        if self.p == 1:
            return sum((abs(x) for x in v.values()), Fraction(0))
        if self.p == math.inf:
            return max((abs(x) for x in v.values()), default=Fraction(0))
        return float(sum(abs(x) ** self.p for x in v.values())) ** (1.0 / self.p)

    def is_zero(self, v: SparseVector) -> bool:
        return not v

    def denominator(self, v: SparseVector) -> int:
        return math.lcm(*(x.denominator for x in v.values()))

    def numerators(self, v: SparseVector, den: int) -> dict[tuple, int]:
        return {g: x.numerator * (den // x.denominator) for g, x in v.items()}

    def from_numerators(self, nums: dict[tuple, int], den: int) -> SparseVector:
        return {Word(g): Fraction(n, den) for g, n in nums.items()}

    def translate(self, side: str, x: int, nums: dict[tuple, int]) -> tuple[dict[tuple, int], int]:
        """Join the letter onto each key at the junction: the keys are normal
        forms, so no key is reduced again and no letter checked.  An identity
        letter acts trivially; joined on, it would leave an identity letter
        in front of a key that does not start on its side."""
        if self.splitting.factor(side).is_identity(x):
            return nums, 1
        s, letter = self.splitting, ((side, x),)
        return {_join(s, letter, g): n for g, n in nums.items()}, 1

    def sum_size(self, u, side, x, v, w, den) -> Size:
        """Over den, l1 sums the absolute numerators and p = inf takes their
        maximum; any other p sums their p-th powers, over den**p."""
        total = dict(u) if u else {}
        if v:
            _add_into(total, self.translate(side, x, v)[0], 1)
        if w:
            _add_into(total, w, -1)
        p, nums = self.p, total.values()
        if p == 1:
            return sum(map(abs, nums)), den
        if p == math.inf:
            return max(map(abs, nums), default=0), den
        return sum(abs(n) ** p for n in nums), den**p

    def size_value(self, s: int, t: int) -> Union[Fraction, float]:
        p = self.p
        if p == 1 or p == math.inf:
            return Fraction(s, t)
        return float(Fraction(s, t)) ** (1.0 / p)


def _add_into(total: dict, terms: dict, sign: int) -> None:
    """total += sign * terms on sparse vectors or numerators, dropping the keys that cancel."""
    for g, n in terms.items():
        n = total.get(g, 0) + sign * n
        if n:
            total[g] = n
        else:
            total.pop(g, None)


class FactorTableMap(ABC):
    """A finitely supported alternating map on one factor, kept as a table.

    Values may be given on any set of elements; the inverse of each support
    element receives the value alternation forces, and inconsistent explicit
    pairs are rejected, an explicit trivial value included.  The defect is
    certified over the support alone; ``certified_window`` orders witnesses.

    Subclasses supply the target: ``trivial()`` (the zero vector or the
    identity), ``forced_inverse(inv_x, v)`` (the value at inv_x when its
    inverse maps to v), ``equal`` where ``==`` does not do, and for the scan
    ``pair_sizer()``, ``value_sizes()`` and ``size_value``, which give the
    size of a pair (how far it is from the cocycle or homomorphism identity)
    exactly as (s, t), ordered by s / t.  ``is_isometry`` says whether the
    target is a bi-invariant metric or an isometric action: pair sizes and
    the defect hold only then, so ``pair_sizer`` refuses any other target.
    """

    is_isometry: bool

    def __init__(self, side: str, group: FactorGroup, values: Mapping):
        self.side = side
        self.group = group
        table = {}
        for x, v in values.items():
            group.check(x)
            if self._is_trivial(v):
                continue
            if group.is_identity(x):
                raise ValueError("the map must be trivial at the identity")
            table[x] = v
        # A non-trivial value forces a non-trivial one, so every forced value is kept.
        for x in list(table):
            inv_x = group.inv(x)
            forced = self.forced_inverse(inv_x, table[x])
            if inv_x not in values:
                table[inv_x] = forced
            elif not self.equal(values[inv_x], forced):
                raise ValueError(f"map breaks alternation at {x}")
        self.table = table

    @abstractmethod
    def trivial(self): ...

    @abstractmethod
    def forced_inverse(self, inv_x: int, value): ...

    def equal(self, u, v) -> bool:
        return u == v

    @abstractmethod
    def pair_sizer(self) -> Callable[[int, int, int], Size]:
        """A function from (x, y, xy) to the size of the pair (x, y) as (s, t)
        with t > 0, ``size_value(s, t)`` as a number; ValueError unless ``is_isometry``."""

    @abstractmethod
    def value_sizes(self) -> dict[int, Size]:
        """The size of each table value alone, as (s, t): the size of a pair
        whose only table entry is that value."""

    @abstractmethod
    def size_value(self, s: int, t: int) -> Union[Fraction, float]: ...

    def _is_trivial(self, v) -> bool:
        return self.equal(v, self.trivial())

    def __call__(self, x: int):
        self.group.check(x)
        return self.table.get(x, self.trivial())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.table))

    @property
    def support_radius(self) -> int:
        return max((abs(x) for x in self.table), default=0)

    def defect_window(self) -> int:
        return certified_window(self.support_radius)

    def defect_witness(self) -> tuple[Union[Fraction, float], int, int]:
        """(defect, first pair attaining it in x-outer, y-inner window order);
        ValueError unless ``is_isometry``.

        With c(x, y) = f(x) + x.f(y) - f(xy) and z = (xy)^-1, alternation
        gives c(y, z) = x^-1.c(x, y) and c(y^-1, x^-1) = -(xy)^-1.c(x, y), so
        on an isometry the orbit (x, y), (y, z), (z, x), (y^-1, x^-1),
        (x^-1, z^-1), (z^-1, y^-1) has one size, and a pair with an entry at
        x, y or xy has a member with x in the support T: the rows.  The
        columns are the whole group on a finite factor and T on Z, where a
        pair with two entries has a member in T x T, and one whose only entry
        is t has the size of f(t) and comes first as (-W, t).  A pair is
        skipped when its mirror (y^-1, x^-1) or a rotation, (y, z) or (z, x),
        is also a row-and-column pair and comes first.  The witness is the
        least in-window orbit member of a maximal pair."""
        size, group, table = self.pair_sizer(), self.group, self.table
        e = group.identity
        if not table:
            return Fraction(0), e, e
        mul, inv = group.mul, group.inv
        # The window is the ints lo..hi in ascending order on every factor.
        window = group.window(self.defect_window())
        lo, hi = window[0], window[-1]
        inverse = {x: inv(x) for x in table}

        def first(x: int, y: int, xy: int) -> tuple[int, int]:
            iy, z = inv(y), inv(xy)
            orbit = ((x, y), (y, z), (z, x), (iy, inverse[x]), (inverse[x], xy), (xy, iy))
            return min((a, b) for a, b in orbit if lo <= a <= hi and lo <= b <= hi)

        best_s, best_t, best = 0, 1, (e, e)
        columns = window
        if not group.is_finite:
            columns = table
            for y, (s, t) in sorted(self.value_sizes().items()):
                if s * best_t > best_s * t:
                    best_s, best_t, best = s, t, (lo, y)
        for x, ix in inverse.items():
            for y in columns:
                iy = inverse.get(y)
                if iy is not None and (iy, ix) < (x, y):
                    continue
                xy = mul(x, y)
                z = inverse.get(xy)
                if z is not None and ((z, x) < (x, y) or iy is not None and (y, z) < (x, y)):
                    continue
                s, t = size(x, y, xy)
                if s * best_t > best_s * t:
                    best_s, best_t, best = s, t, first(x, y, xy)
                elif s and s * best_t == best_s * t:
                    best = min(best, first(x, y, xy))
        return (self.size_value(best_s, best_t) if best_s else Fraction(0)), *best

    def defect(self) -> Union[Fraction, float]:
        return self.defect_witness()[0]


class FactorCocycleMap(FactorTableMap):
    """A finitely supported alternating cocycle on one factor; the inverse of
    each support element receives the forced value -x^-1.f(x).

    Every value passes through ``action.vector`` (a dense value must have
    the action's dimension; a regular one has normal-form keys), so values
    are canonical, compare with ``==``, and the scan can trust the table."""

    def __init__(self, side: str, action: ModuleAction, values: Mapping[int, Vector]):
        self.action = action
        values = {x: action.vector(v) for x, v in values.items()}
        super().__init__(side, action.splitting.factor(side), values)

    def __call__(self, x: int) -> Vector:
        v = super().__call__(x)  # a sparse value is copied, so changing it leaves the table as it is
        return dict(v) if type(v) is dict else v

    def trivial(self) -> Vector:
        return self.action.zero()

    def _is_trivial(self, v: Vector) -> bool:
        return self.action.is_zero(v)

    def forced_inverse(self, inv_x: int, value: Vector) -> Vector:
        """The letter inv_x translates the numerators of the value; the
        negative denominator negates the vector built from them."""
        m = self.action
        den = m.denominator(value)
        nums, d = m.translate(self.side, inv_x, m.numerators(value, den))
        return m.from_numerators(nums, -den * d)

    @cached_property
    def _scaled_table(self) -> tuple[dict[int, Numerators], int]:
        """The table as int numerators over one denominator D, the lcm of the
        denominators of all its coordinates."""
        m = self.action
        den = math.lcm(*(m.denominator(v) for v in self.table.values()))
        return {x: m.numerators(v, den) for x, v in self.table.items()}, den

    @property
    def is_isometry(self) -> bool:
        return self.action.is_isometry

    def pair_sizer(self) -> Callable[[int, int, int], Size]:
        """x.f(y) alone is not translated: it has the size of f(y)."""
        if not self.is_isometry:
            raise ValueError("coboundary sizes are certified only on an isometric action")
        nums, den = self._scaled_table
        get, side, sum_size = nums.get, self.side, self.action.sum_size

        def size(x: int, y: int, xy: int) -> Size:
            u, w = get(x), get(xy)
            if u is None and w is None:
                return sum_size(get(y), side, x, None, None, den)
            return sum_size(u, side, x, get(y), w, den)
        return size

    def value_sizes(self) -> dict[int, Size]:
        nums, den = self._scaled_table
        return {x: self.action.sum_size(u, self.side, x, None, None, den) for x, u in nums.items()}

    def size_value(self, s: int, t: int) -> Union[Fraction, float]:
        return self.action.size_value(s, t)


@dataclass(frozen=True)
class SplitQC(SplitMap):
    """The split quasicocycle built from two factor cocycle maps; its letter
    memo holds each letter's value as int numerators over ``denominator``."""

    splitting: Splitting
    action: ModuleAction
    fA: FactorCocycleMap
    fB: FactorCocycleMap
    codomain = "action"

    @property
    def factor_maps(self) -> tuple[FactorCocycleMap, FactorCocycleMap]:
        return self.fA, self.fB

    @property
    def is_isometry(self) -> bool:
        return self.action.is_isometry

    @cached_property
    def denominator(self) -> int:
        """The common denominator D of both factor maps' scaled tables."""
        return math.lcm(self.fA._scaled_table[1], self.fB._scaled_table[1])

    def letter_value(self, side: str, x: int) -> Numerators:
        """The factor value at x over D: the action's zero numerators off the support."""
        return self.action.numerators(self.factor_map(side)(x), self.denominator)

    def size_value(self, s: int, t: int) -> Union[Fraction, float]:
        return self.action.size_value(s, t)

    def __call__(self, g: Word) -> Vector:
        return eval_split_qc(self, g)


def _numerator_total(
    m: ModuleAction, letters: tuple[Letter, ...], value: Callable[[Letter], Numerators]
) -> tuple[Numerators, int]:
    """The prefix-translated sum of value(letter), numerators over some den,
    by the cocycle recursion f(x.h) = f(x) + x.f(h) from the right: (total,
    k) with the sum total / (den * k).  A letter matrix with denominator d
    multiplies k by d and the values are scaled by k.  A zero sum is not
    translated and resets k to 1.  ``value`` checks each letter; a sparse
    value is added into the translated dict, which is new unless the letter
    is an identity, whose value is zero, so no value is changed."""
    sparse = isinstance(m, RegularRep)
    nonzero, translate = (bool if sparse else any), m.translate
    total, k = None, 1
    for letter in reversed(letters):
        head = value(letter)
        if total is None or not nonzero(total):
            total, k = head, 1
            continue
        total, d = translate(letter[0], letter[1], total)
        if sparse:
            _add_into(total, head, 1)
        else:
            k *= d
            total = tuple(k * a + b for a, b in zip(head, total))
    return (m.numerators(m.zero(), 1) if total is None else total), k


def _numerator_sum(
    m: ModuleAction, letters: tuple[Letter, ...], value: Callable[[Letter], Numerators], den: int
) -> Vector:
    total, k = _numerator_total(m, letters, value)
    return m.from_numerators(total, den * k)


def eval_split_qc(f: SplitQC, g: Word) -> Vector:
    """The numerator sum over the map's letter memo, which checks every letter."""
    return _numerator_sum(f.action, g, f.letter, f.denominator)


def qc_coboundary(f: SplitQC, g: Word, h: Word) -> Vector:
    m = f.action
    gh = multiply(f.splitting, g, h)
    return m.sub(m.add(eval_split_qc(f, g), m.act(g, eval_split_qc(f, h))), eval_split_qc(f, gh))


split_qc_defect = SplitMap.defect


def inner_cocycle(m: ModuleAction, v: Vector, g: Word) -> Vector:
    """g.v - v."""
    return m.sub(m.act(g, v), v)


def inner_split_eval(m: ModuleAction, v: Vector, g: Word) -> Vector:
    """Split evaluation of the two factor restrictions of the inner cocycle;
    telescopes to the inner cocycle itself.  Each distinct letter x is
    checked and x.v - v computed once, as numerators over one denominator."""
    values: dict[Letter, Vector] = {}
    for letter in g:
        if type(letter[1]) is not int or letter not in values:
            memo_letter(m.splitting, values, letter, lambda side, x: inner_cocycle(m, v, Word(((side, x),))))
    den = math.lcm(*map(m.denominator, values.values()))
    nums = {letter: m.numerators(u, den) for letter, u in values.items()}
    return _numerator_sum(m, g, nums.__getitem__, den)


class GrowthCheckError(RuntimeError):
    """A witness construction failed its exact growth identities."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _is_multiple(f: SplitQC, g: Word, n: int, nums: Numerators, den: int) -> bool:
    """Whether f(g) = n * nums / den, with f(g) = total / (D * k) from
    ``_numerator_total``: total * den and n * nums * D * k are compared as
    ints, so no Fraction is built."""
    total, k = _numerator_total(f.action, g, f.letter)
    c = n * f.denominator * k
    if type(total) is dict:  # neither side keeps a zero entry
        return total.keys() == (nums.keys() if c else set()) and all(a * den == c * nums[h] for h, a in total.items())
    return all(a * den == c * b for a, b in zip(total, nums))


def _growth_cocycle(
    m: ModuleAction, v: Vector, word: Callable[[int], Word], depth: int, name: str, literal: bool = False
) -> tuple[FactorCocycleMap, SplitQC]:
    """The factor cocycle whose value at each A letter of word(depth) is the
    prefix before that letter, inverted and applied to v, with its split map.
    ``literal`` moves the prefix's last letter to its front instead.

    Raises GrowthCheckError unless the split map is n * v on word(n) for
    every n <= depth, checked on int numerators by ``_is_multiple``.
    """
    s = m.splitting
    if not isinstance(s.A, IntegerGroup):
        raise ValueError(f"the {name} construction lives over an integer first factor")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    letters = word(depth)
    values = {}
    for i, (side, x) in enumerate(letters):
        if side == A:
            prefix = Word(letters[:i])  # a normal form, as word(depth) is one
            if literal:  # its last letter moved to the front, where it may merge
                prefix = Word(_join(s, letters[i - 1 : i], letters[: i - 1]))
            values[x] = m.act(invert(s, prefix), v)
    f = SplitQC(s, m, FactorCocycleMap(A, m, values), FactorCocycleMap(B, m, {}))
    den = m.denominator(v)
    nums = m.numerators(v, den)
    for n in range(depth + 1):
        if not _is_multiple(f, word(n), n, nums, den):
            raise GrowthCheckError(f"{name} evaluation at depth {n} is not {n} times the seed vector")
    return f.fA, f


def ladder_word(s: Splitting, p: int, n: int) -> Word:
    """b a^p b a^(p^2) ... b a^(p^n); the empty word for n = 0."""
    letters = []
    for i in range(1, n + 1):
        letters.extend([(B, 1), (A, p**i)])
    return Word(letters)


def power_ladder_cocycle(
    m: ModuleAction,
    p: int,
    v: Vector,
    depth: int,
    check_prime: Optional[int] = None,
    convention: str = "prefix",
) -> tuple[FactorCocycleMap, SplitQC]:
    """A factor cocycle supported on the powers a^(p^i), i <= depth, whose
    split evaluation grows linearly along the ladder words of p and vanishes
    along the ladder words of any other prime.

    The value at a^(p^i) is the ladder prefix (ladder(p, i-1) * b) inverted
    and applied to v; this is the unique choice that telescopes.  Setting
    ``convention="literal"`` uses (b * ladder(p, i-1)) inverted instead,
    which breaks the growth identity and exists as a negative control.

    Raises GrowthCheckError when the identities fail at any depth.
    """
    if not _is_prime(p):
        raise ValueError("the ladder base must be prime")
    if convention not in ("prefix", "literal"):
        raise ValueError(f"unknown convention {convention!r}")
    s = m.splitting
    fA, f = _growth_cocycle(m, v, lambda n: ladder_word(s, p, n), depth, "ladder", convention == "literal")
    if check_prime is not None:
        if not _is_prime(check_prime) or check_prime == p:
            raise ValueError("the control base must be a different prime")
        den = m.denominator(v)
        nums = m.numerators(v, den)
        for n in range(depth + 1):
            if not _is_multiple(f, ladder_word(s, check_prime, n), 0, nums, den):
                raise GrowthCheckError(f"ladder evaluation for the control prime is non-zero at depth {n}")
    return fA, f


def staircase_word(s: Splitting, n: int) -> Word:
    """a b a^2 b a^3 b ... a^(n-1) b a^n; the empty word for n = 0."""
    letters: list[tuple[str, int]] = []
    for k in range(1, n + 1):
        if k > 1:
            letters.append((B, 1))
        letters.append((A, k))
    return Word(letters)


def staircase_cocycle(
    m: ModuleAction, xi: Vector, depth: int
) -> tuple[FactorCocycleMap, SplitQC]:
    """A factor cocycle supported on a, a^2, ..., a^depth whose split
    evaluation along the staircase words grows linearly: f(w_n) = n * xi.

    The value at a is xi itself; at a^n (n >= 2) it is the staircase prefix
    (staircase(n-1) * b) inverted and applied to xi.
    """
    return _growth_cocycle(m, xi, lambda n: staircase_word(m.splitting, n), depth, "staircase")
