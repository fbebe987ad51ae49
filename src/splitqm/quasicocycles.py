"""Vector-valued split quasicocycles for isometric module actions.

Two module kinds are supported: finite-dimensional rational representations
(one invertible matrix per factor generator) and the left-regular
representation on finitely supported functions with rational values, under
the l^p norm for an integer p >= 1 or p = inf.  All vector identities are
exact.  The l1 and sup norms are exact Fractions; for an integer p >= 2 the
norm is a float, the p-th root of an exact integer sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .groups import CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup, _fr, certified_window
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
    if k < 0:
        m, k = mat_inv(m), -k
    acc = identity_matrix(len(m))
    while k:
        if k & 1:
            acc = mat_mul(acc, m)
        m = mat_mul(m, m)
        k >>= 1
    return acc


class ModuleAction(ABC):
    """A linear isometric action of the free product on a coefficient space."""

    splitting: Splitting

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
    not supported, since they carry no designated generator.
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

    def translate(self, side: str, x: int, nums: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The memoized int rows of the letter times nums, O(d^2)."""
        rows, d = self._letter(side, x)
        return tuple(sum(map(operator.mul, row, nums)) for row in rows), d

    def act(self, g: Word, v: DenseVector) -> DenseVector:
        """Translate v by the letters of g from right to left, on int
        numerators over one common denominator."""
        den = self.denominator(v)
        nums = self.numerators(v, den)
        for side, k in reversed(g.letters):
            nums, d = self.translate(side, k, nums)
            den *= d
        return tuple(Fraction(n, den) for n in nums)

    def sum_size(self, u, side, x, v, w, den) -> Size:
        """The sup norm, as ``norm``; the translation multiplies the
        denominator by the letter's d."""
        zero = (0,) * self.dim
        t, d = (zero, 1) if v is None else self.translate(side, x, v)
        gap = (abs(d * a + b - d * c) for a, b, c in zip(u or zero, t, w or zero))
        return max(gap, default=0), den * d

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
            g = reduce(self.splitting, g.letters)
            out[g] = out.get(g, 0) + _fr(value)
        return {g: value for g, value in out.items() if value}

    def add(self, u: SparseVector, v: SparseVector) -> SparseVector:
        out = dict(u)
        for g, value in v.items():
            total = out.get(g, Fraction(0)) + value
            if total:
                out[g] = total
            else:
                out.pop(g, None)
        return out

    def scale(self, c: Fraction, v: SparseVector) -> SparseVector:
        c = _fr(c)
        if not c:
            return {}
        return {g: c * value for g, value in v.items()}

    def act(self, g: Word, v: SparseVector) -> SparseVector:
        s = self.splitting
        return {multiply(s, g, h): value for h, value in v.items()}

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
        return {g.letters: x.numerator * (den // x.denominator) for g, x in v.items()}

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


def _add_into(total: dict[tuple, int], terms: dict[tuple, int], sign: int) -> None:
    """total += sign * terms on sparse numerators, dropping keys that cancel."""
    for g, n in terms.items():
        n = total.get(g, 0) + sign * n
        if n:
            total[g] = n
        else:
            del total[g]


def _one_letter(side: str, x: int) -> Word:
    return Word(((side, x),))


class FactorTableMap(ABC):
    """A finitely supported alternating map on one factor, kept as a table.

    Values may be given on any set of elements; the inverse of each support
    element receives the value alternation forces, and inconsistent explicit
    pairs are rejected.  A table is a factor quasimorphism's finite part with
    period 1, so its defect is certified by ``certified_window``.

    Subclasses supply the target: ``trivial()`` (the zero vector or the
    identity), ``forced_inverse(inv_x, v)`` (the value at inv_x when its
    inverse maps to v), ``equal``, and for the scan ``pair_sizer()`` and
    ``size_value``, which give the size of a pair (how far it is from the
    cocycle or homomorphism identity) exactly as (s, t), ordered by s / t.
    """

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
        for x in list(table):
            inv_x = group.inv(x)
            forced = self.forced_inverse(inv_x, table[x])
            if inv_x in table:
                if not self.equal(table[inv_x], forced):
                    raise ValueError(f"map breaks alternation at {x}")
            elif not self._is_trivial(forced):
                table[inv_x] = forced
        self.table = table

    @abstractmethod
    def trivial(self): ...

    @abstractmethod
    def forced_inverse(self, inv_x: int, value): ...

    @abstractmethod
    def equal(self, u, v) -> bool: ...

    @abstractmethod
    def pair_sizer(self) -> Callable[[int, int, int], Size]:
        """A function from (x, y, xy) to the size of the pair (x, y) as (s, t)
        with t > 0; ``size_value(s, t)`` is that size as a number."""

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
        """(defect, first pair attaining it in x-outer, y-inner window order).

        A pair with x, y and xy all off the support has the trivial
        coboundary, of size 0, so it cannot beat the strict maximum and is
        skipped.  Sizes (s, t) compare exactly by cross-multiplying, and the
        defect is built once, from the winning pair."""
        group, table = self.group, self.table
        size = self.pair_sizer()
        best_s, best_t, best_x, best_y = 0, 1, group.identity, group.identity
        for x, y in itertools.product(group.window(self.defect_window()), repeat=2):
            xy = group.mul(x, y)
            if x not in table and y not in table and xy not in table:
                continue
            s, t = size(x, y, xy)
            if s * best_t > best_s * t:
                best_s, best_t, best_x, best_y = s, t, x, y
        return (self.size_value(best_s, best_t) if best_s else Fraction(0)), best_x, best_y

    def defect(self) -> Union[Fraction, float]:
        return self.defect_witness()[0]


class FactorCocycleMap(FactorTableMap):
    """A finitely supported alternating cocycle on one factor; the inverse of
    each support element receives the forced value -x^-1.f(x).

    Every value passes through ``action.vector`` (a dense value must have
    the action's dimension; a regular one has normal-form keys), so the scan
    can trust the table."""

    def __init__(self, side: str, action: ModuleAction, values: Mapping[int, Vector]):
        self.action = action
        values = {x: action.vector(v) for x, v in values.items()}
        super().__init__(side, action.splitting.factor(side), values)

    def trivial(self) -> Vector:
        return self.action.zero()

    def forced_inverse(self, inv_x: int, value: Vector) -> Vector:
        return self.action.neg(self.action.act(_one_letter(self.side, inv_x), value))

    def equal(self, u: Vector, v: Vector) -> bool:
        return self.action.equal(u, v)

    @cached_property
    def _scaled_table(self) -> tuple[dict[int, Numerators], int]:
        """The table as int numerators over one denominator D, the lcm of the
        denominators of all its coordinates."""
        m = self.action
        den = math.lcm(*(m.denominator(v) for v in self.table.values()))
        return {x: m.numerators(v, den) for x, v in self.table.items()}, den

    def pair_sizer(self) -> Callable[[int, int, int], Size]:
        nums, den = self._scaled_table
        get, side, sum_size = nums.get, self.side, self.action.sum_size
        return lambda x, y, xy: sum_size(get(x), side, x, get(y), get(xy), den)

    def size_value(self, s: int, t: int) -> Union[Fraction, float]:
        return self.action.size_value(s, t)


@dataclass(frozen=True)
class SplitQC(SplitMap):
    """The split quasicocycle built from two factor cocycle maps."""

    splitting: Splitting
    action: ModuleAction
    fA: FactorCocycleMap
    fB: FactorCocycleMap
    codomain = "action"

    @property
    def factor_maps(self) -> tuple[FactorCocycleMap, FactorCocycleMap]:
        return self.fA, self.fB

    def __call__(self, g: Word) -> Vector:
        return eval_split_qc(self, g)


def _letter_sum(m: ModuleAction, g: Word, value: Callable[[Letter], Vector]) -> Vector:
    """The prefix-translated sum of value(letter) over the letters of g, by
    the cocycle recursion f(x.h) = f(x) + x.f(h) from the right: one
    single-letter action per letter, and none while the suffix sum is zero."""
    total = m.zero()
    for letter in reversed(g.letters):
        head = value(letter)
        if not m.is_zero(total):
            head = m.add(head, m.act(Word((letter,)), total))
        total = head
    return total


def eval_split_qc(f: SplitQC, g: Word) -> Vector:
    """Prefix-translated sum of the letter values from the map's letter
    memo.  The result may be a table or memo entry itself: vectors are
    values, and nothing may mutate them."""
    return _letter_sum(f.action, g, f.letter)


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
    telescopes to the inner cocycle itself."""
    return _letter_sum(m, g, lambda letter: inner_cocycle(m, v, Word((letter,))))


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


def ladder_word(s: Splitting, p: int, n: int) -> Word:
    """b a^p b a^(p^2) ... b a^(p^n); the empty word for n = 0."""
    letters = []
    for i in range(1, n + 1):
        letters.extend([(B, 1), (A, p**i)])
    return Word(tuple(letters))


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
    s = m.splitting
    if not isinstance(s.A, IntegerGroup):
        raise ValueError("the ladder construction lives over an integer first factor")
    if not _is_prime(p):
        raise ValueError("the ladder base must be prime")
    if convention not in ("prefix", "literal"):
        raise ValueError(f"unknown convention {convention!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    b = _one_letter(B, 1)
    values = {}
    for i in range(1, depth + 1):
        prefix = ladder_word(s, p, i - 1)
        if convention == "prefix":
            translator = invert(s, multiply(s, prefix, b))
        else:
            translator = invert(s, multiply(s, b, prefix))
        values[p**i] = m.act(translator, v)
    fA = FactorCocycleMap(A, m, values)
    fB = FactorCocycleMap(B, m, {})
    f = SplitQC(s, m, fA, fB)
    for n in range(depth + 1):
        expected = m.scale(Fraction(n), v)
        got = eval_split_qc(f, ladder_word(s, p, n))
        if not m.equal(got, expected):
            raise GrowthCheckError(
                f"ladder evaluation at depth {n} is not {n} times the seed vector"
            )
    if check_prime is not None:
        if not _is_prime(check_prime) or check_prime == p:
            raise ValueError("the control base must be a different prime")
        for n in range(depth + 1):
            got = eval_split_qc(f, ladder_word(s, check_prime, n))
            if not m.is_zero(got):
                raise GrowthCheckError(
                    f"ladder evaluation for the control prime is non-zero at depth {n}"
                )
    return fA, f


def staircase_word(s: Splitting, n: int) -> Word:
    """a b a^2 b a^3 b ... a^(n-1) b a^n; the empty word for n = 0."""
    letters: list[tuple[str, int]] = []
    for k in range(1, n + 1):
        if k > 1:
            letters.append((B, 1))
        letters.append((A, k))
    return Word(tuple(letters))


def staircase_cocycle(
    m: ModuleAction, xi: Vector, depth: int
) -> tuple[FactorCocycleMap, SplitQC]:
    """A factor cocycle supported on a, a^2, ..., a^depth whose split
    evaluation along the staircase words grows linearly: f(w_n) = n * xi.

    The value at a is xi itself; at a^n (n >= 2) it is the staircase prefix
    (staircase(n-1) * b) inverted and applied to xi.
    """
    s = m.splitting
    if not isinstance(s.A, IntegerGroup):
        raise ValueError("the staircase construction lives over an integer first factor")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    b = _one_letter(B, 1)
    values: dict[int, Vector] = {1: xi}
    for n in range(2, depth + 1):
        translator = invert(s, multiply(s, staircase_word(s, n - 1), b))
        values[n] = m.act(translator, xi)
    fA = FactorCocycleMap(A, m, values)
    fB = FactorCocycleMap(B, m, {})
    f = SplitQC(s, m, fA, fB)
    for n in range(depth + 1):
        expected = m.scale(Fraction(n), xi)
        if not m.equal(eval_split_qc(f, staircase_word(s, n)), expected):
            raise GrowthCheckError(
                f"staircase evaluation at depth {n} is not {n} times the seed vector"
            )
    return fA, f
