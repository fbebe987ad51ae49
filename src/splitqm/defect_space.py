"""Exact defect calculus for bounded alternating rational maps.

A defect vector is a bounded alternating map on a single carrier group
(finite, or the integers with finite support) with the defect norm

    dn(f) = sup |f(x) + f(y) - f(xy)|.

The module computes the norm exactly, checks the element-order bound and the
sup-norm sandwich, and builds the three norm-preserving embeddings attached
to subgroups, quotients, and short exact sequences of finite carriers.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .groups import INFINITE, FactorGroup, _fr, check_homomorphism, inverse_pairs
from .quasimorphisms import FactorQM

__all__ = [
    "DefectVector",
    "defect_norm",
    "defect_witness",
    "sup_norm",
    "OrderBoundReport",
    "order_bound_check",
    "GroupHom",
    "embed_subgroup",
    "pullback_quotient",
    "ShortExactSequence",
    "ses_embed",
    "alternating_vectors",
]


@dataclass(frozen=True)
class DefectVector:
    """A bounded alternating map with rational values and finite support."""

    carrier: FactorGroup
    values: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        # Reuse the factor-quasimorphism validation and window oracle; a
        # defect vector is exactly a factor map with no unbounded parts.
        qm = FactorQM(group=self.carrier, finite_part=dict(self.values))
        object.__setattr__(self, "values", dict(qm.finite_part))
        object.__setattr__(self, "_qm", qm)

    @property
    def qm(self) -> FactorQM:
        return self._qm  # type: ignore[attr-defined]

    def __call__(self, x: int) -> Fraction:
        return self.qm(x)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    @property
    def is_zero(self) -> bool:
        return not self.values

    def domain_elements(self) -> Iterator[int]:
        """Carrier elements (finite) or the certified support window."""
        yield from self.carrier.window(self.qm.defect_window())

    def __add__(self, other: "DefectVector") -> "DefectVector":
        if self.carrier != other.carrier:
            raise ValueError("defect vectors live on different carriers")
        keys = set(self.values) | set(other.values)
        return DefectVector(self.carrier, {x: self(x) + other(x) for x in keys})

    def __neg__(self) -> "DefectVector":
        return DefectVector(self.carrier, {x: -v for x, v in self.values.items()})

    def __sub__(self, other: "DefectVector") -> "DefectVector":
        return self + (-other)

    def scale(self, c) -> "DefectVector":
        c = _fr(c)
        return DefectVector(self.carrier, {x: c * v for x, v in self.values.items()})


def defect_norm(f: DefectVector) -> Fraction:
    """Exact supremum of |f(x)+f(y)-f(xy)| over all carrier pairs."""
    return f.qm.defect()


def defect_witness(f: DefectVector) -> tuple[Fraction, int, int]:
    return f.qm.defect_witness()


def sup_norm(f: DefectVector) -> Fraction:
    return max((abs(v) for v in f.values.values()), default=Fraction(0))


@dataclass(frozen=True)
class OrderBoundReport:
    checked: int
    defect: Fraction
    worst_slack: Fraction
    tight_at: int


def order_bound_check(f: DefectVector) -> OrderBoundReport:
    """Verify |f(g)| <= (1 - 2/ord(g)) * dn(f) for every non-identity g.

    Infinite-order elements use the factor 1.  A violation is impossible for
    a genuine alternating map and raises RuntimeError.
    """
    dn = defect_norm(f)
    checked = 0
    worst = None
    tight_at = f.carrier.identity
    for g in f.domain_elements():
        if f.carrier.is_identity(g):
            continue
        order = f.carrier.order(g)
        bound = dn if order == INFINITE else Fraction(order - 2, order) * dn
        slack = bound - abs(f(g))
        if slack < 0:
            raise RuntimeError(
                f"order bound fails at {g}: |f| = {abs(f(g))}, bound = {bound}"
            )
        checked += 1
        if worst is None or slack < worst:
            worst, tight_at = slack, g
    return OrderBoundReport(checked, dn, worst if worst is not None else Fraction(0), tight_at)


@dataclass(frozen=True)
class GroupHom:
    """An explicit homomorphism between finite carriers, checked exhaustively."""

    domain: FactorGroup
    codomain: FactorGroup
    mapping: Mapping[int, int]

    def __post_init__(self) -> None:
        if not (self.domain.is_finite and self.codomain.is_finite):
            raise ValueError("explicit homomorphisms need finite carriers")
        mapping = dict(self.mapping)
        for y in mapping.values():
            self.codomain.check(y)
        check_homomorphism(self.domain, mapping, self.codomain.mul, operator.eq)
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @property
    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    @property
    def kernel(self) -> frozenset:
        e = self.codomain.identity
        return frozenset(x for x, y in self.mapping.items() if y == e)

    @property
    def is_injective(self) -> bool:
        return len(self.image) == self.domain.size

    @property
    def is_surjective(self) -> bool:
        return len(self.image) == self.codomain.size


def embed_subgroup(f: DefectVector, i: GroupHom) -> DefectVector:
    """Extension by zero along an injective homomorphism; exactly isometric."""
    if i.domain != f.carrier:
        raise ValueError("the vector must live on the domain of the embedding")
    if not i.is_injective:
        raise ValueError("subgroup embedding requires an injective homomorphism")
    out = DefectVector(i.codomain, {i(x): v for x, v in f.values.items()})
    if defect_norm(out) != defect_norm(f):
        raise RuntimeError("extension by zero changed the defect norm")
    return out


def pullback_quotient(f: DefectVector, pi: GroupHom) -> DefectVector:
    """Composition with a surjection; exactly isometric."""
    if pi.codomain != f.carrier:
        raise ValueError("the vector must live on the codomain of the surjection")
    if not pi.is_surjective:
        raise ValueError("quotient pullback requires a surjective homomorphism")
    values = {g: f(pi(g)) for g in pi.domain.elements()}
    out = DefectVector(pi.domain, values)
    if defect_norm(out) != defect_norm(f):
        raise RuntimeError("quotient pullback changed the defect norm")
    return out


@dataclass(frozen=True)
class ShortExactSequence:
    """1 -> N -> G -> Q -> 1 with explicit maps, exactness checked."""

    i: GroupHom
    pi: GroupHom

    def __post_init__(self) -> None:
        if self.i.codomain != self.pi.domain:
            raise ValueError("the embedding and the surjection must share the middle group")
        if not self.i.is_injective:
            raise ValueError("the first map must be injective")
        if not self.pi.is_surjective:
            raise ValueError("the second map must be surjective")
        if self.i.image != self.pi.kernel:
            raise ValueError("image of the embedding must equal the kernel of the surjection")

    @property
    def middle(self) -> FactorGroup:
        return self.i.codomain


def ses_embed(
    f_sub: DefectVector, f_quot: DefectVector, ses: ShortExactSequence
) -> DefectVector:
    """The combined embedding: extension by zero plus pullback.

    On the image of the subgroup the pullback term vanishes (those elements
    map to the quotient identity), so the sum takes the value of ``f_sub``
    there and of the pulled-back ``f_quot`` elsewhere.  The defect norm of
    the result is exactly the max of the two input norms.
    """
    if f_sub.carrier != ses.i.domain:
        raise ValueError("the first vector must live on the subgroup")
    if f_quot.carrier != ses.pi.codomain:
        raise ValueError("the second vector must live on the quotient")
    out = embed_subgroup(f_sub, ses.i) + pullback_quotient(f_quot, ses.pi)
    expected = max(defect_norm(f_sub), defect_norm(f_quot))
    if defect_norm(out) != expected:
        raise RuntimeError("combined embedding is not isometric for the max norm")
    return out


def alternating_vectors(
    carrier: FactorGroup, choices: Sequence[Fraction]
) -> Iterator[DefectVector]:
    """All alternating maps on a finite carrier with free values in ``choices``.

    Elements pair off with their inverses; one representative per pair picks
    a value freely and the inverse gets the negative.  Involutions are forced
    to zero.  ``choices`` should be symmetric around zero so every assignment
    stays inside the advertised value set.
    """
    if not carrier.is_finite:
        raise ValueError("exhaustive enumeration needs a finite carrier")
    choices = tuple(_fr(c) for c in choices)
    representatives = inverse_pairs(carrier)[1]
    for assignment in itertools.product(choices, repeat=len(representatives)):
        values = {}
        for x, v in zip(representatives, assignment):
            if v:
                values[x] = v
                values[carrier.inv(x)] = -v
        yield DefectVector(carrier, values)
