"""Exact defect calculus for bounded alternating rational maps.

The space D(A) is the bounded alternating maps on one factor group A,
finite or the integers with finite support, with the defect norm

    dn(f) = sup |f(x) + f(y) - f(xy)|.

Its elements are ``FactorQM``s with no slope, period or sign term; their
arithmetic and the exact norm, ``f.defect()``, live on ``FactorQM``.  This
module checks the sup-norm sandwich and the element-order bound, and builds
the three norm-preserving embeddings attached to subgroups, quotients and
short exact sequences of finite groups.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .groups import INFINITE, FactorGroup, _fr, check_homomorphism, inverse_pairs, set_alternating
from .quasimorphisms import FactorQM

__all__ = [
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


def sup_norm(f: FactorQM) -> Fraction:
    """The largest |f(x)|, for a map that is its finite part alone.

    ValueError for a map with a slope, a period or a sign term, whose
    largest finite-part value is not its sup."""
    if f.slope or f.sign_coeff or f.period is not None:
        raise ValueError("sup_norm needs a finitely supported map: no slope, period or sign term")
    return max(map(abs, f.finite_part.values()), default=Fraction(0))


@dataclass(frozen=True)
class OrderBoundReport:
    checked: int
    defect: Fraction
    worst_slack: Fraction
    tight_at: int


def order_bound_check(f: FactorQM) -> OrderBoundReport:
    """Verify the sandwich sup|f| <= dn(f) <= 3 sup|f| and |f(g)| <= (1 -
    2/ord(g)) * dn(f) for every non-identity g.

    Infinite-order elements use the factor 1.  A violation is impossible for
    a genuine alternating map and raises RuntimeError.
    """
    sup, dn = sup_norm(f), f.defect()
    if not sup <= dn <= 3 * sup:
        raise RuntimeError(f"norm sandwich fails: sup {sup}, defect {dn}")
    checked = 0
    worst = None
    group = f.group
    tight_at = group.identity
    for g in group.window(f.defect_window()):
        if group.is_identity(g):
            continue
        order = group.order(g)
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


def embed_subgroup(f: FactorQM, i: GroupHom) -> FactorQM:
    """Extension by zero along an injective homomorphism; exactly isometric."""
    if i.domain != f.group:
        raise ValueError("the vector must live on the domain of the embedding")
    if not i.is_injective:
        raise ValueError("subgroup embedding requires an injective homomorphism")
    out = FactorQM(i.codomain, finite_part={i(x): v for x, v in f.finite_part.items()})
    if out.defect() != f.defect():
        raise RuntimeError("extension by zero changed the defect norm")
    return out


def pullback_quotient(f: FactorQM, pi: GroupHom) -> FactorQM:
    """Composition with a surjection; exactly isometric."""
    if pi.codomain != f.group:
        raise ValueError("the vector must live on the codomain of the surjection")
    if not pi.is_surjective:
        raise ValueError("quotient pullback requires a surjective homomorphism")
    values = {g: f(pi(g)) for g in pi.domain.elements()}
    out = FactorQM(pi.domain, finite_part=values)
    if out.defect() != f.defect():
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
    f_sub: FactorQM, f_quot: FactorQM, ses: ShortExactSequence
) -> FactorQM:
    """The combined embedding: extension by zero plus pullback.

    On the image of the subgroup the pullback term vanishes (those elements
    map to the quotient identity), so the sum takes the value of ``f_sub``
    there and of the pulled-back ``f_quot`` elsewhere.  The defect norm of
    the result is exactly the max of the two input norms.
    """
    if f_sub.group != ses.i.domain:
        raise ValueError("the first vector must live on the subgroup")
    if f_quot.group != ses.pi.codomain:
        raise ValueError("the second vector must live on the quotient")
    out = embed_subgroup(f_sub, ses.i) + pullback_quotient(f_quot, ses.pi)
    if out.defect() != max(f_sub.defect(), f_quot.defect()):
        raise RuntimeError("combined embedding is not isometric for the max norm")
    return out


def alternating_vectors(
    carrier: FactorGroup, choices: Sequence[Fraction]
) -> Iterator[FactorQM]:
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
        values: dict[int, Fraction] = {}
        for x, v in zip(representatives, assignment):
            set_alternating(values, carrier, x, v)
        yield FactorQM(carrier, finite_part=values)
