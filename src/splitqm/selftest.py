"""The acceptance suite: thirteen numbered checks covering every module.

Each criterion is a self-contained deterministic function of a child rng
that returns its PASS detail or raises ``CriterionFailed``.  ``CRITERIA`` is
the one place a criterion is numbered and named, and ``run_criterion`` the
one place its outcome becomes a ``CriterionResult``; the CLI selftest
subcommand and the test suite both drive it.  All randomness derives from
one seed through child rngs keyed by criterion name, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Collection, Iterator, Optional

from .groups import CyclicGroup, IntegerGroup, inverse_pairs, set_alternating
from .words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    conjugate,
    enumerate_words,
    multiply,
    parse_word,
    power,
    word_sampler,
)
from .quasimorphisms import (
    FactorQM,
    SplitQM,
    doubling_witness,
    eval_split,
    gromov_norm,
    homogenize_eval,
    is_trivial,
    junction_pairs,
    rademacher,
    sampled_defect,
    split_defect,
    weight_qm,
)
from . import counting
from .automorphisms import check_fixed_point, inner_distance_check, violation_witness
from .quasicocycles import (
    FiniteDimRep,
    GrowthCheckError,
    RegularRep,
    eval_split_qc,
    inner_cocycle,
    inner_split_eval,
    power_ladder_cocycle,
    staircase_cocycle,
    staircase_word,
)
from .defect_space import (
    GroupHom,
    ShortExactSequence,
    alternating_vectors,
    embed_subgroup,
    order_bound_check,
    pullback_quotient,
    ses_embed,
)
from .qrep import (
    Circle,
    FactorHom,
    FactorQRMap,
    FiniteMetric,
    SplitHom,
    SplitQRep,
    check_no_small_subgroups,
    enumerate_split_qr_maps,
    nontriviality_witness,
    qrep_defect,
    qrep_sampled_defect,
    witnesses_against_homs,
)

__all__ = [
    "CriterionFailed",
    "CriterionResult",
    "CRITERIA",
    "DEFAULT_SEED",
    "child_rng",
    "run_all",
    "run_criterion",
]

DEFAULT_SEED = 271828

F = Fraction
_VALUES = tuple(F(k, 2) for k in (-4, -3, -2, -1, 1, 2, 3, 4))


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's outcome; ``elapsed`` is its wall time in seconds,
    which the printed line does not show and equality ignores."""

    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float = field(compare=False)


class CriterionFailed(Exception):
    """A criterion does not hold; the message is its FAIL detail.

    Derived from ``Exception`` directly, so a criterion's own ``except
    RuntimeError`` can never swallow it.
    """


def child_rng(seed: int, label: str) -> random.Random:
    """The generator a criterion or subcommand named ``label`` draws from."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _zxz() -> Splitting:
    return Splitting(IntegerGroup(), IntegerGroup())


def _z5xz6() -> Splitting:
    return Splitting(CyclicGroup(5), CyclicGroup(6))


def _antisymmetric_residues(p: int, values: list[Fraction]) -> tuple[Fraction, ...]:
    table = [F(0)] * p
    for j, value in enumerate(values, start=1):
        table[j], table[p - j] = value, -value
    return tuple(table)


def _random_integer_qm(group: IntegerGroup, rng: random.Random) -> FactorQM:
    finite: dict[int, Fraction] = {}
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, 4)
        value = rng.choice(_VALUES)
        # A repeated k overwrites its earlier pair, where set_alternating
        # would refuse the clash.
        finite[k], finite[-k] = value, -value
    period, residues = None, ()
    if rng.random() < 0.5:
        period = rng.choice((3, 4, 5))
        draws = [rng.choice(_VALUES + (F(0),)) for _ in range((period - 1) // 2)]
        residues = _antisymmetric_residues(period, draws)
    sign = rng.choice(_VALUES) if rng.random() < 0.5 else F(0)
    return FactorQM(group, finite_part=finite, period=period, residues=residues, sign_coeff=sign)


def _random_finite_qm(group: CyclicGroup, rng: random.Random) -> FactorQM:
    values: dict[int, Fraction] = {}
    for x in inverse_pairs(group)[1]:
        if rng.random() < 0.75:
            set_alternating(values, group, x, rng.choice(_VALUES))
    return FactorQM(group, finite_part=values)


def _random_split_qm(s: Splitting, rng: random.Random) -> SplitQM:
    """Random factor maps on A, then on B: integer ones on Z * Z, finite ones otherwise."""
    draw = _random_integer_qm if isinstance(s.A, IntegerGroup) else _random_finite_qm
    return SplitQM(s, draw(s.A, rng), draw(s.B, rng))


# -- criterion 1: split defect equals sampled defect ----------------------


def criterion_1(rng: random.Random) -> str:
    start = time.perf_counter()
    configs = [_random_split_qm(s, rng) for s in [_zxz()] * 10 + [_z5xz6()] * 10]
    defects = []
    for f in configs:
        exact = split_defect(f)
        sampler = word_sampler(f.splitting, 4, 4, rng)
        sampled = sampled_defect(f, sampler, 10_000, extra_pairs=junction_pairs(f))
        if sampled != exact:
            raise CriterionFailed(f"sampled {sampled} != exact {exact}")
        defects.append(exact)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        raise CriterionFailed(f"too slow: {elapsed:.2f}s")
    return f"20 configs x 10000 pairs, max defect {max(defects)}, {elapsed:.2f}s"


# -- criterion 2: sign map against an exponent-count oracle ---------------


def _sign_map() -> SplitQM:
    s = _zxz()
    return SplitQM(
        s, FactorQM(s.A, sign_coeff=F(1)), FactorQM(s.B, sign_coeff=F(1))
    )


def criterion_2(rng: random.Random) -> str:
    f = _sign_map()
    s = f.splitting
    anchor = parse_word(s, "a b^-2 a^3 b")
    if eval_split(f, anchor) != 2:
        raise CriterionFailed("anchor word is not 2")
    sampler = word_sampler(s, 8, 6, rng)
    for _ in range(500):
        g = sampler()
        oracle = sum((k > 0) - (k < 0) for _, k in g)
        if eval_split(f, g) != oracle:
            raise CriterionFailed(f"mismatch at {g}")
    return "anchor = 2 and 500 words match the oracle"


# -- criterion 3: homogenization is homogeneous and conjugacy-invariant ---


def criterion_3(rng: random.Random) -> str:
    s_int = _zxz()
    f_int = SplitQM(
        s_int,
        FactorQM(
            s_int.A,
            slope=F(1, 2),
            finite_part={1: F(1), -1: F(-1), 3: F(-1, 2), -3: F(1, 2)},
            period=3,
            residues=(F(0), F(1), F(-1)),
            sign_coeff=F(1, 2),
        ),
        FactorQM(s_int.B, finite_part={2: F(3, 2), -2: F(-3, 2)}, sign_coeff=F(-1)),
    )
    s_fin = _z5xz6()
    f_fin = SplitQM(
        s_fin,
        FactorQM(s_fin.A, finite_part={1: F(1), 4: F(-1), 2: F(1, 2), 3: F(-1, 2)}),
        FactorQM(s_fin.B, finite_part={1: F(2), 5: F(-2), 2: F(1), 4: F(-1)}),
    )
    checked = 0
    for f in (f_int, f_fin):
        s = f.splitting
        sampler = word_sampler(s, 3, 3, rng)
        conjugators = [sampler() for _ in range(6)]
        for g in enumerate_words(s, 4, 3):
            base = homogenize_eval(f, g)
            for n in range(-4, 5):
                if homogenize_eval(f, power(s, g, n)) != n * base:
                    raise CriterionFailed(f"power identity fails at {g}^{n}")
            for w in conjugators:
                if homogenize_eval(f, conjugate(s, w, g)) != base:
                    raise CriterionFailed(f"conjugacy fails at {w}{g}")
            checked += 1
    return f"{checked} words x 9 powers x 6 conjugators"


# -- criterion 4: doubling witnesses and the homogenized defect bound ------


def criterion_4(rng: random.Random) -> str:
    configs: list[SplitQM] = []
    for s, count in ((_zxz(), 5), (_z5xz6(), 10)):
        while len(configs) < count:
            f = _random_split_qm(s, rng)
            if split_defect(f) > 0:
                configs.append(f)
    pair_checks = 0
    for f in configs:
        q = f.fA
        group = q.group
        aux_same = 1
        for x1, x2 in itertools.product(group.window(q.defect_window()), repeat=2):
            if group.is_identity(x1) or group.is_identity(x2):
                continue
            if group.is_identity(group.mul(x1, x2)):
                continue
            witness = doubling_witness(f, x1, x2, aux_same, 1, side=A)
            if witness.gap != 2 * q.coboundary(x1, x2):
                raise CriterionFailed(f"gap != 2*coboundary at {(x1, x2)}")
            pair_checks += 1
        report = gromov_norm(f)
        # The norm reads the certified scans; a window twice as wide must agree.
        widened = max(f.fA.defect(2), f.fB.defect(2))
        if report.value != widened:
            raise CriterionFailed(f"norm {report.value} != {widened} on windows twice as wide")
        if not report.witness_attains:
            raise CriterionFailed("maximized witness misses 2*norm")
        sampler = word_sampler(f.splitting, 4, 4, rng)
        bound = 2 * report.value
        for _ in range(1000):
            g, h = sampler(), sampler()
            gap = abs(
                homogenize_eval(f, g)
                + homogenize_eval(f, h)
                - homogenize_eval(f, multiply(f.splitting, g, h))
            )
            if gap > bound:
                raise CriterionFailed(f"homogenized coboundary {gap} > {bound}")
    return f"{pair_checks} window pairs doubled; 10 maximized witnesses; 10000 sampled pairs bounded"


# -- criterion 5: counting maps against the offset-scan oracle -------------


def _reduced_strings(max_len: int) -> list[str]:
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        step = []
        for text in frontier:
            for ch in "aAbB":
                if text and counting.invert_letters(ch) == text[-1]:
                    continue
                step.append(text + ch)
        out.extend(step)
        frontier = step
    return out


def criterion_5(rng: random.Random) -> str:
    if counting.counting_qm("aba", "ababa") != 2:
        raise CriterionFailed("anchor value is not 2")
    words = _reduced_strings(8)
    nonzero_checks = 0
    for g in words:
        counts: dict[str, int] = {}
        for i in range(len(g)):
            for j in range(i + 1, len(g) + 1):
                piece = g[i:j]
                counts[piece] = counts.get(piece, 0) + 1
        for w, expected in counts.items():
            if counting.subword_count(w, g) != expected:
                raise CriterionFailed(f"count mismatch for {w!r} in {g!r}")
            nonzero_checks += 1
        for _ in range(2):
            w = rng.choice(words)
            expected = counts.get(w, 0) - counts.get(counting.invert_letters(w), 0)
            if w and counting.counting_qm(w, g) != expected:
                raise CriterionFailed(f"counting map mismatch for {w!r} in {g!r}")
    return f"{len(words)} words, {nonzero_checks} exhaustive occurring-subword checks"


# -- criterion 6: block decomposition residual ------------------------------


def criterion_6(rng: random.Random) -> str:
    s = _zxz()
    texts = ("a", "b^-1", "a b a^2", "a^3 b^2", "b a^-2 b^2", "b a^2 b^-1", "b a^2 b", "a b^-3 a^-1")
    boundary = [IDENTITY] + [parse_word(s, text) for text in texts]
    sampler = word_sampler(s, 6, 5, rng)
    for _ in range(10):
        f = _random_split_qm(s, rng)  # only its finite parts are kept
        f = SplitQM(s, FactorQM(s.A, finite_part=f.fA.finite_part), FactorQM(s.B, finite_part=f.fB.finite_part))
        for g in boundary:
            if counting.decomposition_residual(f, g) != 0:
                raise CriterionFailed(f"residual at {g}")
        for _ in range(1000):
            g = sampler()
            if counting.decomposition_residual(f, g) != 0:
                raise CriterionFailed(f"residual at {g}")
    return "10 configs x (1000 random + 9 boundary) words, residual 0"


# -- criterion 7: twist fixed points ----------------------------------------


def criterion_7(rng: random.Random) -> str:
    s = _zxz()
    letter_words = [
        counting.word_from_letters(s, text) for text in _reduced_strings(6)
    ]
    for n in (3, 4, 5):
        residues = _antisymmetric_residues(n, [F(j) for j in range(1, (n - 1) // 2 + 1)])
        good = SplitQM(
            s,
            FactorQM(s.A, period=n, residues=residues),
            FactorQM(s.B),
        )
        sampler = word_sampler(s, 6, 2 * n + 2, rng)
        samples = (sampler() for _ in range(10_000 // 3))
        report = check_fixed_point(good, n, itertools.chain(letter_words, enumerate_words(s, 3, 2 * n), samples))
        if not (report.condition_holds and report.invariant):
            raise CriterionFailed(f"fixed-point report wrong at n={n}")
        bad_configs = [
            SplitQM(s, good.fA, FactorQM(s.B, finite_part={1: F(1), -1: F(-1)})),
            SplitQM(s, FactorQM(s.A, finite_part={1: F(1), -1: F(-1)}), FactorQM(s.B)),
            SplitQM(
                s,
                FactorQM(
                    s.A,
                    period=n + 1,
                    residues=_antisymmetric_residues(n + 1, [F(1)] * ((n) // 2)),
                ),
                FactorQM(s.B),
            ),
        ]
        for bad in bad_configs:
            witness = violation_witness(bad, n)
            if witness is None:
                raise CriterionFailed(f"no violation witness at n={n}")
            gaps = [abs(gap) for _, gap in witness.growth]
            if not all(x < y for x, y in zip(gaps, gaps[1:])):
                raise CriterionFailed(f"growth not strictly increasing at n={n}")
    for n in (1, 2, -1, -2):
        residues = _antisymmetric_residues(abs(n), [])
        f = SplitQM(s, FactorQM(s.A, period=abs(n), residues=residues), FactorQM(s.B))
        report = check_fixed_point(f, n, letter_words[:200])
        if not report.forces_zero:
            raise CriterionFailed(f"|n|<=2 config not forced to zero at n={n}")
        if any(eval_split(f, g) != 0 for g in letter_words):
            raise CriterionFailed(f"|n|<=2 config not zero at n={n}")
    return "n in {3,4,5}: 3 exhaustive layers invariant, 9 violation witnesses grow; |n|<=2 forces 0"


# -- criterion 8: conjugation moves values by at most twice the defect ------


def criterion_8(rng: random.Random) -> str:
    configs = [_random_split_qm(_zxz(), rng), _random_split_qm(_z5xz6(), rng), rademacher()]
    total = 0
    for f in configs:
        sampler = word_sampler(f.splitting, 4, 4, rng)
        for _ in range(50):
            h = sampler()
            samples = [sampler() for _ in range(70)]
            try:
                inner_distance_check(f, h, samples)
            except RuntimeError as exc:
                raise CriterionFailed(str(exc)) from exc
            total += len(samples)
    return f"{total} conjugation pairs bounded"


# -- criterion 9: quasicocycle growth witnesses -----------------------------


def criterion_9(rng: random.Random, convention: str = "prefix") -> str:
    """``convention="literal"`` corrupts the ladder translation convention;
    the criterion must then fail (the CLI's negative control)."""
    s = _zxz()
    dim3 = FiniteDimRep(
        s,
        mat_a=((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        mat_b=((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    )
    regular = [RegularRep(s, 1), RegularRep(s, 2)]
    setups = [(dim3, dim3.vector((1, 0, 0)))] + [(m, m.indicator(IDENTITY)) for m in regular]
    for m, v in setups:
        try:
            power_ladder_cocycle(m, 2, v, depth=6, check_prime=3, convention=convention)
            _, f_stair = staircase_cocycle(m, v, depth=6)
        except GrowthCheckError as exc:
            raise CriterionFailed(str(exc)) from exc
        xi_norm = m.norm(v)
        for n in range(1, 7):
            got = m.norm(eval_split_qc(f_stair, staircase_word(s, n)))
            if abs(float(got) - n * float(xi_norm)) > 1e-9:
                raise CriterionFailed(f"staircase norm growth fails at {n}")
    sampler = word_sampler(s, 5, 3, rng)
    for m, v in (setups[0], setups[1]):
        for _ in range(250):
            g = sampler()
            if not m.equal(inner_split_eval(m, v, g), inner_cocycle(m, v, g)):
                raise CriterionFailed(f"inner split evaluation differs at {g}")
    return "ladder p=2 q=3 and staircase exact to depth 6 in dim-3 and regular (p=1,2); inner split on 500 words"


# -- criterion 10: defect-space calculus ------------------------------------


def criterion_10(rng: random.Random) -> str:
    choices = [F(k, 2) for k in range(-4, 5)]
    vectors_checked = 0
    for n in range(2, 9):
        for f in alternating_vectors(CyclicGroup(n), choices):
            order_bound_check(f)
            vectors_checked += 1
    if [v.finite_part for v in alternating_vectors(CyclicGroup(2), choices)] != [{}]:
        raise CriterionFailed("Z/2 admits a non-zero vector")
    chains = [
        (CyclicGroup(3), CyclicGroup(6), CyclicGroup(2), 2),
        (CyclicGroup(3), CyclicGroup(12), CyclicGroup(4), 4),
    ]
    for sub, mid, quot, step in chains:
        i = GroupHom(sub, mid, {x: (step * x) % mid.n for x in sub.elements()})
        pi = GroupHom(mid, quot, {x: x % quot.n for x in mid.elements()})
        ses = ShortExactSequence(i, pi)
        for f in alternating_vectors(sub, choices):
            if embed_subgroup(f, i).defect() != f.defect():
                raise CriterionFailed("subgroup embedding not isometric")
        for f in alternating_vectors(quot, choices):
            if pullback_quotient(f, pi).defect() != f.defect():
                raise CriterionFailed("quotient pullback not isometric")
        for _ in range(100):
            f_sub = _random_defect_vector(sub, rng)
            f_quot = _random_defect_vector(quot, rng)
            j = ses_embed(f_sub, f_quot, ses)
            if j.defect() != max(f_sub.defect(), f_quot.defect()):
                raise CriterionFailed("combined embedding not isometric")
    return f"{vectors_checked} vectors bounded+sandwiched; embeddings isometric on both chains"


def _random_defect_vector(group: CyclicGroup, rng: random.Random) -> FactorQM:
    values: dict[int, Fraction] = {}
    for x in range(1, group.n // 2 + (group.n % 2)):
        if rng.random() < 0.8:
            set_alternating(values, group, x, F(rng.randint(-6, 6), rng.choice((1, 2, 4))))
    return FactorQM(group, finite_part=values)


# -- criterion 11: quasi-representations ------------------------------------


def criterion_11(rng: random.Random) -> str:
    target = FiniteMetric.from_length_function(
        CyclicGroup(6), [F(0), F(1, 2), F(1), F(1), F(1), F(1, 2)]
    )
    s = Splitting(CyclicGroup(2), CyclicGroup(3))
    small = check_no_small_subgroups(target, 1)
    if not small.passed:
        raise CriterionFailed("target has 1-small subgroups")
    witness_count = 0
    for mu in enumerate_split_qr_maps(s, target, F(1, 2)):
        sampler = word_sampler(s, 4, 4, rng)
        exact = qrep_defect(mu)
        sampled = qrep_sampled_defect(mu, sampler, 1000)
        if sampled != exact:
            raise CriterionFailed(f"finite sampled {sampled} != {exact}")
        reports = witnesses_against_homs(mu, eps=1)
        if len(reports) != 6:
            raise CriterionFailed(f"expected 6 homomorphisms, got {len(reports)}")
        if not all(report.succeeded for report in reports):
            raise CriterionFailed("finite witness search exhausted")
        witness_count += len(reports)
    circle = Circle()
    s_int = _zxz()
    mu = SplitQRep(
        s_int,
        circle,
        FactorQRMap(A, circle, s_int.A, {1: F(1, 8)}),
        FactorQRMap(B, circle, s_int.B, {1: F(1, 8)}),
    )
    small = check_no_small_subgroups(circle, F(1, 4))
    if not small.passed:
        raise CriterionFailed("circle said to have small subgroups")
    sampler = word_sampler(s_int, 4, 3, rng)
    exact = qrep_defect(mu)
    sampled = qrep_sampled_defect(mu, sampler, 1000)
    if sampled != exact:
        raise CriterionFailed(f"circle sampled {sampled} != {exact}")
    for _ in range(1000):
        rho = SplitHom(
            s_int,
            circle,
            FactorHom(A, s_int.A, circle, generator_image=F(rng.randrange(64), 64)),
            FactorHom(B, s_int.B, circle, generator_image=F(rng.randrange(64), 64)),
        )
        report = nontriviality_witness(mu, rho, eps=F(1, 4))
        if not report.succeeded:
            raise CriterionFailed(f"circle witness exhausted for {rho}")
        witness_count += 1
    return f"defect equalities hold; {witness_count} witness searches succeeded"


# -- criterion 12: weight maps ----------------------------------------------


def criterion_12(rng: random.Random) -> str:
    del rng
    f = weight_qm({1: F(1)})
    s = f.splitting
    for k in [k for k in range(-5, 6) if k]:
        s_k = F(1) if k == 1 else F(-1) if k == -1 else F(0)
        for sign in (1, -1):
            s_sign = F(sign)
            for n in range(1, 11):
                g = Word(((A, k), (B, sign)) * n)
                if eval_split(f, g) != n * (s_k + s_sign):
                    raise CriterionFailed(f"value mismatch at k={k}, sign={sign}, n={n}")
    tested = 0
    for values in itertools.product((-1, 0, 1), repeat=4):
        table = {k: F(v) for k, v in enumerate(values, start=1)}
        if is_trivial(weight_qm(table)) != (not any(values)):
            raise CriterionFailed(f"triviality wrong for {table}")
        tested += 1
    return f"junction-power values exact; triviality correct on {tested} tables"


# -- criterion 13: the literal convention must fail -------------------------


def criterion_13(rng: random.Random) -> str:
    del rng
    s = _zxz()
    m = RegularRep(s, 1)
    try:
        power_ladder_cocycle(m, 2, m.indicator(IDENTITY), depth=4, convention="literal")
    except GrowthCheckError as exc:
        return f"literal convention rejected: {exc}"
    raise CriterionFailed("literal convention unexpectedly passed the growth check")


CRITERIA: tuple[tuple[int, str, Callable[..., str]], ...] = (
    (1, "defect-equality", criterion_1),
    (2, "sign-evaluation", criterion_2),
    (3, "homogenization", criterion_3),
    (4, "doubling-witness", criterion_4),
    (5, "counting", criterion_5),
    (6, "decomposition", criterion_6),
    (7, "twist-fixed-points", criterion_7),
    (8, "inner-conjugation", criterion_8),
    (9, "cocycle-witnesses", criterion_9),
    (10, "defect-space", criterion_10),
    (11, "quasi-representations", criterion_11),
    (12, "weight-maps", criterion_12),
    (13, "negative-control", criterion_13),
)


def run_criterion(
    number: int, seed: int = DEFAULT_SEED, convention: str = "prefix"
) -> CriterionResult:
    """Run one criterion on the child rng of its name; ``convention`` is
    passed to criterion 9.

    A returned detail is a PASS, ``CriterionFailed`` a FAIL with its text,
    and any other exception a FAIL naming it (a bug guard).  The result's
    ``elapsed`` times the criterion alone, from its rng onwards.
    """
    name, func = {n: (nm, fn) for n, nm, fn in CRITERIA}[number]
    start = time.perf_counter()
    rng = child_rng(seed, name)
    try:
        detail = func(rng, convention=convention) if number == 9 else func(rng)
        passed = True
    except CriterionFailed as exc:
        passed, detail = False, str(exc)
    except Exception as exc:
        passed, detail = False, f"raised {exc!r}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_all(
    seed: int = DEFAULT_SEED,
    only: Optional[Collection[int]] = None,
    convention: str = "prefix",
) -> Iterator[CriterionResult]:
    """Run the criteria numbered in ``only`` (all by default), yielding each
    result as soon as its criterion finishes."""
    for number, _, _ in CRITERIA:
        if only is None or number in only:
            yield run_criterion(number, seed, convention)


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"[{result.number:2d}] {status} {result.name}: {result.detail}"
