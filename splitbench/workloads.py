"""The benchmark's four workloads.

Each builder turns the seed into inputs for the program and returns a
Workload: one round of operations, each a ``run`` that calls splitqm and a
``check`` that compares the output with the oracles in ``oracles.py`` or
with a property the method must have.  Operations call splitqm through its
module attributes at call time, so the traced run sees every call.

Input shapes (support radii, periods, word lengths, depths) are fixed per
slot and only the values are drawn from the seed, so every seed asks for
the same amount of work and runs with different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles as O
from oracles import expect

F = Fraction
VALUES = tuple(F(k, 2) for k in (-4, -3, -2, -1, 1, 2, 3, 4))
INTEGERS = O.Integers()


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Computes the oracle values the check needs; called once, untimed.
    prepare: Callable[[], None] = lambda: None


@dataclass
class Workload:
    ops: list
    # Returns a wrong copy of an operation's output, for the negative control.
    corrupt: Callable[[Any], Any]


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# -- input generation ------------------------------------------------------------


def _integer_spec(rng, radius, period, signed, slope=F(0)) -> O.FactorMap:
    """An alternating map on Z with exactly this support radius and period."""
    finite = {}
    for k in range(1, radius + 1):
        value = rng.choice(VALUES) if k == radius or rng.random() < 0.6 else F(0)
        if value:
            finite[k], finite[-k] = value, -value
    residues = ()
    if period:
        table = [F(0)] * period
        for j in range(1, (period - 1) // 2 + 1):
            value = rng.choice(VALUES)
            table[j], table[period - j] = value, -value
        residues = tuple(table)
    sign = rng.choice(VALUES) if signed else F(0)
    return O.FactorMap(INTEGERS, finite, F(slope), period, residues, sign)


def _finite_spec(rng, group) -> O.FactorMap:
    """Random values on every pair {x, x^-1} of non-involutions."""
    finite = {}
    for x in group.elements:
        inv = group.inv(x)
        if x == group.identity or x == inv or x in finite:
            continue
        value = rng.choice(VALUES)
        finite[x], finite[inv] = value, -value
    return O.FactorMap(group, finite)


class Program:
    """Builds program inputs from oracle specs."""

    def __init__(self, api):
        self.api = api
        self._groups = {}

    def group(self, spec_group):
        if spec_group not in self._groups:
            g = self.api.groups
            if isinstance(spec_group, O.Integers):
                built = g.IntegerGroup()
            elif isinstance(spec_group, O.Cyclic):
                built = g.CyclicGroup(spec_group.n)
            else:
                built = g.FiniteTableGroup(spec_group.rows, spec_group.inverse, 0)
            self._groups[spec_group] = built
        return self._groups[spec_group]

    def factor_qm(self, spec: O.FactorMap):
        return self.api.qm.FactorQM(
            self.group(spec.group),
            slope=spec.slope,
            finite_part=dict(spec.finite),
            period=spec.period,
            residues=spec.residues,
            sign_coeff=spec.sign,
        )

    def split_qm(self, split: O.SplitMap):
        fA = self.factor_qm(split.maps["A"])
        fB = self.factor_qm(split.maps["B"])
        s = self.api.words.Splitting(fA.group, fB.group)
        return self.api.qm.SplitQM(s, fA, fB)


def _zxz_groups() -> dict:
    return {"A": INTEGERS, "B": INTEGERS}


# -- sample-defect -------------------------------------------------------------------

# (support radius, period, sign term) of the A and B maps in each Z*Z slot; the
# certified windows stay small so sampling does most of the work.  The last
# slot has the widest windows and so the costliest operation, which the tail
# then measures; the slot count is odd, so the median falls inside one slot.
SAMPLE_ZXZ_SHAPES = (
    ((2, None, True), (1, 3, True)),
    ((1, None, False), (2, None, True)),
    ((1, 3, True), (1, None, False)),
    ((2, None, False), (1, None, True)),
    ((1, None, True), (1, 3, False)),
    ((2, 3, True), (1, None, True)),
    ((1, None, False), (1, None, True)),
    ((3, 3, True), (2, 3, True)),
)
SAMPLE_FINITE_SLOTS = 7  # maps on Z/5 * Z/6
SAMPLE_PAIRS = 1000


def build_sample_defect(api, seed: int, configs: dict) -> Workload:
    program = Program(api)
    c5, c6 = O.Cyclic(5), O.Cyclic(6)
    splits = []
    for i, (a, b) in enumerate(SAMPLE_ZXZ_SHAPES):
        rng = _rng(seed, f"sample-defect:zxz:{i}")
        splits.append(O.SplitMap(_zxz_groups(), {"A": _integer_spec(rng, *a), "B": _integer_spec(rng, *b)}))
    for i in range(SAMPLE_FINITE_SLOTS):
        rng = _rng(seed, f"sample-defect:finite:{i}")
        splits.append(O.SplitMap({"A": c5, "B": c6}, {"A": _finite_spec(rng, c5), "B": _finite_spec(rng, c6)}))
    ops = [_sample_defect_op(api, program, seed, i, split) for i, split in enumerate(splits)]
    return Workload(ops, corrupt=lambda out: (out[0], out[1] + 1))


def _sample_defect_op(api, program, seed, index, split: O.SplitMap) -> Op:
    f = program.split_qm(split)
    Word = api.words.Word
    sampler_seed = _rng(seed, f"sample-defect:sampler:{index}").getrandbits(64)
    junction = []

    def prepare():
        # Embed each factor's maximising pair, found by the oracle's own
        # scan, as one-letter words so the sample attains the supremum.
        for side in ("A", "B"):
            value, x, y = split.maps[side].defect()
            if value:
                junction.append((Word(((side, x),)), Word(((side, y),))))

    def run():
        qm = api.qm
        sampler = qm.default_sampler(f.splitting, random.Random(sampler_seed), 4, 4)
        sampled = qm.sampled_defect(f, sampler, SAMPLE_PAIRS, extra_pairs=junction)
        return sampled, qm.split_defect(f)

    def check(out):
        sampled, exact = out
        oracle = split.defect()
        expect(exact == oracle, f"split defect {exact} != oracle {oracle}")
        expect(sampled == oracle, f"sampled defect {sampled} != oracle {oracle}")

    return Op(f"sample-defect[{index}]", run, check, prepare)


# -- certify -------------------------------------------------------------------------

# (support radius, period, sign term, slope) of the A and B maps in each Z*Z
# slot.  Both factors of a slot share one window 2(M + n + 2), 16 in all but
# the last slot, so the work does not depend on which factor the seed makes
# the larger defect.
CERTIFY_ZXZ_SHAPES = (
    ((3, 3, True, F(1, 2)), (2, 4, True, 0)),
    ((1, 5, False, 0), (5, None, True, F(-1))),
    ((2, 4, True, 0), (3, 3, False, F(2))),
    ((5, None, True, 0), (1, 5, True, 0)),
    ((2, 4, False, F(-1, 2)), (1, 5, True, 0)),
    ((3, 3, False, 0), (1, 5, True, F(1))),
    # The costliest slot, window 20, which the tail then measures.
    ((4, 4, True, F(1, 2)), (3, 5, True, 0)),
)
# Finite slots with two copies of one factor, cyclic or dihedral (given by
# its multiplication table), for the same reason.
CERTIFY_FINITE_GROUPS = (lambda: O.Cyclic(40), lambda: O.Table(O.dihedral_rows(20)))


def build_certify(api, seed: int, configs: dict) -> Workload:
    program = Program(api)
    splits = []
    for i, (a, b) in enumerate(CERTIFY_ZXZ_SHAPES):
        rng = _rng(seed, f"certify:zxz:{i}")
        splits.append(O.SplitMap(_zxz_groups(), {"A": _integer_spec(rng, *a), "B": _integer_spec(rng, *b)}))
    for i, make_group in enumerate(CERTIFY_FINITE_GROUPS):
        rng = _rng(seed, f"certify:finite:{i}")
        group = make_group()
        splits.append(O.SplitMap({"A": group, "B": group}, {"A": _finite_spec(rng, group), "B": _finite_spec(rng, group)}))
    ops = [_certify_op(api, program, i, split) for i, split in enumerate(splits)]
    return Workload(ops, corrupt=_corrupt_norm)


def _corrupt_norm(report):
    return type(report)(value=report.value + 1, witness=report.witness)


def _certify_op(api, program, index, split: O.SplitMap) -> Op:
    f = program.split_qm(split)

    def run():
        return api.qm.gromov_norm(f)

    def check(report):
        oracle = split.defect()
        expect(report.value == oracle, f"norm {report.value} != oracle defect {oracle}")
        w = report.witness
        if oracle == 0:
            expect(w is None, "witness for a zero norm")
            return
        expect(w is not None, "no doubling witness for a positive norm")
        expect(w.gap == 2 * oracle, f"witness gap {w.gap} != 2 * {oracle}")
        q = split.maps[w.side]
        x1, x2 = w.pair
        junction = q.value(x1) + q.value(x2) - q.value(q.group.mul(x1, x2))
        expect(junction == oracle, f"witness pair coboundary {junction} != {oracle}")
        g, h = w.g.letters, w.h.letters
        gh = O.normal_form(split.groups, g + h)
        gap = split.homogenized(g) + split.homogenized(h) - split.homogenized(gh)
        expect(gap == 2 * oracle, f"oracle homogenised gap {gap} != 2 * {oracle}")

    return Op(f"certify[{index}]", run, check, split.defect)


# -- long-words ----------------------------------------------------------------------

# (letters, twist exponent) per slot: 40 to 96 letters, so the longest word
# sets the tail.  Lengths are even, so every word starts in A, ends in B and
# is cyclically reduced.
LONG_WORD_SLOTS = tuple((40 + 4 * i, (3, 4, 5, -3, -5)[i % 5]) for i in range(15))
LONG_WORD_EXPONENT = 6
LONG_WORD_POWERS = (-3, -2, 2, 3)
LONG_WORD_CONJUGATOR_LETTERS = 6


def _alternating_letters(rng, length: int, exponent: int, first: str = "A"):
    """An alternating word whose exponent sizes on each side cycle through
    1..exponent in a seeded order, with seeded signs: the seed moves letters
    around but not the total size, which sets the cost of twisting."""
    sides = [first if i % 2 == 0 else ("B" if first == "A" else "A") for i in range(length)]
    sizes = {}
    for side in ("A", "B"):
        count = sides.count(side)
        sizes[side] = [j % exponent + 1 for j in range(count)]
        rng.shuffle(sizes[side])
    return tuple((side, sizes[side].pop() * rng.choice((1, -1))) for side in sides)


def build_long_words(api, seed: int, configs: dict) -> Workload:
    program = Program(api)
    groups = _zxz_groups()
    zero = O.FactorMap(INTEGERS, {})
    ops = []
    for i, (length, n) in enumerate(LONG_WORD_SLOTS):
        rng = _rng(seed, f"long-words:{i}")
        hom = O.SplitMap(groups, {
            "A": _integer_spec(rng, 3, 3, True, F(1, 2)),
            "B": _integer_spec(rng, 2, 4, True, F(-1)),
        })
        # |n|-periodic first factor and zero second factor: twist invariant.
        per = O.SplitMap(groups, {"A": _integer_spec(rng, 0, abs(n), False), "B": zero})
        # Period |n| + 1 with a non-zero residue: not |n|-periodic, so a
        # violation witness with linearly growing gaps must exist.
        bad = O.SplitMap(groups, {"A": _integer_spec(rng, 0, abs(n) + 1, False), "B": zero})
        word = _alternating_letters(rng, length, LONG_WORD_EXPONENT)
        conjugators = [
            _alternating_letters(rng, LONG_WORD_CONJUGATOR_LETTERS, 3, rng.choice("AB")) for _ in range(2)
        ]
        ops.append(_long_words_op(api, program, i, n, hom, per, bad, word, conjugators))
    return Workload(ops, corrupt=lambda out: {**out, "h": out["h"] + 1})


def _long_words_op(api, program, index, n, hom, per, bad, word, conjugators) -> Op:
    Word = api.words.Word
    f_hom, f_per, f_bad = program.split_qm(hom), program.split_qm(per), program.split_qm(bad)
    s = f_hom.splitting
    g = Word(word)
    ws = [Word(c) for c in conjugators]
    samples = (g, *ws)
    groups = hom.groups

    def run():
        words, qm, auto = api.words, api.qm, api.automorphisms
        powers = []
        for k in LONG_WORD_POWERS:
            pw = words.power(s, g, k)
            powers.append((k, pw.letters, qm.homogenize_eval(f_hom, pw)))
        conj = []
        for w in ws:
            c = words.conjugate(s, w, g)
            conj.append((w.letters, c.letters, qm.homogenize_eval(f_hom, c)))
        tg = auto.apply(auto.twist(s, n), g)
        return {
            "h": qm.homogenize_eval(f_hom, g),
            "powers": powers,
            "conj": conj,
            "twisted": tg.letters,
            "per": (qm.eval_split(f_per, tg), qm.eval_split(f_per, g)),
            "good": auto.check_fixed_point(f_per, n, samples),
            "bad": auto.check_fixed_point(f_bad, n, samples),
        }

    def check(out):
        h = out["h"]
        expect(h == hom.homogenized(word), f"h(g) = {h} != oracle {hom.homogenized(word)}")
        for k, letters, value in out["powers"]:
            expect(letters == O.word_power(groups, word, k), f"g^{k} normal form differs from oracle")
            expect(value == k * h, f"h(g^{k}) = {value} != {k} * {h}")
        for w, letters, value in out["conj"]:
            expected = O.normal_form(groups, w + word + O.inverse_letters(groups, w))
            expect(letters == expected, "conjugate normal form differs from oracle")
            expect(value == h, f"h(w g w^-1) = {value} != h(g) = {h}")
        expect(out["twisted"] == O.normal_form(groups, O.twist_letters(n, word)), "twist image differs from oracle")
        before = per.value(word)
        expect(out["per"] == (before, before), f"periodic map moved by the twist: {out['per']} vs oracle {before}")
        good, violated = out["good"], out["bad"]
        expect(good.condition_holds and good.invariant and good.witness is None, "periodic map not reported invariant")
        expect(good.checked == len(samples) and not good.failures, "invariance samples not all checked")
        expect(not violated.condition_holds and violated.witness is not None, "no violation witness for a non-periodic map")
        witness = violated.witness
        base = witness.base_gap
        expect(base != 0, "violation witness has zero gap")
        expect(
            all(gap == m * base for m, gap in witness.growth),
            f"violation gaps {witness.growth} do not grow linearly from {base}",
        )
        wl = witness.word.letters
        oracle_gap = bad.homogenized(O.twist_letters(n, wl)) - bad.homogenized(wl)
        expect(oracle_gap == base, f"witness gap {base} != oracle {oracle_gap}")

    return Op(f"long-words[{index}]", run, check)


# -- cocycle-qrep --------------------------------------------------------------------

# (ladder prime, control prime, ladder depth, staircase depth) per slot.  Each
# operation builds both cocycles in the regular representation and in a
# dense one.  The staircase depth sets the cost: three shallow slots, four at
# depth 4 around the median, so that it rests on many operations, one at
# depth 5, and the deepest alone for the tail.  split_qc_defect runs on the
# regular staircase only: on the dense action one call recomputes a matrix
# power for every window pair and takes about half a second, which would
# swamp everything else measured here.
COCYCLE_SLOTS = (
    (2, 3, 3, 2), (3, 2, 2, 2), (5, 2, 1, 3), (2, 5, 2, 4), (3, 2, 2, 4),
    (5, 3, 1, 4), (2, 3, 3, 4), (3, 5, 2, 5), (2, 5, 3, 7),
)
COCYCLE_WORD_PAIRS = 4
QREP_SAMPLES = 150
# A three-dimensional permutation representation, with its inverses given
# for the oracle.  Permutations are isometries of the sup norm, so the
# certified defect window applies; criterion 9's unipotent matrix is not, and
# its windowed defect grows with the window.
DENSE_MATS = {"A": ((0, 1, 0), (0, 0, 1), (1, 0, 0)), "B": ((0, 1, 0), (1, 0, 0), (0, 0, 1))}
DENSE_INVERSES = {"A": ((0, 0, 1), (1, 0, 0), (0, 1, 0)), "B": ((0, 1, 0), (1, 0, 0), (0, 0, 1))}


def _cocycle_word(rng, first: str):
    """Four alternating letters starting on ``first``, with exponents 1 and -1
    and 2 and -2 on each side in a seeded order.  Two such words with the same
    first side multiply without cancelling, and every seed asks for the same
    matrix powers and inverses."""
    other = "B" if first == "A" else "A"
    exponents = {}
    for side in (first, other):
        sign = rng.choice((1, -1))
        values = [sign, -2 * sign]
        rng.shuffle(values)
        exponents[side] = values
    return tuple((side, exponents[side].pop()) for side in (first, other, first, other))


def _ladder_letters(p: int, n: int):
    return tuple(letter for i in range(1, n + 1) for letter in (("B", 1), ("A", p**i)))


def _staircase_letters(n: int):
    letters = []
    for k in range(1, n + 1):
        if k > 1:
            letters.append(("B", 1))
        letters.append(("A", k))
    return tuple(letters)


def _oracle_table(action, groups, seed_vector, prefixes: dict) -> dict:
    """Factor values at a^k: the inverted prefix applied to the seed vector,
    with alternation filling in a^-k."""
    values = {}
    for k, prefix in prefixes.items():
        translator = O.inverse_letters(groups, O.normal_form(groups, prefix))
        values[k] = action.act(translator, seed_vector)
    for k, v in list(values.items()):
        values[-k] = action.scale(-1, action.act((("A", -k),), v))
    return {"A": values, "B": {}}


def _as_letters(v):
    """Program vectors as oracle vectors: Word keys become letter tuples."""
    return {w.letters: x for w, x in v.items()} if isinstance(v, dict) else tuple(v)


@dataclass
class _Action:
    """One module action as the program sees it (m, v) and as the oracle does."""

    name: str
    m: Any
    v: Any
    oracle: Any
    ov: Any
    defect: bool


class _QRepOracle:
    """The finite metric target of finite_qrep.json, read from the raw JSON."""

    def __init__(self, raw: dict):
        target = raw["qrep"]["target"]
        self.n = target["group"]["n"]
        self.lengths = [F(v) for v in target["lengths"]]
        self.factors = {side: raw["splitting"][side]["n"] for side in ("A", "B")}

    def dist(self, x: int, y: int) -> Fraction:
        return self.lengths[(y - x) % self.n]

    def evaluate(self, mu: dict, letters) -> int:
        return sum(mu[side].get(x, 0) for side, x in letters) % self.n

    def hom(self, ra: int, rb: int, letters) -> int:
        return sum((ra if side == "A" else rb) * x for side, x in letters) % self.n

    def defect(self, mu: dict) -> Fraction:
        worst = F(0)
        for side, order in self.factors.items():
            for x in range(order):
                for y in range(order):
                    xy = (x + y) % order
                    d = self.dist(mu[side].get(xy, 0), (mu[side].get(x, 0) + mu[side].get(y, 0)) % self.n)
                    worst = max(worst, d)
        return worst

    def delta(self, mu: dict) -> Fraction:
        return max(self.lengths[v] for side in mu for v in mu[side].values())

    def hom_images(self) -> set:
        """Generator images r with r * order = 0 in the target, per side."""
        return {
            (ra, rb)
            for ra in range(self.n) if ra * self.factors["A"] % self.n == 0
            for rb in range(self.n) if rb * self.factors["B"] % self.n == 0
        }


def build_cocycle_qrep(api, seed: int, configs: dict) -> Workload:
    words, qc, qrep = api.words, api.quasicocycles, api.qrep
    showcase, finite = configs["showcase"], configs["finite_qrep"]
    s = showcase.splitting
    action = showcase.raw["action"]
    regular = qc.RegularRep(s, action["p"])
    regular_seed = regular.vector({words.parse_word(s, w): F(v) for w, v in action["vector"]})
    dense = qc.FiniteDimRep(s, DENSE_MATS["A"], DENSE_MATS["B"])
    groups = _zxz_groups()
    actions = (
        _Action("regular", regular, regular_seed, O.RegularAction(groups), _as_letters(regular_seed), True),
        _Action("dense", dense, dense.vector((1, 0, 0)), O.DenseAction(DENSE_MATS, DENSE_INVERSES),
                (F(1), F(0), F(0)), False),
    )
    qo = _QRepOracle(finite.raw)
    target = qrep.FiniteMetric.from_length_function(api.groups.CyclicGroup(qo.n), qo.lengths)
    config_mu = {side: {x: v for x, v in finite.raw["qrep"]["mu"][side]} for side in ("A", "B")}
    ops = []
    for i, slot in enumerate(COCYCLE_SLOTS):
        rng = _rng(seed, f"cocycle-qrep:{i}")
        pairs = []
        for _ in range(COCYCLE_WORD_PAIRS):
            first = rng.choice("AB")
            pairs.append((_cocycle_word(rng, first), _cocycle_word(rng, first)))
        # The shipped map in even slots, its mirror image B[1] -> 5, B[2] -> 1
        # in odd ones: both stay within the config's max_norm.
        mu = config_mu if i % 2 == 0 else {"A": {}, "B": {1: 5, 2: 1}}
        ops.append(_cocycle_qrep_op(api, i, slot, actions, groups, pairs, finite.splitting, target, qo, mu,
                                    rng.getrandbits(64)))
    return Workload(ops, corrupt=lambda out: {**out, "qdefect": out["qdefect"] + 1})


def _cocycle_qrep_op(api, index, slot, actions, groups, pairs, qs, target, qo, mu, sampler_seed) -> Op:
    p, control, ladder_depth, stair_depth = slot
    Word = api.words.Word
    word_pairs = [(Word(g), Word(h)) for g, h in pairs]
    ladder_words = {q: [Word(_ladder_letters(q, n)) for n in range(ladder_depth + 1)] for q in (p, control)}
    stair_words = [Word(_staircase_letters(n)) for n in range(stair_depth + 1)]
    stair_prefixes = {1: ()}
    stair_prefixes.update({n: _staircase_letters(n - 1) + (("B", 1),) for n in range(2, stair_depth + 1)})
    ladder_prefixes = {p**i: _ladder_letters(p, i - 1) + (("B", 1),) for i in range(1, ladder_depth + 1)}
    ref = {}

    def prepare():
        for a in actions:
            stair = _oracle_table(a.oracle, groups, a.ov, stair_prefixes)
            ref[a.name] = {
                "stair": stair,
                "ladder": _oracle_table(a.oracle, groups, a.ov, ladder_prefixes),
                "defect": O.cocycle_defect(a.oracle, stair, {"A": stair_depth, "B": 0}),
            }

    qrep = api.qrep
    qmu = qrep.SplitQRep(
        qs, target,
        qrep.FactorQRMap("A", target, qs.A, mu["A"]),
        qrep.FactorQRMap("B", target, qs.B, mu["B"]),
    )

    def run():
        qc, qrep = api.quasicocycles, api.qrep
        out = {}
        for a in actions:
            _, f_lad = qc.power_ladder_cocycle(a.m, p, a.v, ladder_depth, check_prime=control)
            _, f_stair = qc.staircase_cocycle(a.m, a.v, stair_depth)
            evals = []
            for g, h in word_pairs:
                gh = api.words.multiply(a.m.splitting, g, h)
                evals.append(tuple(_as_letters(qc.eval_split_qc(f_stair, w)) for w in (g, h, gh)))
            out[a.name] = {
                "tables": ({k: _as_letters(x) for k, x in f_stair.fA.table.items()},
                           {k: _as_letters(x) for k, x in f_lad.fA.table.items()}),
                "ladder": {q: [_as_letters(qc.eval_split_qc(f_lad, w)) for w in ws] for q, ws in ladder_words.items()},
                "stair": [_as_letters(qc.eval_split_qc(f_stair, w)) for w in stair_words],
                "evals": evals,
                "defect": qc.split_qc_defect(f_stair) if a.defect else None,
            }
        sampler = api.qm.default_sampler(qs, random.Random(sampler_seed), 4, 4)
        homs = [
            qrep.SplitHom(qs, target, ha, hb)
            for ha in qrep.enumerate_factor_homs("A", qs.A, target)
            for hb in qrep.enumerate_factor_homs("B", qs.B, target)
        ]
        out["qdefect"] = qrep.qrep_defect(qmu)
        out["qsampled"] = qrep.qrep_sampled_defect(qmu, sampler, QREP_SAMPLES)
        out["reports"] = [
            (h.hA.generator_image, h.hB.generator_image, qrep.nontriviality_witness(qmu, h, 1)) for h in homs
        ]
        return out

    def check(out):
        for a in actions:
            got, want, om = out[a.name], ref[a.name], a.oracle
            stair_table, ladder_table = got["tables"]
            expect(stair_table == want["stair"]["A"], f"{a.name}: staircase factor values differ from oracle")
            expect(ladder_table == want["ladder"]["A"], f"{a.name}: ladder factor values differ from oracle")
            for n, value in enumerate(got["ladder"][p]):
                expect(value == om.scale(n, a.ov), f"{a.name}: ladder value at depth {n} is not {n} * v")
            for n, value in enumerate(got["ladder"][control]):
                expect(value == om.zero, f"{a.name}: control-prime ladder value at depth {n} is not zero")
            for n, value in enumerate(got["stair"]):
                expect(value == om.scale(n, a.ov), f"{a.name}: staircase value at depth {n} is not {n} * v")
            bound = want["defect"]
            if a.defect:
                expect(got["defect"] == bound, f"{a.name}: split_qc_defect {got['defect']} != oracle {bound}")
            for (g, h), (fg, fh, fgh) in zip(pairs, got["evals"]):
                gh = O.normal_form(groups, g + h)
                for letters, value in ((g, fg), (h, fh), (gh, fgh)):
                    expect(value == O.cocycle_value(om, want["stair"], letters), f"{a.name}: cocycle value differs")
                gap = om.norm(om.sub(om.add(fg, om.act(g, fh)), fgh))
                expect(gap <= bound, f"{a.name}: cocycle coboundary {gap} exceeds the defect {bound}")
        qdefect = qo.defect(mu)
        expect(out["qdefect"] == qdefect, f"qrep defect {out['qdefect']} != oracle {qdefect}")
        expect(out["qsampled"] == qdefect, f"sampled qrep defect {out['qsampled']} != oracle {qdefect}")
        images = {(ra, rb) for ra, rb, _ in out["reports"]}
        expect(images == qo.hom_images() and len(out["reports"]) == len(images), "homomorphisms differ from oracle")
        delta = qo.delta(mu)
        for ra, rb, report in out["reports"]:
            expect(report.succeeded and report.delta == delta, "witness search failed")
            letters = report.word.letters
            d = qo.dist(qo.evaluate(mu, letters), qo.hom(ra, rb, letters))
            expect(d == report.distance and d >= delta, f"witness distance {report.distance} (oracle {d}) below {delta}")

    return Op(f"cocycle-qrep[{index}]", run, check, prepare)


WORKLOADS = {
    "sample-defect": build_sample_defect,
    "certify": build_certify,
    "long-words": build_long_words,
    "cocycle-qrep": build_cocycle_qrep,
}
