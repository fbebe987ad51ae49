"""Command-line front end: configuration loading, deterministic experiment
drivers, and table/report emission for every module.

One JSON config carries the splitting, named factor maps, module actions,
metric targets, and sampler parameters; all randomness flows from a single
seed, with each subcommand deriving a child seed by hashing, so output is
byte-identical for identical config + seed.  Exit codes: 0 success,
1 identity violation, 2 usage or parse error, 141 when the reader closes
standard output early (as for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .groups import CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup
from .words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    WordSyntaxError,
    format_word,
    parse_word,
    word_sampler,
)
from .quasimorphisms import (
    FactorQM,
    GromovNormReport,
    SplitQM,
    eval_split,
    gromov_norm,
    homogenize_eval,
    junction_pairs,
    rademacher,
    sampled_defect,
    split_defect,
)
from .counting import decomposition_residual
from .automorphisms import check_fixed_point
from .quasicocycles import (
    FiniteDimRep,
    GrowthCheckError,
    ModuleAction,
    RegularRep,
    eval_split_qc,
    ladder_word,
    power_ladder_cocycle,
    staircase_cocycle,
    staircase_word,
)
from .defect_space import (
    DefectVector,
    alternating_vectors,
    defect_norm,
    order_bound_check,
    sup_norm,
)
from .qrep import (
    Circle,
    FactorQRMap,
    FiniteMetric,
    MetricGroup,
    SplitHom,
    SplitQRep,
    check_no_small_subgroups,
    enumerate_factor_homs,
    enumerate_factor_qr_maps,
    nontriviality_witness,
    qrep_defect,
    qrep_delta,
    qrep_sampled_defect,
)
from .selftest import CRITERIA, DEFAULT_SEED, child_rng, format_result, run_all

__all__ = ["main", "load_config", "Config", "ConfigError"]

SCHEMA_VERSION = 1
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's status for `cmd | head`


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the JSON path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(path, f"expected an integer or a 'p/q' string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, f"bad rational {value!r}: {exc}") from None


def _expect(value, kind, path: str, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(path, f"expected {what}, got {value!r}")
    return value


def _factor_group(obj, path: str) -> FactorGroup:
    obj = _expect(obj, dict, path, "a factor descriptor object")
    kind = obj.get("type")
    try:
        if kind == "integer":
            return IntegerGroup()
        if kind == "cyclic":
            return CyclicGroup(_expect(obj.get("n"), int, f"{path}.n", "an integer"))
        if kind == "table":
            rows = _expect(obj.get("mul"), list, f"{path}.mul", "a multiplication table")
            return FiniteTableGroup.from_mul(
                len(rows), lambda x, y: rows[x][y], identity=obj.get("identity", 0)
            )
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.type", f"unknown factor type {kind!r}")


def _factor_qm(obj, group: FactorGroup, path: str) -> FactorQM:
    obj = _expect(obj, dict, path, "a factor map object")
    known = {"slope", "support", "period", "residues", "sign"}
    for key in obj:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown factor map field")
    support = {}
    for index, entry in enumerate(obj.get("support", [])):
        entry = _expect(entry, list, f"{path}.support[{index}]", "an [element, value] pair")
        if len(entry) != 2:
            raise ConfigError(f"{path}.support[{index}]", "expected an [element, value] pair")
        x = _expect(entry[0], int, f"{path}.support[{index}][0]", "a factor element")
        value = _rational(entry[1], f"{path}.support[{index}][1]")
        # Alternation fills in the value at the inverse; explicit entries
        # for both elements of a pair must agree with it.
        try:
            inv_x = group.inv(group.check(x))
        except ValueError as exc:
            raise ConfigError(f"{path}.support[{index}][0]", str(exc)) from None
        for key, val in ((x, value), (inv_x, -value)):
            if key in support and support[key] != val:
                raise ConfigError(
                    f"{path}.support[{index}]", f"conflicting value at element {key}"
                )
            support[key] = val
    residues = tuple(
        _rational(r, f"{path}.residues[{index}]") for index, r in enumerate(obj.get("residues", []))
    )
    period = obj.get("period")
    if period is not None:
        _expect(period, int, f"{path}.period", "an integer")
    try:
        return FactorQM(
            group,
            slope=_rational(obj.get("slope", 0), f"{path}.slope"),
            finite_part=support,
            period=period,
            residues=residues,
            sign_coeff=_rational(obj.get("sign", 0), f"{path}.sign"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None


@dataclass
class Sampler:
    seed: int = DEFAULT_SEED
    samples: int = 2000
    length_bound: int = 5
    exponent_bound: int = 4


@dataclass
class Config:
    splitting: Optional[Splitting] = None
    maps: dict = field(default_factory=dict)
    sampler: Sampler = field(default_factory=Sampler)
    raw: dict = field(default_factory=dict)


def load_config(path: str) -> Config:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from None
    raw = _expect(raw, dict, "$", "a JSON object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected schema version {SCHEMA_VERSION}, got {schema!r}")
    config = Config(raw=raw)
    if "splitting" in raw:
        desc = _expect(raw["splitting"], dict, "splitting", "an object with A and B")
        for side in (A, B):
            if side not in desc:
                raise ConfigError(f"splitting.{side}", "missing factor descriptor")
        config.splitting = Splitting(
            _factor_group(desc[A], "splitting.A"), _factor_group(desc[B], "splitting.B")
        )
    for name, obj in _expect(raw.get("maps", {}), dict, "maps", "an object of named maps").items():
        if config.splitting is None:
            raise ConfigError("maps", "maps need a splitting")
        obj = _expect(obj, dict, f"maps.{name}", "an object with sides A and B")
        config.maps[name] = SplitQM(
            config.splitting,
            _factor_qm(obj.get(A, {}), config.splitting.A, f"maps.{name}.A"),
            _factor_qm(obj.get(B, {}), config.splitting.B, f"maps.{name}.B"),
        )
    sampler_obj = _expect(raw.get("sampler", {}), dict, "sampler", "an object")
    sampler = Sampler()
    for key, least in (("seed", None), ("samples", 0), ("length_bound", 1), ("exponent_bound", 1)):
        if key in sampler_obj:
            value = _expect(sampler_obj[key], int, f"sampler.{key}", "an integer")
            if least is not None and value < least:
                raise ConfigError(f"sampler.{key}", f"expected an integer >= {least}, got {value}")
            setattr(sampler, key, value)
    config.sampler = sampler
    # Validate optional per-subcommand sections eagerly so a bad config is
    # rejected on load no matter which driver runs.
    if "action" in raw:
        _build_action(config)
    if "qrep" in raw:
        _build_qrep(config)
    if "defect_space" in raw:
        _build_defect_space(config)
    return config


def _build_action(config: Config) -> tuple[ModuleAction, object]:
    obj = _expect(config.raw.get("action", {}), dict, "action", "an action descriptor")
    if config.splitting is None:
        raise ConfigError("action", "actions need a splitting")
    kind = obj.get("kind")
    try:
        if kind == "finite_dim":
            rows_a = _expect(obj.get("mat_a"), list, "action.mat_a", "a matrix")
            rows_b = _expect(obj.get("mat_b"), list, "action.mat_b", "a matrix")
            m = FiniteDimRep(config.splitting, rows_a, rows_b)
            coords = _expect(
                obj.get("vector", [1] + [0] * (len(rows_a) - 1)), list, "action.vector", "a list of coordinates"
            )
            return m, m.vector([_rational(c, "action.vector") for c in coords])
        if kind == "regular":
            p = obj.get("p", 1)
            if p != "inf":
                _expect(p, int, "action.p", 'an integer or "inf"')
            m = RegularRep(config.splitting, float("inf") if p == "inf" else p)
            entries = {}
            pairs = _expect(obj.get("vector", [["", 1]]), list, "action.vector", "a list of [word, value] pairs")
            for index, pair in enumerate(pairs):
                pair = _expect(pair, list, f"action.vector[{index}]", "a [word, value] pair")
                if len(pair) != 2:
                    raise ConfigError(f"action.vector[{index}]", "expected a [word, value] pair")
                word = parse_word(config.splitting, _expect(pair[0], str, f"action.vector[{index}][0]", "word text"))
                entries[word] = _rational(pair[1], f"action.vector[{index}][1]")
            return m, m.vector(entries)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError("action", str(exc)) from None
    raise ConfigError("action.kind", f"unknown action kind {kind!r}")


def _metric_target(obj, path: str) -> MetricGroup:
    obj = _expect(obj, dict, path, "a target descriptor")
    kind = obj.get("kind")
    try:
        if kind == "circle":
            return Circle()
        if kind == "finite_metric":
            group = _factor_group(obj.get("group"), f"{path}.group")
            lengths = _expect(obj.get("lengths"), list, f"{path}.lengths", "a length table")
            return FiniteMetric.from_length_function(
                group, [_rational(v, f"{path}.lengths[{i}]") for i, v in enumerate(lengths)]
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.kind", f"unknown target kind {kind!r}")


@dataclass
class QRepSetup:
    splitting: Splitting
    target: MetricGroup
    mu: SplitQRep
    eps: Fraction
    max_norm: Optional[Fraction]


def _build_qrep(config: Config) -> QRepSetup:
    obj = _expect(config.raw.get("qrep", {}), dict, "qrep", "a qrep section")
    target = _metric_target(obj.get("target"), "qrep.target")
    splitting = config.splitting
    if splitting is None:
        raise ConfigError("qrep", "the qrep section needs a splitting")
    mu_obj = _expect(obj.get("mu", {}), dict, "qrep.mu", "an object with sides A and B")
    values = {}
    for side in (A, B):
        side_values = {}
        pairs = _expect(mu_obj.get(side, []), list, f"qrep.mu.{side}", "a list of [element, value] pairs")
        for index, pair in enumerate(pairs):
            pair = _expect(pair, list, f"qrep.mu.{side}[{index}]", "an [element, value] pair")
            if len(pair) != 2:
                raise ConfigError(f"qrep.mu.{side}[{index}]", "expected an [element, value] pair")
            x = _expect(pair[0], int, f"qrep.mu.{side}[{index}][0]", "a factor element")
            if isinstance(target, Circle):
                side_values[x] = target.turn(_rational(pair[1], f"qrep.mu.{side}[{index}][1]"))
            else:
                side_values[x] = _expect(pair[1], int, f"qrep.mu.{side}[{index}][1]", "a target element")
        values[side] = side_values
    try:
        mu = SplitQRep(
            splitting,
            target,
            FactorQRMap(A, target, splitting.A, values[A]),
            FactorQRMap(B, target, splitting.B, values[B]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError("qrep.mu", str(exc)) from None
    if isinstance(target, Circle):
        eps = _rational(obj.get("eps_turns", "1/4"), "qrep.eps_turns")
    else:
        eps = _rational(obj.get("eps", 1), "qrep.eps")
    max_norm = _rational(obj["max_norm"], "qrep.max_norm") if "max_norm" in obj else None
    return QRepSetup(splitting, target, mu, eps, max_norm)


@dataclass
class DefectSpaceSetup:
    carrier: FactorGroup
    choices: tuple[Fraction, ...]


def _build_defect_space(config: Config) -> DefectSpaceSetup:
    obj = _expect(config.raw.get("defect_space", {}), dict, "defect_space", "a defect_space section")
    carrier = _factor_group(obj.get("carrier", {"type": "cyclic", "n": 6}), "defect_space.carrier")
    if not carrier.is_finite:
        raise ConfigError("defect_space.carrier", "vector enumeration needs a finite carrier")
    raw_choices = _expect(
        obj.get("choices", ["-1", "-1/2", "1/2", "1"]), list, "defect_space.choices", "a list of rationals"
    )
    choices = tuple(_rational(c, f"defect_space.choices[{i}]") for i, c in enumerate(raw_choices))
    return DefectSpaceSetup(carrier, choices)


# -- drivers -----------------------------------------------------------------


def _seed_for(args, config: Config) -> int:
    return args.seed if args.seed is not None else config.sampler.seed


def _sampling(args, config: Config, s: Splitting, label: str) -> tuple[Callable[[], Word], int]:
    """The word sampler on the child seed of ``label`` with the config's
    bounds, and the sample count (``--samples`` over the config)."""
    rng = child_rng(_seed_for(args, config), label)
    count = args.samples if args.samples is not None else config.sampler.samples
    if count < 0:
        raise ConfigError("--samples", f"expected a count >= 0, got {count}")
    return word_sampler(s, config.sampler.length_bound, config.sampler.exponent_bound, rng), count


def _emit(args, rows: Sequence[tuple[str, str]]) -> None:
    if args.format == "json":
        print(json.dumps(dict(rows), indent=2, sort_keys=True))
    else:
        for key, value in rows:
            print(f"{key}: {value}")


def _named_map(config: Config, name: str) -> SplitQM:
    if name not in config.maps:
        raise ConfigError(f"maps.{name}", "no such map in the config")
    return config.maps[name]


def cmd_eval(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    print(eval_split(f, parse_word(f.splitting, args.word)))
    return 0


def cmd_homogenize(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    print(homogenize_eval(f, parse_word(f.splitting, args.word)))
    return 0


def _doubling_witness_row(report: GromovNormReport) -> tuple[str, str]:
    if report.witness is None:
        return ("doubling witness", "none")
    attained = "attained" if report.witness_attains else "not attained"
    return ("doubling witness", f"gap {report.witness.gap} ({attained})")


def _doubling_witness_status(report: GromovNormReport) -> int:
    """Exit status 1, reported on stderr, when the witness of a positive
    norm misses twice the norm."""
    if report.value and not report.witness_attains:
        print("identity violation: doubling witness misses twice the norm", file=sys.stderr)
        return 1
    return 0


def cmd_defect(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    sampler, count = _sampling(args, config, f.splitting, "defect")
    exact = split_defect(f)
    sampled = sampled_defect(f, sampler, count, extra_pairs=junction_pairs(f))
    report = gromov_norm(f)
    rows = [
        ("factor defect A", str(f.fA.defect())),
        ("factor defect B", str(f.fB.defect())),
        ("split defect", str(exact)),
        (f"sampled defect ({count} pairs)", str(sampled)),
        ("gromov norm", str(report.value)),
        _doubling_witness_row(report),
    ]
    _emit(args, rows)
    if sampled != exact:
        print(f"identity violation: sampled defect {sampled} != split defect {exact}", file=sys.stderr)
        return 1
    return _doubling_witness_status(report)


def cmd_decompose(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    sampler, count = _sampling(args, config, f.splitting, "decompose")
    worst = Fraction(0)
    for _ in range(count):
        worst = max(worst, abs(decomposition_residual(f, sampler())))
    _emit(args, [("words checked", str(count)), ("max residual", str(worst))])
    return 0


def cmd_tau_check(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    sampler, count = _sampling(args, config, f.splitting, "tau-check")
    report = check_fixed_point(f, args.exponent, [sampler() for _ in range(count)])
    witness = "none"
    if report.witness is not None:
        witness = (
            f"{format_word(f.splitting, report.witness.word)!r}"
            f" with homogenized gap {report.witness.base_gap}"
        )
    rows = [
        ("twist exponent", str(report.n)),
        ("first factor periodic", str(report.periodic_first_factor)),
        ("second factor zero", str(report.second_factor_zero)),
        ("condition holds", str(report.condition_holds)),
        (f"invariant on {report.checked} samples", str(report.invariant)),
        ("forces zero", str(report.forces_zero)),
        ("violation witness", witness),
        ("commutator gap", str(report.commutator_gap)),
    ]
    _emit(args, rows)
    return 0


def cmd_qc_growth(args) -> int:
    config = load_config(args.config) if args.config else Config(splitting=_default_zxz())
    if "action" in config.raw:
        m, v = _build_action(config)
    else:
        if config.splitting is None:
            config.splitting = _default_zxz()
        m = RegularRep(config.splitting, 1)
        v = m.indicator(IDENTITY)
    depth = args.depth if args.depth is not None else 6
    s = m.splitting
    _, ladder_f = power_ladder_cocycle(m, 2, v, depth=depth, check_prime=3)
    _, stair_f = staircase_cocycle(m, v, depth=depth)
    ladder_norms = [str(m.norm(eval_split_qc(ladder_f, ladder_word(s, 2, n)))) for n in range(1, depth + 1)]
    other_norms = [str(m.norm(eval_split_qc(ladder_f, ladder_word(s, 3, n)))) for n in range(1, depth + 1)]
    stair_norms = [str(m.norm(eval_split_qc(stair_f, staircase_word(s, n)))) for n in range(1, depth + 1)]
    rows = [
        ("action", type(m).__name__),
        ("depth", str(depth)),
        ("seed vector norm", str(m.norm(v))),
        ("ladder p=2 norms", " ".join(ladder_norms)),
        ("ladder p=3 norms (foreign prime)", " ".join(other_norms)),
        ("staircase norms", " ".join(stair_norms)),
    ]
    _emit(args, rows)
    return 0


def _default_zxz() -> Splitting:
    return Splitting(IntegerGroup(), IntegerGroup())


def cmd_defect_space(args) -> int:
    config = load_config(args.config) if args.config else Config()
    setup = _build_defect_space(config)
    checked = 0
    max_defect = Fraction(0)
    worst_slack: Optional[Fraction] = None
    tight_at = "none"
    for f in alternating_vectors(setup.carrier, setup.choices):
        report = order_bound_check(f)
        dn, sup = defect_norm(f), sup_norm(f)
        if not (sup <= dn <= 3 * sup or (dn == 0 and sup == 0)):
            raise RuntimeError(f"norm sandwich fails: sup {sup}, defect {dn}")
        checked += 1
        max_defect = max(max_defect, dn)
        if f.values and (worst_slack is None or report.worst_slack < worst_slack):
            worst_slack = report.worst_slack
            table = ", ".join(f"{x} -> {v}" for x, v in sorted(f.values.items()))
            tight_at = f"element {report.tight_at} of vector {{{table}}}"
    rows = [
        ("carrier size", str(setup.carrier.size)),
        ("value choices", " ".join(str(c) for c in setup.choices)),
        ("vectors checked", str(checked)),
        ("max defect norm", str(max_defect)),
        ("norm sandwich", "sup <= defect <= 3*sup holds"),
        ("order bound", "holds on every vector"),
        ("smallest order-bound slack", "none" if worst_slack is None else f"{worst_slack} at {tight_at}"),
    ]
    _emit(args, rows)
    return 0


def cmd_qrep(args) -> int:
    config = load_config(args.config) if args.config else Config()
    if "qrep" in config.raw:
        setup = _build_qrep(config)
    else:
        target = FiniteMetric.from_length_function(
            CyclicGroup(6),
            [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1), Fraction(1, 2)],
        )
        s = Splitting(CyclicGroup(2), CyclicGroup(3))
        setup = QRepSetup(
            s,
            target,
            SplitQRep(
                s,
                target,
                FactorQRMap(A, target, s.A, {}),
                FactorQRMap(B, target, s.B, {1: 1, 2: 5}),
            ),
            eps=Fraction(1),
            max_norm=Fraction(1, 2),
        )
    sampler, count = _sampling(args, config, setup.splitting, "qrep")
    small = check_no_small_subgroups(setup.target, setup.eps)
    exact = qrep_defect(setup.mu)
    sampled = qrep_sampled_defect(setup.mu, sampler, count)
    rows = [
        ("target", type(setup.target).__name__),
        ("eps", str(setup.eps)),
        ("no eps-small subgroups", f"{'yes' if small.passed else 'NO'} (certified)"),
        ("delta (sup norm)", str(qrep_delta(setup.mu))),
        ("defect", str(exact)),
        (f"sampled defect ({count} pairs)", str(sampled)),
    ]
    failures = 0
    searches = 0
    if isinstance(setup.target, FiniteMetric):
        homs = [
            (hA, hB)
            for hA in enumerate_factor_homs(A, setup.splitting.A, setup.target)
            for hB in enumerate_factor_homs(B, setup.splitting.B, setup.target)
        ]
        for hA, hB in homs:
            rho = SplitHom(setup.splitting, setup.target, hA, hB)
            report = nontriviality_witness(setup.mu, rho, setup.eps)
            searches += 1
            if not report.succeeded:
                failures += 1
        rows.append(("homomorphisms checked", str(len(homs))))
        rows.append(("witness searches succeeded", f"{searches - failures}/{searches}"))
        if setup.max_norm is not None:
            admissible = sum(
                1
                for mu_a in enumerate_factor_qr_maps(A, setup.splitting.A, setup.target, setup.max_norm)
                for mu_b in enumerate_factor_qr_maps(B, setup.splitting.B, setup.target, setup.max_norm)
            )
            rows.append((f"admissible maps within {setup.max_norm}", str(admissible)))
    _emit(args, rows)
    if not small.passed:
        print("identity violation: target admits an eps-small subgroup", file=sys.stderr)
        return 1
    if failures:
        print(f"identity violation: {failures} witness searches exhausted", file=sys.stderr)
        return 1
    if sampled != exact:
        print(f"identity violation: sampled defect {sampled} != defect {exact}", file=sys.stderr)
        return 1
    return 0


def cmd_rademacher(args) -> int:
    f = rademacher()
    report = gromov_norm(f)
    vector = DefectVector(CyclicGroup(3), {1: Fraction(1), 2: Fraction(-1)})
    bound_report = order_bound_check(vector)
    rows = [
        ("splitting", "Z/2 * Z/3"),
        ("factor values A", "all zero (alternation on an exponent-2 factor)"),
        ("factor values B", "1 -> 1, 2 -> -1"),
        ("split defect", str(split_defect(f))),
        ("gromov norm", str(report.value)),
        _doubling_witness_row(report),
        ("order bound slack on Z/3", str(bound_report.worst_slack)),
    ]
    _emit(args, rows)
    return _doubling_witness_status(report)


def cmd_selftest(args) -> int:
    config = load_config(args.config) if args.config else None
    seed = args.seed if args.seed is not None else (config.sampler.seed if config else DEFAULT_SEED)
    only = None
    if args.only:
        try:
            only = {int(part) for part in args.only.split(",")}
        except ValueError:
            raise ConfigError("--only", "expected a comma-separated list of criterion numbers") from None
        unknown = sorted(only - {number for number, _, _ in CRITERIA})
        if unknown:
            raise ConfigError("--only", f"no criterion numbered {', '.join(map(str, unknown))}")
    convention = "literal" if args.debug_literal_convention else "prefix"
    failures = 0
    for result in run_all(seed, only, convention):
        print(format_result(result), flush=True)
        if not result.passed:
            failures += 1
    if config is not None and config.maps:
        for name, f in sorted(config.maps.items()):
            sampler, _ = _sampling(args, config, f.splitting, f"selftest:{name}")
            exact = split_defect(f)
            sampled = sampled_defect(
                f, sampler, min(config.sampler.samples, 2000), extra_pairs=junction_pairs(f)
            )
            ok = sampled == exact
            status = "PASS" if ok else "FAIL"
            print(f"[cfg] {status} map '{name}': sampled defect {sampled}, split defect {exact}")
            if not ok:
                failures += 1
    else:
        print("[cfg] SKIP config map checks (no config supplied)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitqm",
        description="Split quasimorphisms on free products: exact defects, twists, "
        "cocycle growth, and quasi-representation reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON config")
    common.add_argument("--seed", type=int, help="master seed (overrides the config)")
    common.add_argument("--samples", type=int, help="sample count (overrides the config)")
    common.add_argument("--depth", type=int, help="growth/search depth")
    common.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable, help_text: str, config_required: bool = False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func, config_required=config_required)
        return p

    p = add("eval", cmd_eval, "evaluate a named map on a word", config_required=True)
    p.add_argument("map", help="map name from the config")
    p.add_argument("word", help="word text, e.g. 'a b^-2 a^3 b'")
    p = add("homogenize", cmd_homogenize, "homogenized value of a named map on a word", config_required=True)
    p.add_argument("map")
    p.add_argument("word")
    p = add("defect", cmd_defect, "exact, sampled, and norm report for a named map", config_required=True)
    p.add_argument("map")
    p = add("decompose", cmd_decompose, "block-decomposition residuals on sampled words", config_required=True)
    p.add_argument("map")
    p = add("tau-check", cmd_tau_check, "twist fixed-point report for a named map", config_required=True)
    p.add_argument("map")
    p.add_argument("exponent", type=int, help="twist exponent n")
    add("qc-growth", cmd_qc_growth, "ladder and staircase cocycle growth report")
    add("defect-space", cmd_defect_space, "alternating-vector norm and order-bound report")
    add("qrep", cmd_qrep, "quasi-representation defect and witness report")
    add("rademacher", cmd_rademacher, "the canonical split map on Z/2 * Z/3")
    p = add("selftest", cmd_selftest, "run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers to run")
    p.add_argument(
        "--debug-literal-convention",
        action="store_true",
        help="corrupt the ladder translation convention (negative control; criterion 9 must FAIL)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``splitqm selftest | head -1``).  Point
        # stdout at devnull so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return status


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config_required", False) and not args.config:
        parser.error(f"{args.command} requires --config")
    try:
        return args.func(args)
    except GrowthCheckError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except WordSyntaxError as exc:
        print(f"word error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
