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
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .groups import CyclicGroup, FactorGroup, FiniteTableGroup, IntegerGroup, set_alternating
from .words import (
    A,
    B,
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
    ModuleAction,
    RegularRep,
    eval_split_qc,
    ladder_word,
    power_ladder_cocycle,
    staircase_cocycle,
    staircase_word,
)
from .defect_space import DefectVector, alternating_vectors, order_bound_check
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


def _known(obj: dict, path: str, fields: str) -> dict:
    """``obj`` when each of its fields is named in ``fields``; otherwise a
    ConfigError at the first unknown field's path ("$" is the top level)."""
    for key in obj:
        if key not in fields.split():
            raise ConfigError(key if path == "$" else f"{path}.{key}", "unknown field")
    return obj


def _object(value, path: str, what: str, fields: str) -> dict:
    """The JSON object ``value`` (``what``), each of its fields named in ``fields``."""
    return _known(_expect(value, dict, path, what), path, fields)


Reader = Callable[[object, str], object]  # (JSON value, its path) -> the value read


@contextmanager
def _at(path: str) -> Iterator[None]:
    """Report a builder's ValueError, TypeError or IndexError as a
    ConfigError at ``path``; a ConfigError keeps its own path."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(path, str(exc)) from None


def _items(value, path: str, what: str, read: Reader) -> list:
    """Each item of the JSON list ``value`` (``what``), read at its own path."""
    return [read(item, f"{path}[{i}]") for i, item in enumerate(_expect(value, list, path, what))]


def _pairs(value, path: str, what: str, key: Reader, read: Reader) -> list[tuple[str, object, object]]:
    """(path, key, value) for each [key, value] pair of the JSON list ``value``,
    ``what`` naming the key; the key and value are read at their own paths."""
    def pair(entry, at: str) -> tuple[str, object, object]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(at, f"expected a [{what}, value] pair, got {entry!r}")
        return at, key(entry[0], f"{at}[0]"), read(entry[1], f"{at}[1]")
    return _items(value, path, f"a list of [{what}, value] pairs", pair)


def _matrix(value, path: str, read: Reader) -> tuple[tuple, ...]:
    """The square JSON matrix ``value``, each entry read at its own path."""
    rows = _items(value, path, "a square matrix", lambda row, at: _items(row, at, "a matrix row", read))
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ConfigError(f"{path}[{i}]", f"expected {len(rows)} entries in a square matrix, got {len(row)}")
    return tuple(map(tuple, rows))


def _index(value, path: str) -> int:
    return _expect(value, int, path, "an element index")


def _element(group: FactorGroup) -> Reader:
    """The reader of an element of ``group``."""
    def read(value, path: str) -> int:
        with _at(path):
            return group.check(value)
    return read


def _factor_group(obj, path: str) -> FactorGroup:
    obj = _expect(obj, dict, path, "a factor descriptor object")
    kind = obj.get("type")
    with _at(path):
        if kind == "integer":
            _known(obj, path, "type")
            return IntegerGroup()
        if kind == "cyclic":
            _known(obj, path, "type n")
            return CyclicGroup(_expect(obj.get("n"), int, f"{path}.n", "an integer"))
        if kind == "table":
            _known(obj, path, "type mul identity")
            table = _matrix(obj.get("mul"), f"{path}.mul", _index)
            identity = _index(obj.get("identity", 0), f"{path}.identity")
            return FiniteTableGroup.from_mul(len(table), lambda x, y: table[x][y], identity=identity)
    raise ConfigError(f"{path}.type", f"unknown factor type {kind!r}")


def _factor_qm(obj, group: FactorGroup, path: str) -> FactorQM:
    obj = _object(obj, path, "a factor map object", "slope support period residues sign")
    support = {}
    for at, x, value in _pairs(obj.get("support", []), f"{path}.support", "element", _element(group), _rational):
        # Alternation fills in the value at the inverse; explicit entries
        # for both elements of a pair must agree with it.
        with _at(at):
            set_alternating(support, group, x, value)
    residues = _items(obj.get("residues", []), f"{path}.residues", "a list of rationals", _rational)
    period = obj.get("period")
    if period is not None:
        _expect(period, int, f"{path}.period", "an integer")
    with _at(path):
        return FactorQM(
            group,
            slope=_rational(obj.get("slope", 0), f"{path}.slope"),
            finite_part=support,
            period=period,
            residues=tuple(residues),
            sign_coeff=_rational(obj.get("sign", 0), f"{path}.sign"),
        )


def _build_splitting(obj) -> Splitting:
    desc = _object(obj, "splitting", "an object with A and B", "A B")
    for side in (A, B):
        if side not in desc:
            raise ConfigError(f"splitting.{side}", "missing factor descriptor")
    with _at("splitting"):
        return Splitting(_factor_group(desc[A], "splitting.A"), _factor_group(desc[B], "splitting.B"))


@dataclass
class Sampler:
    seed: int = DEFAULT_SEED
    samples: int = 2000
    length_bound: int = 5
    exponent_bound: int = 4


@dataclass
class Config:
    """A loaded config: each section built once, None where it is absent.
    ``raw`` is the JSON object the config was read from."""

    splitting: Optional[Splitting] = None
    maps: dict = field(default_factory=dict)
    sampler: Sampler = field(default_factory=Sampler)
    action: Optional[tuple[ModuleAction, object]] = None
    qrep: Optional[QRepSetup] = None
    defect_space: Optional[DefectSpaceSetup] = None
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
    _known(raw, "$", "schema splitting maps sampler action qrep defect_space")
    config = Config(raw=raw)
    if "splitting" in raw:
        config.splitting = _build_splitting(raw["splitting"])
    for name, obj in _expect(raw.get("maps", {}), dict, "maps", "an object of named maps").items():
        if config.splitting is None:
            raise ConfigError("maps", "maps need a splitting")
        obj = _object(obj, f"maps.{name}", "an object with sides A and B", "A B")
        config.maps[name] = SplitQM(
            config.splitting,
            _factor_qm(obj.get(A, {}), config.splitting.A, f"maps.{name}.A"),
            _factor_qm(obj.get(B, {}), config.splitting.B, f"maps.{name}.B"),
        )
    smallest = {"seed": None, "samples": 0, "length_bound": 1, "exponent_bound": 1}  # each field's least value
    sampler_obj = _object(raw.get("sampler", {}), "sampler", "an object", " ".join(smallest))
    for key, least in smallest.items():
        if key in sampler_obj:
            value = _expect(sampler_obj[key], int, f"sampler.{key}", "an integer")
            if least is not None and value < least:
                raise ConfigError(f"sampler.{key}", f"expected an integer >= {least}, got {value}")
            setattr(config.sampler, key, value)
    # Every section is built on load, so a bad config is rejected no matter
    # which driver runs, and each driver reads the built section.
    if "action" in raw:
        config.action = _build_action(raw["action"], config.splitting)
    if "qrep" in raw:
        config.qrep = _build_qrep(raw["qrep"], config.splitting)
    if "defect_space" in raw:
        config.defect_space = _build_defect_space(raw["defect_space"])
    return config


def _build_action(obj, splitting: Optional[Splitting]) -> tuple[ModuleAction, object]:
    obj = _expect(obj, dict, "action", "an action descriptor")
    if splitting is None:
        raise ConfigError("action", "actions need a splitting")
    kind = obj.get("kind")
    with _at("action"):
        if kind == "finite_dim":
            _known(obj, "action", "kind mat_a mat_b vector")
            mat_a = _matrix(obj.get("mat_a"), "action.mat_a", _rational)
            m = FiniteDimRep(splitting, mat_a, _matrix(obj.get("mat_b"), "action.mat_b", _rational))
            coords = obj.get("vector", [1] + [0] * (len(mat_a) - 1))
            return m, m.vector(_items(coords, "action.vector", "a list of coordinates", _rational))
        if kind == "regular":
            _known(obj, "action", "kind p vector")
            p = obj.get("p", 1)
            if p != "inf":
                _expect(p, int, "action.p", 'an integer or "inf"')
            m = RegularRep(splitting, float("inf") if p == "inf" else p)

            def word(text, at: str) -> Word:
                with _at(at):
                    return parse_word(splitting, _expect(text, str, at, "word text"))

            entries = _pairs(obj.get("vector", [["", 1]]), "action.vector", "word", word, _rational)
            return m, m.vector({g: value for _, g, value in entries})
    raise ConfigError("action.kind", f"unknown action kind {kind!r}")


def _metric_target(obj, path: str) -> MetricGroup:
    obj = _expect(obj, dict, path, "a target descriptor")
    kind = obj.get("kind")
    with _at(path):
        if kind == "circle":
            _known(obj, path, "kind")
            return Circle()
        if kind == "finite_metric":
            _known(obj, path, "kind group lengths")
            group = _factor_group(obj.get("group"), f"{path}.group")
            lengths = _items(obj.get("lengths"), f"{path}.lengths", "a length table", _rational)
            return FiniteMetric.from_length_function(group, lengths)
    raise ConfigError(f"{path}.kind", f"unknown target kind {kind!r}")


@dataclass
class QRepSetup:
    mu: SplitQRep
    eps: Fraction
    max_norm: Optional[Fraction]


def _build_qrep(obj, splitting: Optional[Splitting]) -> QRepSetup:
    obj = _expect(obj, dict, "qrep", "a qrep section")
    target = _metric_target(obj.get("target"), "qrep.target")
    if splitting is None:
        raise ConfigError("qrep", "the qrep section needs a splitting")
    mu_obj = _object(obj.get("mu", {}), "qrep.mu", "an object with sides A and B", "A B")
    circle = isinstance(target, Circle)
    # A circle's eps is given in turns, so an "eps" beside it is unknown.
    eps_key, eps_default = ("eps_turns", "1/4") if circle else ("eps", 1)
    _known(obj, "qrep", f"target mu {eps_key} max_norm")
    value = (lambda v, at: target.turn(_rational(v, at))) if circle else _element(target.group)
    maps = []
    for side in (A, B):
        group = splitting.factor(side)
        pairs = _pairs(mu_obj.get(side, []), f"qrep.mu.{side}", "element", _element(group), value)
        with _at(f"qrep.mu.{side}"):
            maps.append(FactorQRMap(side, target, group, {x: y for _, x, y in pairs}))
    eps = _rational(obj.get(eps_key, eps_default), f"qrep.{eps_key}")
    max_norm = _rational(obj["max_norm"], "qrep.max_norm") if "max_norm" in obj else None
    return QRepSetup(SplitQRep(splitting, target, *maps), eps, max_norm)


@dataclass
class DefectSpaceSetup:
    carrier: FactorGroup
    choices: tuple[Fraction, ...]


def _build_defect_space(obj) -> DefectSpaceSetup:
    obj = _object(obj, "defect_space", "a defect_space section", "carrier choices")
    carrier = _factor_group(obj.get("carrier", {"type": "cyclic", "n": 6}), "defect_space.carrier")
    if not carrier.is_finite:
        raise ConfigError("defect_space.carrier", "vector enumeration needs a finite carrier")
    choices = _items(
        obj.get("choices", ["-1", "-1/2", "1/2", "1"]), "defect_space.choices", "a list of rationals", _rational
    )
    return DefectSpaceSetup(carrier, tuple(choices))


# The sections a driver builds where its config has none: the regular
# representation of Z * Z on the identity's indicator (``p`` and ``vector``
# default to 1 and [["", 1]]), and the splitting and qrep sections of
# configs/finite_qrep.json.
DEFAULT_SPLITTING = {"A": {"type": "integer"}, "B": {"type": "integer"}}
DEFAULT_ACTION = {"kind": "regular"}
DEFAULT_QREP_SPLITTING = {"A": {"type": "cyclic", "n": 2}, "B": {"type": "cyclic", "n": 3}}
DEFAULT_QREP = {
    "target": {"kind": "finite_metric", "group": {"type": "cyclic", "n": 6},
               "lengths": ["0", "1/2", "1", "1", "1", "1/2"]},
    "mu": {"A": [], "B": [[1, 1], [2, 5]]}, "eps": "1", "max_norm": "1/2",
}


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


def _sampled_check(args, config: Config, f: SplitQM, label: str, most: Optional[int] = None):
    """(pair count, sampled defect, split defect) of f: the sampled pairs are
    drawn on the child seed of ``label``, at most ``most`` of them, and
    include the junction pairs."""
    sampler, count = _sampling(args, config, f.splitting, label)
    if most is not None:
        count = min(count, most)
    return count, sampled_defect(f, sampler, count, extra_pairs=junction_pairs(f)), split_defect(f)


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


def _check_doubling_witness(report: GromovNormReport) -> None:
    """RuntimeError when the witness of a positive norm misses twice the norm."""
    if report.value and not report.witness_attains:
        raise RuntimeError("doubling witness misses twice the norm")


def cmd_defect(args) -> int:
    config = load_config(args.config)
    f = _named_map(config, args.map)
    count, sampled, exact = _sampled_check(args, config, f, "defect")
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
        raise RuntimeError(f"sampled defect {sampled} != split defect {exact}")
    _check_doubling_witness(report)
    return 0


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
    config = load_config(args.config) if args.config else Config()
    m, v = config.action or _build_action(DEFAULT_ACTION, config.splitting or _build_splitting(DEFAULT_SPLITTING))
    depth = args.depth
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


def cmd_defect_space(args) -> int:
    config = load_config(args.config) if args.config else Config()
    setup = config.defect_space or _build_defect_space({})
    checked = 0
    max_defect = Fraction(0)
    worst_slack: Optional[Fraction] = None
    tight_at = "none"
    for f in alternating_vectors(setup.carrier, setup.choices):
        report = order_bound_check(f)
        checked += 1
        max_defect = max(max_defect, report.defect)
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
    setup = config.qrep or _build_qrep(DEFAULT_QREP, _build_splitting(DEFAULT_QREP_SPLITTING))
    mu, s, target = setup.mu, setup.mu.splitting, setup.mu.target
    sampler, count = _sampling(args, config, s, "qrep")
    small = check_no_small_subgroups(target, setup.eps)
    exact = qrep_defect(mu)
    sampled = qrep_sampled_defect(mu, sampler, count)
    rows = [
        ("target", type(target).__name__),
        ("eps", str(setup.eps)),
        ("no eps-small subgroups", f"{'yes' if small.passed else 'NO'} (certified)"),
        ("delta (sup norm)", str(qrep_delta(mu))),
        ("defect", str(exact)),
        (f"sampled defect ({count} pairs)", str(sampled)),
    ]
    failures = 0
    if isinstance(target, FiniteMetric):
        homs = [
            SplitHom(s, target, hA, hB)
            for hA in enumerate_factor_homs(A, s.A, target)
            for hB in enumerate_factor_homs(B, s.B, target)
        ]
        failures = sum(not nontriviality_witness(mu, rho, setup.eps).succeeded for rho in homs)
        rows.append(("homomorphisms checked", str(len(homs))))
        rows.append(("witness searches succeeded", f"{len(homs) - failures}/{len(homs)}"))
        if setup.max_norm is not None:
            admissible = sum(
                1
                for mu_a in enumerate_factor_qr_maps(A, s.A, target, setup.max_norm)
                for mu_b in enumerate_factor_qr_maps(B, s.B, target, setup.max_norm)
            )
            rows.append((f"admissible maps within {setup.max_norm}", str(admissible)))
    _emit(args, rows)
    if not small.passed:
        raise RuntimeError("target admits an eps-small subgroup")
    if failures:
        raise RuntimeError(f"{failures} witness searches exhausted")
    if sampled != exact:
        raise RuntimeError(f"sampled defect {sampled} != defect {exact}")
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
    _check_doubling_witness(report)
    return 0


def cmd_selftest(args) -> int:
    config = load_config(args.config) if args.config else Config()
    only = None
    if args.only is not None:
        try:
            only = {int(part) for part in args.only.split(",")}
        except ValueError:
            raise ConfigError("--only", "expected a comma-separated list of criterion numbers") from None
        unknown = sorted(only - {number for number, _, _ in CRITERIA})
        if unknown:
            raise ConfigError("--only", f"no criterion numbered {', '.join(map(str, unknown))}")
    convention = "literal" if args.debug_literal_convention else "prefix"
    failures = 0
    for result in run_all(_seed_for(args, config), only, convention):
        print(format_result(result), flush=True)
        if not result.passed:
            failures += 1
    if not config.maps:
        reason = "the config has no maps" if args.config else "no config supplied"
        print(f"[cfg] SKIP config map checks ({reason})")
    for name, f in sorted(config.maps.items()):
        _, sampled, exact = _sampled_check(args, config, f, f"selftest:{name}", most=2000)
        ok = sampled == exact
        status = "PASS" if ok else "FAIL"
        print(f"[cfg] {status} map '{name}': sampled defect {sampled}, split defect {exact}")
        if not ok:
            failures += 1
    return 1 if failures else 0


# Every argument a subcommand can take; each subcommand names the ones its
# driver reads, so any other is a usage error.
ARGUMENTS = {
    "--config": dict(help="path to the JSON config"),
    "--seed": dict(type=int, help="master seed (overrides the config)"),
    "--samples": dict(type=int, help="sample count (overrides the config)"),
    "--depth": dict(type=int, default=6, help="growth depth"),
    "--format": dict(choices=("table", "json"), default="table"),
    "--only": dict(help="comma-separated criterion numbers to run"),
    "--debug-literal-convention": dict(
        action="store_true",
        help="corrupt the ladder translation convention (negative control; criterion 9 must FAIL)",
    ),
    "map": dict(help="map name from the config"),
    "word": dict(help="word text, e.g. 'a b^-2 a^3 b'"),
    "exponent": dict(type=int, help="twist exponent n"),
}
SAMPLED = "--config --seed --samples --format"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitqm",
        description="Split quasimorphisms on free products: exact defects, twists, "
        "cocycle growth, and quasi-representation reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable, help_text: str, arguments: str) -> None:
        p = sub.add_parser(name, help=help_text)
        names = arguments.split()
        # A named map lives in a config, so a subcommand taking one needs it.
        p.set_defaults(func=func, config_required="map" in names)
        for argument in names:
            p.add_argument(argument, **ARGUMENTS[argument])

    add("eval", cmd_eval, "evaluate a named map on a word", "--config map word")
    add("homogenize", cmd_homogenize, "homogenized value of a named map on a word", "--config map word")
    add("defect", cmd_defect, "exact, sampled, and norm report for a named map", f"{SAMPLED} map")
    add("decompose", cmd_decompose, "block-decomposition residuals on sampled words", f"{SAMPLED} map")
    add("tau-check", cmd_tau_check, "twist fixed-point report for a named map", f"{SAMPLED} map exponent")
    add("qc-growth", cmd_qc_growth, "ladder and staircase cocycle growth report", "--config --depth --format")
    add("defect-space", cmd_defect_space, "alternating-vector norm and order-bound report", "--config --format")
    add("qrep", cmd_qrep, "quasi-representation defect and witness report", SAMPLED)
    add("rademacher", cmd_rademacher, "the canonical split map on Z/2 * Z/3", "--format")
    add("selftest", cmd_selftest, "run the acceptance criteria",
        "--config --seed --samples --only --debug-literal-convention")
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
    args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse sets an unknown option aside and gives its value to a
        # positional, so a later argument is left over too: name the options.
        options = [arg for arg in extra if arg.startswith("-")]
        parser.error(f"unrecognized arguments: {' '.join(options or extra)}")
    if getattr(args, "config_required", False) and not args.config:
        parser.error(f"{args.command} requires --config")
    try:
        return args.func(args)
    except WordSyntaxError as exc:
        print(f"word error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a driver's failed identity, GrowthCheckError among them
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
