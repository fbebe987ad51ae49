"""End-to-end coverage of the command-line interface."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from splitqm import cli, qrep

S3_MUL = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 5, 4, 0, 2, 1],
    [4, 3, 5, 1, 0, 2],
    [5, 4, 3, 2, 1, 0],
]

BASE_CONFIG = {
    "schema": 1,
    "splitting": {"A": {"type": "integer"}, "B": {"type": "integer"}},
    "maps": {
        "sign": {"A": {"sign": "1"}, "B": {"sign": "1"}},
        "weights": {"A": {"support": [[1, "1"]]}, "B": {"support": [[2, "3/2"]]}},
    },
    "sampler": {"seed": 7, "samples": 300, "length_bound": 5, "exponent_bound": 4},
}
FINITE_DIM_ACTION = {
    "kind": "finite_dim", "mat_a": [[1, 1], [0, 1]], "mat_b": [[0, 1], [1, 0]], "vector": ["1", "0"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def _write(tmp_path, payload, name="custom.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_eval_prints_the_split_value(config_path, capsys):
    assert cli.main(["eval", "--config", config_path, "sign", "a b^-2 a^3 b"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert cli.main(["eval", "--config", config_path, "sign", ""]) == 0
    assert capsys.readouterr().out == "0\n"


def test_homogenize_drops_bounded_terms(config_path, capsys):
    assert cli.main(["homogenize", "--config", config_path, "weights", "a^3"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert cli.main(["homogenize", "--config", config_path, "weights", "a b"]) == 0
    assert capsys.readouterr().out.strip() != ""


def test_malformed_words_are_usage_errors(config_path, capsys):
    assert cli.main(["eval", "--config", config_path, "sign", "a q"]) == 2
    err = capsys.readouterr().err
    assert "word error" in err
    assert "(at position 2)" in err


def test_unknown_map_is_a_config_error(config_path, capsys):
    assert cli.main(["defect", "--config", config_path, "nope"]) == 2
    assert "no such map" in capsys.readouterr().err


def test_missing_config_is_a_parser_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "sign", "a"])
    assert info.value.code == 2
    assert "requires --config" in capsys.readouterr().err


def test_unknown_subcommand_is_a_parser_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_defect_report_is_deterministic(config_path, capsys):
    argv = ["defect", "--config", config_path, "weights"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert "factor defect A: 2" in first
    assert "factor defect B: 3" in first
    assert "split defect: 3" in first
    assert "gromov norm: 3" in first
    assert "doubling witness: gap 6 (attained)" in first


def test_defect_report_in_json(config_path, capsys):
    assert cli.main(["defect", "--config", config_path, "weights", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split defect"] == "3"
    assert payload["factor defect A"] == "2"


def test_seed_override_keeps_exact_rows(config_path, capsys):
    outputs = []
    for seed in ("123", "124"):
        assert cli.main(["defect", "--config", config_path, "weights", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    for out in outputs:
        assert "split defect: 3" in out


def test_decompose_reports_zero_residual(config_path, capsys):
    assert cli.main(["decompose", "--config", config_path, "weights"]) == 0
    out = capsys.readouterr().out
    assert "max residual: 0" in out
    assert "words checked: 300" in out


def test_decompose_rejects_unbounded_maps(config_path, capsys):
    assert cli.main(["decompose", "--config", config_path, "sign"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_tau_check_reports_a_witness(config_path, capsys):
    assert cli.main(["tau-check", "--config", config_path, "weights", "3", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "condition holds: False" in out
    assert "violation witness: '" in out


def test_qc_growth_runs_without_a_config(capsys):
    assert cli.main(["qc-growth", "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "ladder p=2 norms: 1 2 3 4" in out
    assert "ladder p=3 norms (foreign prime): 0 0 0 0" in out
    assert "staircase norms: 1 2 3 4" in out


def test_defect_space_report(capsys):
    assert cli.main(["defect-space"]) == 0
    out = capsys.readouterr().out
    assert "vectors checked" in out
    assert "slack" in out


def test_qrep_report(capsys):
    assert cli.main(["qrep"]) == 0
    out = capsys.readouterr().out
    assert "no eps-small subgroups: yes (certified)" in out


def test_rademacher_report(capsys):
    assert cli.main(["rademacher"]) == 0
    first = capsys.readouterr().out
    assert "split defect: 3" in first
    assert "gromov norm: 3" in first
    assert cli.main(["rademacher"]) == 0
    assert capsys.readouterr().out == first


def test_selftest_subset_without_config(capsys):
    assert cli.main(["selftest", "--only", "2,12,13"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[ 2] PASS sign-evaluation: anchor = 2 and 500 words match the oracle",
        "[12] PASS weight-maps: junction-power values exact; triviality correct on 81 tables",
        "[13] PASS negative-control: literal convention rejected:"
        " ladder evaluation at depth 2 is not 2 times the seed vector",
        "[cfg] SKIP config map checks (no config supplied)",
    ]


def test_selftest_says_when_the_config_has_no_maps(capsys):
    config = str(Path(__file__).resolve().parents[1] / "configs" / "finite_qrep.json")
    assert cli.main(["selftest", "--config", config, "--only", "13"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "[cfg] SKIP config map checks (the config has no maps)"


@pytest.mark.parametrize("only", ["14", "0,99", "2,14"])
def test_selftest_rejects_unknown_criterion_numbers(only, capsys):
    assert cli.main(["selftest", "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: --only: no criterion numbered" in err


@pytest.mark.parametrize("only", ["", "x", "2,"])
def test_selftest_rejects_an_only_list_that_is_not_numbers(only, capsys):
    # An empty list is no list of criteria: it runs none, not all 13.
    assert cli.main(["selftest", "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: --only: expected a comma-separated list of criterion numbers\n"


@pytest.mark.parametrize("command", ["defect", "decompose", "tau-check"])
def test_negative_sample_counts_are_rejected(config_path, capsys, command):
    extra = ["3"] if command == "tau-check" else []
    assert cli.main([command, "--config", config_path, "weights", *extra, "--samples", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: --samples: expected a count >= 0, got -3" in err


def test_selftest_negative_control_fails_criterion_9(capsys):
    assert cli.main(["selftest", "--only", "9", "--debug-literal-convention"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[ 9] FAIL cocycle-witnesses: ladder evaluation at depth 2 is not 2 times the seed vector",
        "[cfg] SKIP config map checks (no config supplied)",
    ]


def test_selftest_runs_config_map_checks(config_path, capsys):
    assert cli.main(["selftest", "--only", "13", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "[13] PASS" in out
    assert "[cfg] PASS map 'sign'" in out
    assert "[cfg] PASS map 'weights'" in out


def test_maximising_pair_beyond_the_sampler_is_not_a_violation(tmp_path, capsys):
    # The defect 2 is attained only at pairs involving a^6, which the sampler
    # (exponent_bound 4) never draws; the junction pairs supply it.
    payload = dict(BASE_CONFIG, maps={"far": {"A": {"support": [[6, "1"]]}, "B": {}}})
    path = _write(tmp_path, payload)
    assert cli.main(["defect", "--config", path, "far"]) == 0
    out = capsys.readouterr().out
    assert "split defect: 2" in out
    assert "sampled defect (300 pairs): 2" in out
    assert cli.main(["selftest", "--only", "13", "--config", path]) == 0
    assert "[cfg] PASS map 'far': sampled defect 2, split defect 2" in capsys.readouterr().out


def test_selftest_samples_option_sets_the_config_map_pair_count(config_path, monkeypatch, capsys):
    counts = []
    real = cli.sampled_defect

    def spy(f, sampler, count, **kwargs):
        counts.append(count)
        return real(f, sampler, count, **kwargs)

    monkeypatch.setattr(cli, "sampled_defect", spy)
    for extra, expected in (([], 300), (["--samples", "5"], 5), (["--samples", "5000"], 2000)):
        counts.clear()
        assert cli.main(["selftest", "--only", "13", "--config", config_path, *extra]) == 0
        assert counts == [expected, expected]  # one check per config map
    assert "[cfg] PASS map 'weights'" in capsys.readouterr().out


# The common options each subcommand's driver reads; every other one is a
# usage error.
READS = {
    "eval": {"--config"},
    "homogenize": {"--config"},
    "defect": {"--config", "--seed", "--samples", "--format"},
    "decompose": {"--config", "--seed", "--samples", "--format"},
    "tau-check": {"--config", "--seed", "--samples", "--format"},
    "qrep": {"--config", "--seed", "--samples", "--format"},
    "qc-growth": {"--config", "--depth", "--format"},
    "defect-space": {"--config", "--format"},
    "rademacher": {"--format"},
    "selftest": {"--config", "--seed", "--samples"},
}
OPTION_VALUES = {"--config": None, "--seed": "3", "--samples": "5", "--depth": "2", "--format": "json"}
# The positional arguments of the subcommands that name a map from the config.
MAP_ARGUMENTS = {
    "eval": ["weights", "a"],
    "homogenize": ["weights", "a"],
    "defect": ["weights"],
    "decompose": ["weights"],
    "tau-check": ["weights", "3"],
}


def test_subcommands_read_27_common_option_slots():
    assert sum(map(len, READS.values())) == 27


@pytest.mark.parametrize("command, option", [(c, o) for c in READS for o in OPTION_VALUES])
def test_each_subcommand_takes_only_the_options_it_reads(config_path, capsys, command, option):
    argv = [command, *MAP_ARGUMENTS.get(command, [])]
    if command in MAP_ARGUMENTS and option != "--config":
        argv += ["--config", config_path]
    if command == "selftest":
        argv += ["--only", "13"]
    argv += [option, OPTION_VALUES[option] or config_path]
    if option in READS[command]:
        assert cli.main(argv) == 0
    else:
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_usage_error_names_only_the_unknown_option(config_path, capsys):
    # argparse sets --format aside and reads its value "json" as the map name,
    # so "a" is left over too.
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--config", config_path, "--format", "json", "sign", "a"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: unrecognized arguments: --format")


@pytest.mark.parametrize(
    "argv, golden, sections",
    [
        (["qc-growth", "--config", "configs/showcase.json"], "qc-growth-showcase", ["action", "defect_space"]),
        (["defect-space", "--config", "configs/showcase.json"], "defect-space", ["action", "defect_space"]),
        (["qrep", "--config", "configs/finite_qrep.json"], "qrep-finite_qrep", ["qrep"]),
    ],
)
def test_drivers_read_the_sections_load_config_built(monkeypatch, capsys, argv, golden, sections):
    root = Path(__file__).resolve().parents[1]
    argv = [str(root / a) if a.startswith("configs/") else a for a in argv]
    builds = Counter()
    for name in ("_build_splitting", "_build_action", "_build_qrep", "_build_defect_space"):
        def counted(*args, _real=getattr(cli, name), _name=name[len("_build_"):]):
            builds[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    real_load = cli.load_config

    def load_without_raw(path):
        config = real_load(path)
        config.raw = {}  # the drivers read the built sections only
        return config

    monkeypatch.setattr(cli, "load_config", load_without_raw)
    assert cli.main(argv) == 0
    assert builds == Counter(["splitting", *sections])
    expected = (root / "tests" / "golden" / f"{golden}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected.split("\n", 1)[1]


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_quietly():
    # The read end is closed before the command starts, so its first write
    # fails with EPIPE, as under `splitqm selftest | head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splitqm.cli", "selftest", "--only", "2,13"],
            stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


def test_package_imports_only_the_standard_library():
    code = "import splitqm, splitqm.cli, sys; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


CIRCLE_QREP_CONFIG = {
    "schema": 1,
    "splitting": {"A": {"type": "integer"}, "B": {"type": "integer"}},
    "qrep": {
        "target": {"kind": "circle"},
        "mu": {"A": [[1, "1/8"]], "B": [[1, "1/8"]]},
        "eps_turns": "1/4",
    },
    "sampler": {"seed": 7, "samples": 200, "length_bound": 4, "exponent_bound": 3},
}


def test_circle_qrep_config_is_exact_in_turns(tmp_path, capsys):
    path = _write(tmp_path, CIRCLE_QREP_CONFIG)
    assert cli.main(["qrep", "--config", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["target"] == "Circle"
    assert report["eps"] == "1/4"
    assert report["no eps-small subgroups"] == "yes (certified)"
    assert report["delta (sup norm)"] == "1/8"
    assert report["defect"] == "1/4"  # mu(a^2) = 0 against 1/8 + 1/8
    assert report["sampled defect (200 pairs)"] == "1/4"


def test_circle_qrep_config_with_a_small_subgroup_fails(tmp_path, capsys):
    payload = json.loads(json.dumps(CIRCLE_QREP_CONFIG))
    payload["qrep"]["eps_turns"] = "1/2"
    path = _write(tmp_path, payload)
    assert cli.main(["qrep", "--config", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["eps"] == "1/2"
    assert report["no eps-small subgroups"] == "NO (certified)"
    assert "identity violation: target admits an eps-small subgroup" in captured.err


@pytest.mark.parametrize(
    "argv, row, err",
    [
        (["defect", "weights"], "sampled defect (300 pairs): 0", "sampled defect 0 != split defect 3"),
        (["qrep"], "sampled defect (2000 pairs): 0", "sampled defect 0 != defect 1"),
    ],
)
def test_sampled_defect_mismatch_is_an_identity_violation(config_path, monkeypatch, capsys, argv, row, err):
    # The rows come first, then the violation on stderr with exit code 1.
    monkeypatch.setattr(cli, "sampled_defect", lambda *args, **kwargs: 0)
    monkeypatch.setattr(qrep, "sampled_defect", lambda *args, **kwargs: 0)
    config = ["--config", config_path] if argv[0] == "defect" else []
    assert cli.main([argv[0], *config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert row in captured.out.splitlines()
    assert captured.err == f"identity violation: {err}\n"


def test_table_factor_config(tmp_path, capsys):
    payload = {
        "schema": 1,
        "splitting": {
            "A": {"type": "table", "mul": S3_MUL},
            "B": {"type": "cyclic", "n": 3},
        },
        "maps": {
            "weights": {"A": {"support": [[1, "1"]]}, "B": {"support": [[1, "1/2"]]}},
        },
        "sampler": {"seed": 7, "samples": 100, "length_bound": 4, "exponent_bound": 2},
    }
    path = _write(tmp_path, payload)
    assert cli.main(["eval", "--config", path, "weights", "A[1] b^2"]) == 0
    assert capsys.readouterr().out == "1/2\n"
    assert cli.main(["defect", "--config", path, "weights"]) == 0


def test_broken_table_factor_is_a_config_error(tmp_path, capsys):
    rows = [list(row) for row in S3_MUL]
    rows[3][3] = 1  # not a Latin square any more
    payload = {
        "schema": 1,
        "splitting": {
            "A": {"type": "table", "mul": rows},
            "B": {"type": "cyclic", "n": 3},
        },
        "maps": {},
        "sampler": {},
    }
    path = _write(tmp_path, payload)
    assert cli.main(["defect-space", "--config", path]) == 2
    assert "config error: splitting.A" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("schema"), "schema"),
        (lambda c: c["maps"]["sign"]["A"].update({"sign": "x/y"}), "maps.sign.A.sign"),
        (lambda c: c["maps"]["sign"]["A"].update({"weird": 1}), "maps.sign.A.weird"),
        (
            lambda c: c["maps"]["weights"]["A"].update({"support": [[1, "1"], [-1, "1"]]}),
            "conflicting value",
        ),
        (lambda c: c["sampler"].update({"samples": "many"}), "sampler.samples"),
        (lambda c: c["sampler"].update({"samples": -1}), "sampler.samples: expected an integer >= 0"),
        (lambda c: c["sampler"].update({"length_bound": 0}), "sampler.length_bound: expected an integer >= 1"),
        (lambda c: c["sampler"].update({"exponent_bound": 0}), "sampler.exponent_bound: expected an integer >= 1"),
        (lambda c: c["maps"]["sign"]["A"].update({"period": True, "residues": ["0"]}), "maps.sign.A.period"),
        (lambda c: c.update({"qrep": {"target": {"kind": "circle"}, "mu": []}}), "qrep.mu"),
        (lambda c: c.update({"qrep": {"target": {"kind": "circle"}, "mu": {"A": 5}}}), "qrep.mu.A"),
        (lambda c: c.update({"defect_space": {"choices": "12"}}), "defect_space.choices"),
        (
            lambda c: c.update(
                {"action": {"kind": "finite_dim", "mat_a": [[1, 0], [0, 1]], "mat_b": [[1, 0], [0, 1]], "vector": "10"}}
            ),
            "action.vector",
        ),
        (lambda c: c.update({"action": {"kind": "regular", "p": True}}), "action.p"),
        (
            lambda c: c.update({"action": {"kind": "regular", "vector": [["a q", 1]]}}),
            "action.vector[0][0]: cannot parse token 'q'",
        ),
        (lambda c: c["maps"]["weights"]["A"].update({"support": 5}), "maps.weights.A.support: expected a list"),
        (lambda c: c["maps"]["sign"]["A"].update({"residues": 5}), "maps.sign.A.residues: expected a list"),
        (
            lambda c: c.update({"action": dict(FINITE_DIM_ACTION, mat_a=[[0.1, 0], [0, 10]])}),
            "action.mat_a[0][0]: expected an integer or a 'p/q' string, got 0.1",
        ),
        (
            lambda c: c.update({"action": dict(FINITE_DIM_ACTION, mat_a=["10", "01"])}),
            "action.mat_a[0]: expected a matrix row",
        ),
        (
            lambda c: c["splitting"].update({"A": {"type": "table", "mul": S3_MUL, "identity": "0"}}),
            "splitting.A.identity: expected an element index",
        ),
        (
            lambda c: c["splitting"]["A"].update({"type": "table", "mul": [list(map(float, r)) for r in S3_MUL]}),
            "splitting.A.mul[0][0]: expected an element index",
        ),
    ],
)
def test_config_errors_carry_their_json_path(tmp_path, capsys, mutate, fragment):
    payload = json.loads(json.dumps(BASE_CONFIG))
    mutate(payload)
    path = _write(tmp_path, payload)
    assert cli.main(["eval", "--config", path, "sign", "a"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert fragment in err


FUZZ_VALUES = (5, None, "x", 0.1, [], {}, [5], [[1]], [[0.5]], True)
FINITE_DIM_CONFIG = {"schema": 1, "splitting": BASE_CONFIG["splitting"], "action": FINITE_DIM_ACTION}
TABLE_CONFIG = {
    "schema": 1,
    "splitting": {"A": {"type": "table", "mul": S3_MUL, "identity": 0}, "B": {"type": "cyclic", "n": 3}},
    "maps": {"weights": {"A": {"support": [[1, "1"]]}, "B": {"support": [[1, "1/2"]]}}},
}


def _shipped(name):
    return json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def _set(*keys):
    """A mutation that sets the field at ``keys[:-1]`` to ``keys[-1]``."""
    def mutate(config):
        node = config
        for key in keys[:-2]:
            node = node[key]
        node[keys[-2]] = keys[-1]
    return mutate


UNKNOWN_FIELDS = [
    (BASE_CONFIG, _set("comment", "x"), "comment"),
    (BASE_CONFIG, _set("splitting", "C", {"type": "integer"}), "splitting.C"),
    (BASE_CONFIG, _set("splitting", "A", "n", 3), "splitting.A.n"),
    (_shipped("finite_qrep"), _set("splitting", "B", "size", 3), "splitting.B.size"),
    (TABLE_CONFIG, _set("splitting", "A", "order", 6), "splitting.A.order"),
    (BASE_CONFIG, _set("maps", "sign", "C", {}), "maps.sign.C"),
    (BASE_CONFIG, _set("maps", "sign", "A", "slop", "1"), "maps.sign.A.slop"),
    (BASE_CONFIG, _set("sampler", "sample", 1000), "sampler.sample"),
    (FINITE_DIM_CONFIG, _set("action", "p", 2), "action.p"),
    (_shipped("showcase"), _set("action", "mat_a", [[1]]), "action.mat_a"),
    (_shipped("finite_qrep"), _set("qrep", "epsilon", "1/8"), "qrep.epsilon"),
    (_shipped("finite_qrep"), _set("qrep", "eps_turns", "1/8"), "qrep.eps_turns"),
    (CIRCLE_QREP_CONFIG, _set("qrep", "eps", "1/8"), "qrep.eps"),
    (CIRCLE_QREP_CONFIG, _set("qrep", "max_norm", "1/2"), "qrep.max_norm"),
    (_shipped("finite_qrep"), _set("qrep", "target", "metric", []), "qrep.target.metric"),
    (CIRCLE_QREP_CONFIG, _set("qrep", "target", "radius", 1), "qrep.target.radius"),
    (_shipped("finite_qrep"), _set("qrep", "target", "group", "m", 6), "qrep.target.group.m"),
    (_shipped("finite_qrep"), _set("qrep", "mu", "C", []), "qrep.mu.C"),
    (_shipped("showcase"), _set("defect_space", "carriers", []), "defect_space.carriers"),
    (_shipped("showcase"), _set("defect_space", "carrier", "N", 6), "defect_space.carrier.N"),
]


@pytest.mark.parametrize("base, mutate, path", UNKNOWN_FIELDS, ids=[path for _, _, path in UNKNOWN_FIELDS])
def test_every_config_object_refuses_unknown_fields(tmp_path, base, mutate, path):
    payload = json.loads(json.dumps(base))
    mutate(payload)
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(_write(tmp_path, payload))
    assert str(info.value) == f"{path}: unknown field"


def _fields(node, path=()):
    """The path of every field below ``node``, a JSON object or list."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield path + (key,)
        yield from _fields(node[key], path + (key,))


@pytest.mark.parametrize("name", ["showcase", "finite_qrep", "finite_dim", "table"])
def test_any_malformed_field_is_a_config_error(tmp_path, name):
    configs = {"finite_dim": FINITE_DIM_CONFIG, "table": TABLE_CONFIG}
    base = configs.get(name) or _shipped(name)
    crashes = []
    for path in _fields(base):
        for value in FUZZ_VALUES:
            payload = json.loads(json.dumps(base))
            node = payload
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                cli.load_config(_write(tmp_path, payload))
            except cli.ConfigError:
                pass
            except Exception as exc:  # anything else is a crash on bad input
                crashes.append((path, value, repr(exc)))
    assert crashes == []


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["eval", "--config", str(path), "sign", "a"]) == 2
    assert "invalid JSON" in capsys.readouterr().err
