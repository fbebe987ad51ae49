"""The benchmark's traced run rebinds splitqm functions and methods by name.

This test loads ``splitbench/tracing.py`` the way the benchmark does and
checks that the library still offers the hooks the tracer relies on, so a
refactor cannot silently break a traced run.
"""

import importlib.util
from pathlib import Path

from splitqm import automorphisms, quasicocycles, quasimorphisms, words
from splitqm.groups import IntegerGroup
from splitqm.quasimorphisms import FactorQM
from splitqm.words import parse_word

TRACING = Path(__file__).resolve().parents[1] / "splitbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("splitbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_window_pairs_and_restores_the_originals():
    tracing = _load_tracing()
    original_pairs = FactorQM.__dict__["_pairs"]
    original_norm = quasimorphisms.gromov_norm
    f = quasimorphisms.weight_qm({1: 1, 2: -1})
    rep = quasicocycles.RegularRep(f.splitting, 1)
    _, f_qc = quasicocycles.staircase_cocycle(rep, rep.indicator(parse_word(f.splitting, "b")), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = quasimorphisms.gromov_norm(f)
        qc_defect = quasicocycles.split_qc_defect(f_qc)
    finally:
        tracer.uninstall()
    assert report.value > 0 and qc_defect > 0
    assert tracer.counts["quasimorphisms.window_pairs"] > 0
    assert FactorQM.__dict__["_pairs"] is original_pairs
    assert quasimorphisms.gromov_norm is original_norm


def test_tracer_counts_the_word_kernel_and_restores_the_originals():
    tracing = _load_tracing()
    original_reduce, original_apply = words.reduce, automorphisms.apply
    s = words.Splitting(IntegerGroup(), IntegerGroup())
    # A 3-periodic first factor and a zero second one: invariant under the twist by 3.
    f = quasimorphisms.SplitQM(s, FactorQM(s.A, period=3, residues=(0, 1, -1)), FactorQM(s.B))
    g = parse_word(s, "a b^2 a^-1 b")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cube = words.power(s, g, 3)
        twisted = automorphisms.apply(automorphisms.twist(s, 3), g)
        report = automorphisms.check_fixed_point(f, 3, [g, cube])
    finally:
        tracer.uninstall()
    assert len(cube) == 12 and len(twisted) == 6 and report.invariant
    assert tracer.counts["words.reduce.letters"] > 0
    assert tracer.counts["automorphisms.apply"] > 0
    assert words.reduce is original_reduce and automorphisms.reduce is original_reduce
    assert automorphisms.apply is original_apply


def test_tracer_counts_single_letter_actions_and_restores_both_act_methods():
    tracing = _load_tracing()
    qc = quasicocycles
    originals = (qc.FiniteDimRep.__dict__["act"], qc.RegularRep.__dict__["act"])
    s = words.Splitting(IntegerGroup(), IntegerGroup())
    dense = qc.FiniteDimRep(s, ((1, 1), (0, 1)), ((0, 1), (1, 0)))
    regular = qc.RegularRep(s, 1)
    b = parse_word(s, "b")
    _, f_dense = qc.staircase_cocycle(dense, dense.vector([1, 0]), 3)
    _, f_regular = qc.staircase_cocycle(regular, regular.indicator(b), 3)
    w = qc.staircase_word(s, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        values = [qc.eval_split_qc(f_dense, w), qc.eval_split_qc(f_regular, w)]
        # Split evaluation translates numerators and calls no act; the inner
        # cocycle still acts by a whole word.
        inner = [qc.inner_cocycle(dense, dense.vector([1, 0]), b), qc.inner_cocycle(regular, regular.indicator(b), b)]
    finally:
        tracer.uninstall()
    assert values == [dense.vector([3, 0]), regular.indicator(b, 3)]
    assert inner == [dense.vector([-1, 1]), {parse_word(s, "b^2"): 1, b: -1}]
    assert tracer.counts["quasicocycles.FiniteDimRep.act"] > 0
    assert tracer.counts["quasicocycles.RegularRep.act"] > 0
    assert tracing.layer_metrics(tracer, 1)["quasicocycles.act.calls"][0] > 0
    assert (qc.FiniteDimRep.__dict__["act"], qc.RegularRep.__dict__["act"]) == originals
