"""Split quasimorphisms, quasicocycles, and quasi-representations on free
products of two groups.

A split map on A * B applies one alternating factor map per normal-form
letter; everything downstream is exact rational arithmetic with certified
enumeration windows: defects and their witnesses, homogenization, counting
and block decompositions, twist fixed points, vector-valued cocycle growth,
the defect-vector space with its isometric embeddings, and metric-target
quasi-representations with nontriviality witnesses.
"""

from .groups import (
    CyclicGroup,
    FactorGroup,
    FiniteTableGroup,
    INFINITE,
    IntegerGroup,
)
from .words import (
    A,
    B,
    IDENTITY,
    Splitting,
    Word,
    WordSyntaxError,
    conjugate,
    cyclically_reduce,
    enumerate_words,
    format_word,
    invert,
    multiply,
    parse_word,
    power,
    random_word,
    reduce,
    validate_word,
    word_sampler,
)
from .quasimorphisms import (
    DoublingWitness,
    FactorQM,
    GromovNormReport,
    SplitQM,
    coboundary,
    default_sampler,
    doubling_witness,
    eval_split,
    gromov_norm,
    homogenize_eval,
    is_trivial,
    junction_pairs,
    maximize_doubling_witness,
    rademacher,
    sampled_defect,
    split_defect,
    weight_qm,
)
from .counting import (
    block_counting,
    counting_qm,
    decomposition_residual,
    invert_letters,
    is_reduced_letters,
    letters_from_word,
    subword_count,
    word_from_letters,
)
from .automorphisms import (
    Endo,
    FixedPointReport,
    GrowthWitness,
    apply,
    check_fixed_point,
    compose,
    identity_endo,
    inner,
    inner_distance_check,
    is_periodic,
    pullback_qm,
    twist,
    violation_witness,
)
from .quasicocycles import (
    FactorCocycleMap,
    FiniteDimRep,
    GrowthCheckError,
    ModuleAction,
    RegularRep,
    SplitQC,
    eval_split_qc,
    inner_cocycle,
    inner_split_eval,
    ladder_word,
    power_ladder_cocycle,
    qc_coboundary,
    split_qc_defect,
    staircase_cocycle,
    staircase_word,
)
from .defect_space import (
    DefectVector,
    GroupHom,
    OrderBoundReport,
    ShortExactSequence,
    alternating_vectors,
    defect_norm,
    defect_witness,
    embed_subgroup,
    order_bound_check,
    pullback_quotient,
    ses_embed,
    sup_norm,
)
from .qrep import (
    Circle,
    FactorHom,
    FactorQRMap,
    FiniteMetric,
    MetricGroup,
    SmallSubgroupReport,
    SplitHom,
    SplitQRep,
    WitnessReport,
    check_no_small_subgroups,
    enumerate_factor_homs,
    enumerate_factor_qr_maps,
    eval_qrep,
    nontriviality_witness,
    qrep_defect,
    qrep_delta,
    qrep_sampled_defect,
)

__version__ = "0.1.0"
