"""Exact tests for selective influences on finite input-output experiments.

Given per-treatment joint distributions, decide whether a single jointly
distributed family of hidden responses (one per input value) can reproduce
them: the exact linear feasibility test, plus the cheaper necessary
conditions (marginal selectivity, Bell-CHSH-Fine inequalities, order-distance
chain tests, cosphericity).
"""

from .cosphericity import (
    CorrelationQuad,
    CosphericityResult,
    correlations_from_dataset,
    cosphericity_test,
)
from .distances import (
    ChainRecord,
    ChainReport,
    FineInequality,
    FineReport,
    InputPointSequence,
    OrderRelation,
    chain_test,
    enumerate_irreducible_sequences,
    enumerate_tetradic_sequences,
    fine_inequalities,
    preset_order,
)
from .errors import DatasetParseError, MarginalSelectivityError, SizeGuardError
from .experiment import (
    Dataset,
    ExperimentDesign,
    Input,
    MarginalReport,
    MarginalViolation,
    Output,
    ValidationBreach,
    ValidationReport,
    check_marginal_selectivity,
    make_design,
    validate_dataset,
)
from .io import dataset_from_json_dict, dataset_to_json_dict, dump_dataset, load_dataset
from .lft import (
    LftVerdict,
    QVector,
    Si2Model,
    build_jdc_matrix,
    build_p_vector,
    construct_si2,
    run_lft,
)
from .rational_lp import (
    FeasibilityResult,
    solve_equality_feasibility,
    verify_certificate,
)

__version__ = "0.1.0"

# the dataset generators load on first use, so `import selinf` skips them
_GENERATORS = {
    "AngleSpec", "gen_classical", "gen_double_detection", "gen_ghz", "gen_prbox", "gen_singlet", "parse_angle"
}


def __getattr__(name: str):
    if name in _GENERATORS or name == "generators":
        import importlib

        generators = importlib.import_module(".generators", __name__)
        return generators if name == "generators" else getattr(generators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
