"""demimart: empirical verification of demimartingale inequalities.

Partial-sum ensembles with positively associated increments, a monotone
test-function battery for the defining projection inequality, stopping-time
and optional-sampling checks, Bernstein-type concentration bounds, and an
exact enumeration oracle that grounds every Monte-Carlo estimate.
"""

from .asymptotics import (
    CltDiagnostics,
    CompleteConvergenceDiagnostics,
    TailRecord,
    clt_diagnose,
    complete_convergence_diagnose,
    ecf_distance,
    ks_critical_value,
    ks_distance_to_normal,
    ratio_cubed_decreasing,
)
from .bounds import (
    bernstein_tail,
    doob_max_bound,
    h1,
    h1_lower,
    lp_max_bound,
    mgf_log_bound,
    moment_bound,
    phi,
    phi_bound,
    psi_sup,
)
from .core import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SummaryStats,
    VerificationReport,
    derive_stream,
)
from .generators import (
    DiscreteChainSpec,
    GeneratorSpec,
    IncrementLaw,
    StructuralClass,
    adversarial_spec,
    bernoulli,
    centered,
    classify,
    gaussian_assoc_spec,
    generate,
    iid_spec,
    increment_bound,
    rademacher,
    shared_shock_spec,
    sigma_n_exact,
    to_chain,
    uniform,
    v_n,
)
from .monotone import (
    CERTIFIED_BY_CONSTRUCTION,
    COUNTEREXAMPLE,
    SAMPLED_OK,
    MonotoneTestFunction,
    MonotonicityCertificate,
    certify_indicator_monotonicity,
    evaluate,
    evaluate_batch,
    sample_battery,
)
from .oracle import fold_expectations
from .registry import (
    CheckResult,
    PreconditionError,
    all_entries,
    check_definition,
    lookup,
    verify,
    verify_detailed,
)
from .stopping import (
    NOT_STOPPED,
    StoppingRule,
    capped,
    deterministic,
    first_passage_down,
    first_passage_up,
    jump_if_high,
    user_rule,
)

__version__ = "0.1.0"
