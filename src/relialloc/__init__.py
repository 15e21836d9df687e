"""relialloc: exact estimator variances and adaptive sample allocation
for parallel-series reliability systems.

The library computes the exact variance of the plug-in reliability
estimator for any fixed allocation of Bernoulli observations, its
allocation-independent lower bounds, closed-form and brute-force optimal
allocations, and seeded Monte Carlo experiments for the two-stage and
hybrid two-stage adaptive designs.
"""

__version__ = "0.1.0"

from .adaptive_sampling import (
    BernoulliSource,
    BudgetError,
    HybridResult,
    ReplaySource,
    SampleLedger,
    SimulatedSource,
    SourceExhaustedError,
    estimate_reliability,
    hybrid_two_stage,
    mle_cv,
    pilot_size,
    two_stage_subsystem,
)
from .allocation import (
    AllocationRulePlan,
    OracleGuardError,
    apportion,
    balanced_allocation,
    brute_force_optimal,
    component_fractions,
    integerize,
    rule_allocation,
    rule_plan,
    subsystem_fractions,
)
from .experiments import (
    FixedSplitPoint,
    HybridExpectation,
    SweepPoint,
    empirical_variance,
    replication_rng,
    run_convergence_sweep,
    run_fixed_split_experiment,
    run_hybrid_expectation,
    simulate_fixed_allocation,
)
from .system_model import (
    DualSystem,
    ReliabilityAssignment,
    SystemSpecError,
    SystemTopology,
    coeff_variation,
    dual_reliability,
    dual_transform,
    load_system,
    parse_system,
    subsystem_reliability,
    system_reliability,
)
from .variance_analysis import (
    Allocation,
    AllocationError,
    cross_term_sum,
    excess_variance,
    lagrange_decomposition,
    lower_bound_subsystem,
    lower_bound_system,
    subsystem_variance,
    system_variance,
)

__all__ = [
    "__version__",
    "Allocation",
    "AllocationError",
    "AllocationRulePlan",
    "BernoulliSource",
    "BudgetError",
    "DualSystem",
    "FixedSplitPoint",
    "HybridExpectation",
    "HybridResult",
    "OracleGuardError",
    "ReliabilityAssignment",
    "ReplaySource",
    "SampleLedger",
    "SimulatedSource",
    "SourceExhaustedError",
    "SweepPoint",
    "SystemSpecError",
    "SystemTopology",
    "apportion",
    "balanced_allocation",
    "brute_force_optimal",
    "coeff_variation",
    "component_fractions",
    "cross_term_sum",
    "dual_reliability",
    "dual_transform",
    "empirical_variance",
    "estimate_reliability",
    "excess_variance",
    "hybrid_two_stage",
    "integerize",
    "lagrange_decomposition",
    "load_system",
    "lower_bound_subsystem",
    "lower_bound_system",
    "mle_cv",
    "parse_system",
    "pilot_size",
    "replication_rng",
    "rule_allocation",
    "rule_plan",
    "run_convergence_sweep",
    "run_fixed_split_experiment",
    "run_hybrid_expectation",
    "simulate_fixed_allocation",
    "subsystem_fractions",
    "subsystem_reliability",
    "subsystem_variance",
    "system_reliability",
    "system_variance",
    "two_stage_subsystem",
]
