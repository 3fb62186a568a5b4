"""Entanglement change of two-particle spin-1 states under Lorentz boosts.

The package models a pair of distinguishable spin-1 particles with
two-valued, anti-correlated momenta. A boost acts on each momentum sector
through a Wigner rotation of the spins; the engine computes the resulting
change of linear-entropy entanglement across four partitions of the
momentum and spin subsystems, sweeps it over spin-state parameters, and
reports extrema.
"""

from .tensor import (
    CANONICAL_ORDER,
    DensityMatrix,
    FactorOrder,
    PureState,
    SubsystemLabel,
    batch_purity,
    kron_all,
    outer,
    partial_trace,
    permute_factors,
    permute_operator,
    purity,
    state_purity,
)
from .lorentz import (
    BoostSpec,
    boost_operator,
    jy_matrix,
    single_particle_boost,
    wigner_angle,
    wigner_d,
)
from .states import (
    NAMED_STATES,
    NamedState,
    SpinFamily,
    SpinParams,
    assemble,
    get_named_state,
    invariance_defect,
    invariant_spin_state,
    momentum_state,
    sign_pattern_state,
    spin_state,
    spin_states,
)
from .entanglement import (
    PARTITIONS,
    DeltaEResult,
    Partition,
    delta_e,
    family_entropies,
    linear_entropy,
    parse_partition,
)
from .sweep import (
    ExtremaReport,
    GridSpec,
    SweepConfig,
    SweepResult,
    delta_e_grid,
    find_extrema,
    read_csv,
    read_json,
    run_sweep,
    write_csv,
    write_json,
)
from .checks import CheckReport, CheckResult, check_suite

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_ORDER",
    "BoostSpec",
    "CheckReport",
    "CheckResult",
    "DeltaEResult",
    "DensityMatrix",
    "ExtremaReport",
    "FactorOrder",
    "GridSpec",
    "NAMED_STATES",
    "NamedState",
    "PARTITIONS",
    "Partition",
    "PureState",
    "SpinFamily",
    "SpinParams",
    "SubsystemLabel",
    "SweepConfig",
    "SweepResult",
    "assemble",
    "batch_purity",
    "boost_operator",
    "check_suite",
    "delta_e",
    "delta_e_grid",
    "family_entropies",
    "find_extrema",
    "get_named_state",
    "invariance_defect",
    "invariant_spin_state",
    "jy_matrix",
    "kron_all",
    "linear_entropy",
    "momentum_state",
    "outer",
    "parse_partition",
    "partial_trace",
    "permute_factors",
    "permute_operator",
    "purity",
    "read_csv",
    "read_json",
    "run_sweep",
    "sign_pattern_state",
    "single_particle_boost",
    "spin_state",
    "spin_states",
    "state_purity",
    "wigner_angle",
    "wigner_d",
    "write_csv",
    "write_json",
]
