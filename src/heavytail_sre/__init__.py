"""Simulation and tail analysis for diagonal stochastic recurrence equations.

The recursion X_t = A_t * X_{t-1} + B_t with componentwise products and
i.i.d. coefficient pairs has, under a negative log drift, a unique
stationary law with power-law marginals.  This package simulates that law,
solves the per-coordinate moment equations for the tail exponents, groups
coordinates whose rescaled coefficients agree almost surely, and estimates
the resulting tail constants, angular measures, and joint-tail decay
rates, each with an internal consistency check against an independent
estimator.
"""

from types import ModuleType as _ModuleType

from .blocks import BlockPartition, detect_blocks
from .common import (
    AmbiguousPartitionError,
    ConfigurationError,
    DivergenceError,
    Estimate,
    LadderError,
    NonContractiveError,
    TailIndexError,
    TauHeavinessError,
    chain_stream,
    diagnostic_stream,
    stage_stream,
)
from .geometry import alpha_norm, dilate, polar, subadditivity_constant
from .independence import (
    GammaBound,
    JointExceedance,
    Tau,
    build_tau,
    decay_rate_fit,
    joint_exceedance,
    submultiplicativity_check,
    tau_gamma_bound,
)
from .model import LogMoment, ModelSpec, log_moment
from .moments import (
    AbscissaScan,
    AlphaRoot,
    PositivityReport,
    cross_kappa,
    goldie_mean,
    kappa,
    moment_abscissa,
    positivity_check,
    solve_alpha,
)
from .simulate import (
    SamplePool,
    default_burn_in,
    drift_diagnostics,
    iterate,
    stationary_pool,
)
from .tails import (
    BlockTailLadder,
    GoldieConstant,
    HillEstimate,
    MomentCheck,
    SpectralEstimate,
    TailConstantLadder,
    TailConstants,
    block_tail_constant,
    empirical_tail_constant,
    goldie_constant,
    hill_estimate,
    moment_estimate,
    quantile_ladder,
    spectral_measure,
)

__version__ = "0.1.0"

# the public API: every name imported above, less the submodules
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))
