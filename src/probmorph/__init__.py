"""Markov kernel calculus and kernel mean embedding losses on finite spaces."""

from .spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
    SpaceMismatchError,
    dirac,
    empirical,
    jordan_hahn,
    marginal,
    product,
    tv_norm,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    KroneckerGram,
    NotPSDError,
    c_k,
    embed_inner,
    embedding_injective,
    gram,
    kernel_eval,
    mmd,
)
from .morphisms import (
    MarkovKernel,
    SignedKernel,
    compose,
    deterministic,
    disintegrate,
    embedded_operator_norm,
    graph,
    graph_pushforward,
    identity_kernel,
    joint,
    projection_kernel,
    pullback,
    pushforward,
    sup_tv_norm,
)
from .losses import (
    BHCheck,
    RiskReport,
    empirical_risk,
    excess_risk,
    expected_risk,
    instantaneous_loss,
    kl_and_bh_check,
    mmd_correct_loss,
    sup_row_mmd,
    tv_correct_loss,
)
from .learning import (
    CermResult,
    FiniteClass,
    LearnerConfig,
    NewtonInterpolant,
    ParametricClass,
    RegularizedFit,
    WFunctionalSpec,
    cerm,
    empirical_section,
    gamma_schedule,
    newton_interpolant,
    regularized_estimate,
    w_functional,
)
from .bounds import (
    BoundReport,
    covering_bound,
    covering_number,
    hoeffding_bound,
    hoeffding_general,
    lipschitz_deviation_check,
    mmd_concentration_bound,
    monte_carlo_verify,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
