"""Sampled capacity loss of compound multiband Gaussian channels under
periodic sub-Nyquist sampling: capacities, exact converse identities, and
seeded random-matrix experiments."""

from .capacity import (
    LossReport,
    batched_losses,
    capacity_loss,
    discrete_loss,
    discrete_losses,
    sampled_capacity,
    waterfill_gap_bound,
    waterfill_level,
)
from .channel import (
    ChannelState,
    CompoundChannel,
    SnrSummary,
    enumerate_states,
    load_channel,
    snr_summary,
)
from .converse import (
    ConverseCheck,
    min_state_logdet_bound,
    minimax_lower_bound,
    per_instance_sandwich,
    subset_det_sum,
    subset_det_sum_closed,
)
from .numerics import (
    NumericalError,
    SingularityError,
    SubsetPlan,
    binary_entropy,
    colex_plan,
    det_floor,
    log_binomial,
    logdet_shifted,
    minimax_limit,
    rect_logdet_limit,
    subset_logdet,
    whiten,
)
from .samplers import (
    EnsembleSpec,
    SamplerSpec,
    derive_trial_seed,
    draw_matrices,
    draw_matrix,
    make_flat_sampler,
    make_gridded_sampler,
)

__version__ = "0.1.0"
