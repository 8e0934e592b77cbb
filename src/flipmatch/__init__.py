"""Amortized samplers for sparse discrete graphical models.

The package turns a factorized Markov network over binary (+1/-1) variables
into a trainable Bayesian-network sampler: chordalize the interaction graph,
orient it into a DAG, and fit the DAG's conditionals so that single-variable
flip ratios of the sampler match those of the unnormalized model.  Matching
local ratios everywhere recovers the full joint without ever touching the
partition function.

Also included: trajectory-balance style baselines that regress full or partial
sampling paths against the reward, a Gibbs sampler, and an exact enumeration
oracle for small models.
"""

from flipmatch import errors
from flipmatch.energy import (
    ExactTable,
    FactorGraphModel,
    IsingModel,
    TabularBayesNetModel,
    all_states,
    ebm_param_grad,
    enumerate_exact,
    random_factor_lattice,
    random_ising,
    read_model,
    write_model,
)
from flipmatch.graph import (
    Imap,
    UndirectedGraph,
    chain_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    max_cardinality_search,
    min_fill_chordalize,
    random_graph,
    sample_imap,
    star_graph,
    sub_imap,
)
from flipmatch.harness import (
    OBJECTIVES,
    MetricsRow,
    TrainConfig,
    data_marginal_loglik,
    interaction_graph,
    latent_imap,
    load_train_config,
    metric_mmd_linear,
    metric_nll,
    read_metrics_csv,
    save_train_config,
    train_delta,
    train_ebm,
    train_em,
    train_gfn,
    write_metrics_csv,
)
from flipmatch.losses import (
    FlowHead,
    LogZEstimate,
    db_trajectory_loss,
    delta_loss,
    delta_loss_batch,
    delta_loss_stochastic_grad,
    subtb_loss_batch,
    tb_loss_batch,
)
from flipmatch.nn import AdamState, MaeConfig, MaeParams, load_checkpoint, save_checkpoint
from flipmatch.sampler import (
    AmortizedSampler,
    AnnealSchedule,
    Policy,
    gibbs_chain,
)

__version__ = "0.1.0"
