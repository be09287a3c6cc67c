"""Asynchronous pairwise consensus on graphs: protocol simulation paired
with exact random-walk and electric-network analysis."""

from .graphs import (
    Graph,
    GraphConstructionError,
    TopologySpec,
    build_graph,
    complete_graph,
    erdos_renyi_graph,
    er_probability,
    is_connected,
    line_graph,
    lollipop_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .walks import (
    HittingBound,
    HittingTable,
    SolverError,
    TickBudgetError,
    WalkMatrix,
    edge_weights,
    effective_resistance,
    hidden_vertex,
    hitting_table,
    hitting_times,
    potential,
    resistance_matrix,
    sample_hitting,
    sample_meet_all,
    sample_pair_meetings,
    stationary_distribution,
    transition_matrix,
)
from .consensus import (
    BinaryState,
    QuantizedState,
    SimResult,
    binary_converged,
    binary_init,
    binary_step,
    binary_update,
    lyapunov,
    quantized_converged,
    quantized_step,
    quantized_update,
    run_to_convergence,
)
from .harness import (
    ScalingFit,
    SweepConfig,
    SweepRecord,
    fit_scaling,
    init_majority_one,
    init_q_setting1,
    init_q_setting2,
    iter_sweep,
    run_sweep,
)

__version__ = "0.1.0"
