"""Random-walk and resistance-distance quantities of q-triangulation
graphs, computed two independent ways and cross-validated."""

from .errors import (
    ConvergenceFailure,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    EmptyGraphError,
    FloatOverflowError,
    GraphError,
    InvalidKError,
    InvalidNodeRefError,
    InvalidQError,
    SameNodeError,
    SelfLoopError,
    SizeLimitError,
    TrispectraError,
)
from .graph import (
    Graph,
    build_graph,
    builtin_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    is_bipartite,
    parse_edge_list,
    path_graph,
    star_graph,
)
from .iterated import (
    TRIANGLE_BASE,
    iterated_additive,
    iterated_kemeny,
    iterated_kirchhoff,
    iterated_multiplicative,
    pseudofractal_metrics,
)
from .metrics import (
    GraphSummary,
    compute_metrics,
    hitting_oracle,
    kemeny,
    kirchhoff_indices,
    resistance_oracle,
)
from .spectral import (
    Spectrum,
    eigendecompose,
    kernel_basis,
    kernel_sum_residual,
    lift_eigenvalues,
    lift_spectrum,
)
from .transfer import (
    new_old_resistance_sum,
    new_pair_resistance_sum,
    transfer_additive,
    transfer_hitting,
    transfer_kemeny,
    transfer_kirchhoff,
    transfer_multiplicative,
    transfer_resistance,
    transferred_summary,
)
from .triangulation import (
    TriangulationResult,
    iterate_triangulation,
    new_node_generator,
    predicted_counts,
    q_triangulate,
)

__version__ = "0.1.0"
