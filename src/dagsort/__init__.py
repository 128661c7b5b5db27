"""Priority queues over single-source DAGs via label sifting, and the
sorting algorithms they induce."""

from .analysis import (
    DagStats,
    EntropyBoundCheck,
    entropy_bound_holds,
    general_bound,
    hypercube_worst_case_closed,
    hypercube_worst_case_sum,
    stats,
)
from .dag import (
    INF,
    Label,
    LabeledDag,
    format_label,
    is_finite_label,
    parse_dag_text,
    parse_label,
    topological_order,
)
from .errors import (
    CycleError,
    DagSortError,
    EmptyQueueError,
    FullQueueError,
    MultipleSourcesError,
    NonFiniteLabelError,
    NotAllInfinityError,
    NotLoweringError,
    NotRaisingError,
    RaiseToInfinityError,
    SizeMismatchError,
)
from .pqueue import OrderedDagQueue
from .reorder import (
    ComparisonCounter,
    ExchangeStep,
    ExchangeTrace,
    format_trace,
    lower_label,
    raise_label,
    raise_label_via_reversal,
)
from .sorting import SortReport, dag_sort, hypercube_sort, worst_case_input
from .topologies import (
    Hypercube,
    Path,
    Star,
    Topology,
    YoungGrid,
    bfs_order,
    build,
    hypercube_order,
    order_for,
    parse_topology,
)

__version__ = "0.1.0"
