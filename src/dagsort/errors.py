"""Exception types shared across the package."""


class DagSortError(Exception):
    """Base class for every package-specific error."""


class CycleError(DagSortError):
    """The edge set contains a directed cycle."""


class MultipleSourcesError(DagSortError):
    """Exactly one in-degree-0 vertex was required but not found."""


class NotLoweringError(DagSortError):
    """The new label is not strictly below the current one."""


class NotRaisingError(DagSortError):
    """The new label is not strictly above the current one."""


class NotOrderedError(DagSortError):
    """A sift was started on a DAG that is not ordered."""


class EmptyQueueError(DagSortError):
    """The queue holds no finite labels."""


class FullQueueError(DagSortError):
    """Every vertex already holds a finite label."""


class NotAllInfinityError(DagSortError):
    """Queue creation requires every label to start at infinity."""


class NonFiniteLabelError(DagSortError):
    """Queue elements must be finite integers."""


class RaiseToInfinityError(DagSortError):
    """Raising a label to infinity must go through remove-min."""


class SizeMismatchError(DagSortError):
    """Input length does not match the DAG's vertex count."""
