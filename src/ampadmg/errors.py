"""Exception types shared across the package."""


class AmpAdmgError(Exception):
    """Base class for every error raised by this package."""


class GraphValidationError(AmpAdmgError, ValueError):
    """A graph violates one of the structural invariants."""


class SelfEdgeError(GraphValidationError):
    """An edge connects a node to itself."""


class DoubleArrowError(GraphValidationError):
    """Both A -> B and B -> A are present."""


class DoubleEdgeError(GraphValidationError):
    """A pair of nodes carries two edges that are not arrow plus line/biarrow."""


class LineBiarrowMixError(GraphValidationError):
    """Undirected and bidirected edges appear in the same graph."""


class DirectedCycleError(GraphValidationError):
    """The directed part of the graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("directed cycle: " + " -> ".join(str(v) for v in self.cycle))


class NodeOutOfRangeError(AmpAdmgError, ValueError):
    """A node index lies outside 1..n."""


class MalformedQueryError(AmpAdmgError, ValueError):
    """A separation query violates disjointness or non-emptiness."""


class UnsupportedDialectError(AmpAdmgError, ValueError):
    """The operation is not defined for this graph dialect."""


class NodeNotInSetError(AmpAdmgError, ValueError):
    """The target node is not a member of the given set."""


class NotAnAmpCgError(AmpAdmgError, ValueError):
    """The graph is not a chain graph (single edges, no semidirected cycle)."""


class ErrorNodeInZError(AmpAdmgError, ValueError):
    """A conditioning set for determination contains a noise node."""


class SingularSubmatrixError(AmpAdmgError, ValueError):
    """A covariance submatrix could not be inverted."""


class OverlappingSetsError(AmpAdmgError, ValueError):
    """Node sets that must be disjoint overlap."""


class ProblemTooLargeError(AmpAdmgError, ValueError):
    """A problem exceeds a size cap (the learner's exhaustive search,
    ``magnify``'s quadratic masks)."""


class NoFeasibleModelError(AmpAdmgError, ValueError):
    """No candidate graph satisfies all hard constraints."""


class ParseError(AmpAdmgError, ValueError):
    """A text input (graph file, constraint file, derivation script or
    command-line node list) could not be parsed."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)

