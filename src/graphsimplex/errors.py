"""Exception hierarchy shared across the package."""


class GraphSimplexError(Exception):
    """Base class for all errors raised by this package."""


# --- edge-list parsing / graph construction ---

class EdgeListSyntaxError(GraphSimplexError):
    """A data line does not match `<label_a> <label_b> <weight>`."""


class NonPositiveWeightError(GraphSimplexError):
    """A link weight is zero, negative, or not finite."""


class SelfLoopError(GraphSimplexError):
    """A link connects a node to itself."""


class DisconnectedError(GraphSimplexError):
    """The graph is not connected."""


class TooFewNodesError(GraphSimplexError):
    """Fewer than two nodes."""


class UnknownLabelError(GraphSimplexError):
    """A node label referenced on the command line is not in the graph."""


# --- matrix validation ---

class NonSquareError(GraphSimplexError):
    """Matrix is not square."""


class NonFiniteEntryError(GraphSimplexError):
    """Matrix contains NaN or infinite entries."""


class NotALaplacianError(GraphSimplexError):
    """Matrix fails the Laplacian characterization.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        failed = ", ".join(report.failed_properties())
        super().__init__(f"not a Laplacian matrix (failed: {failed})")


class AsymmetricError(GraphSimplexError):
    """Matrix expected to be symmetric is not."""


class NonZeroDiagonalError(GraphSimplexError):
    """Distance matrix has a nonzero diagonal."""


# --- numerics ---

class NoConvergenceError(GraphSimplexError):
    """Eigensolver failed to converge."""


class RankDeficientError(GraphSimplexError):
    """Not exactly one zero eigenvalue where one was expected: several, none
    ("found 0"), a numerically zero matrix, or a smallest nonzero Laplacian
    eigenvalue at the rounding level (``LaplacianMatrix.spectrum``)."""


# --- index subsets ---

class IndexOutOfRangeError(GraphSimplexError):
    """Node or matrix index outside [0, n)."""


class EmptySubsetError(GraphSimplexError):
    """Vertex subset must be non-empty."""


class DuplicateIndexError(GraphSimplexError):
    """Vertex subset contains a repeated index."""


class FaceTooSmallError(GraphSimplexError):
    """Face operation requires at least two vertices."""


class SubsetViolationError(GraphSimplexError):
    """W must be a subset of V."""


class TooSmallError(GraphSimplexError):
    """Single-node elimination requires at least three nodes."""


# --- geometry ---

class DegenerateSimplexError(GraphSimplexError):
    """Vertices are affinely dependent."""


class DegenerateDistanceMatrixError(GraphSimplexError):
    """Squared-distance matrix is not realizable as a nondegenerate simplex."""
