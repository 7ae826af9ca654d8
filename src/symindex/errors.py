"""Exception hierarchy for the index computations.

Every failure mode that a caller can sensibly react to gets its own
class; everything derives from ``SymindexError`` so a blanket handler
is possible at the CLI boundary.
"""


class SymindexError(Exception):
    """Base class for all package-specific errors."""


class InputError(SymindexError):
    """Malformed user input (CLI documents, bad shapes, non-finite data)."""


# -- numerics ---------------------------------------------------------------

class AsymmetricInput(SymindexError):
    """Symmetry defect of a matrix exceeds the admissible tolerance."""


class NonHermitianInput(SymindexError):
    """Hermitian defect of a matrix exceeds the admissible tolerance."""


# -- symplectic structures --------------------------------------------------

class OddDimension(SymindexError):
    """A symplectic object was given with odd ambient dimension."""


class DimensionMismatch(SymindexError):
    """Operands live in incompatible spaces."""


class NotLagrangian(SymindexError):
    """A frame fails the rank or isotropy requirement for a Lagrangian."""


class NotIsotropic(SymindexError):
    """A subspace sent to a reduction step is not isotropic."""


class NotHamiltonian(SymindexError):
    """Matrix is not in the Lie algebra of the symplectic group."""


class NotSymplectic(SymindexError):
    """Matrix does not preserve the symplectic form."""


# -- spectral / Krein -------------------------------------------------------

class NotAnEigenvalue(SymindexError):
    """Requested value is not in the spectrum within tolerance."""


class DegenerateForm(SymindexError):
    """A form expected to be nondegenerate has numerically zero eigenvalues."""


class NotSemisimple(SymindexError):
    """Geometric multiplicities fall short of algebraic ones."""


class UnclassifiableSpectrum(SymindexError):
    """Spectrum cannot be matched to the basic normal-form blocks."""


# -- crossings --------------------------------------------------------------

class NonRegularCrossing(SymindexError):
    """A crossing form is degenerate where regularity is required."""


class GridTooCoarse(SymindexError):
    """A scan cannot certify its phase lift: a built-in path needs more
    than ``MAX_CELLS`` cells, or a frame function's sampled phase of
    det Z turns by more than pi/2 in one cell (increase grid)."""


# -- triple index and reduction --------------------------------------------

class KNotAdmissible(SymindexError):
    """Reduction subspace is not contained in the pairwise intersections."""


# -- autonomous pipeline ----------------------------------------------------

class TransversalityViolated(SymindexError):
    """The upper-right block of the time-one map is not invertible."""


class SymmetryDefect(SymindexError):
    """A matrix that is symmetric in exact arithmetic failed the check."""


class InternalMismatch(SymindexError):
    """Two routes that must agree in exact arithmetic disagreed."""


class CalibrationFailure(SymindexError):
    """The correction-sign probes do not determine a consistent sign."""
