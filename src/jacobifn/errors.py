"""Exception hierarchy shared by all jacobifn modules."""


class JacobiFnError(Exception):
    """Base class for all library errors."""


# --- scalar kernel ---------------------------------------------------------

class PoleError(JacobiFnError):
    """Gamma function evaluated at (or too close to) a non-positive integer."""


class UndefinedError(JacobiFnError):
    """Pochhammer/gamma-ratio extension hits an unresolvable pole."""


class FactorOverflow(JacobiFnError, OverflowError):
    """A gamma value, a gamma ratio or Q's prefactor lies past double range.

    The value it multiplies may well be representable.  The Lanczos product
    of ``gamma`` is not finite from Re z of about 142.58 on, so P and Q
    raise it at large degree or parameters (Re alpha or Re gamma of about
    150, and lower for Q).  It is also an OverflowError.
    """


# --- hypergeometric series -------------------------------------------------

class DivergentError(JacobiFnError):
    """Series with more upper than lower+1 parameters and no termination."""


class ContinuationRequired(JacobiFnError):
    """|z| >= 1 for a nonterminating r = s+1 series; caller must transform."""


class LowerPoleError(JacobiFnError):
    """Lower parameter in -N0 not shielded by an earlier termination."""


class CutError(JacobiFnError):
    """Argument on or within guard distance of the cut [1, oo)."""


class NoConvergentPath(JacobiFnError):
    """No transformation produces an argument inside the convergence disk.

    ``jacobi_p`` under AUTO also raises it where P's value is past double
    range.  Beyond the preferred disk a terminating series (gamma in N0)
    comes first; where its sum is not finite, the large-z connection is
    tried, and its value past double range raises too, though its scaled
    form ``jacobi_p_scaled`` still returns.
    """


class ZeroArgument(JacobiFnError):
    """z = 0 where the reversed finite series requires z != 0."""


class TruncationWarning(UserWarning):
    """Series stopped at the hard term cap before meeting the stopping rule."""


# --- Jacobi functions ------------------------------------------------------

class DomainCutError(JacobiFnError):
    """Evaluation point on or within guard distance of the function's cut."""


class ValidityError(JacobiFnError):
    """Parameter triple violates the validity predicate of the function."""


class VanishingValue(JacobiFnError):
    """The log of a function value that is 0 was asked for.

    ``jacobi_q_log`` raises it where Q vanishes: where its 2F1 sum is 0
    (at (alpha, beta, gamma) = (0.5, -0.5, -1), for one, ``jacobi_q``
    returns 0) and at an infinite z, where ``jacobi_q`` returns 0.  Scalar
    and array calls raise it alike.
    """


# --- quadrature ------------------------------------------------------------

class ExponentError(JacobiFnError):
    """Endpoint exponent <= -1; the weighted integral does not converge."""


class NonConvergence(JacobiFnError):
    """Rule doubling stalled without meeting the convergence target."""


class DecayCheckFailed(JacobiFnError):
    """Declared decay exponent of an improper integrand is not below -1 by the ray's margin."""


class OrderCapExceeded(JacobiFnError):
    """Repeated-integral order beyond the supported cap."""


class CutIntersection(JacobiFnError):
    """Contour disk intersects the declared cut of the integrand."""


class ConvergenceConstraintError(JacobiFnError):
    """Integral-representation parameters violate its convergence constraint."""


class CoefficientZeroError(JacobiFnError):
    """A required coefficient (e.g. a Pochhammer prefactor) vanishes."""


# --- identity engine / CLI -------------------------------------------------

class ConstraintViolation(JacobiFnError):
    """Sample violates an identity's parameter constraints.

    The message names the violated predicate.
    """


class EmptyAdmissibleSet(JacobiFnError):
    """Every requested sample violated the identity's constraints."""


class UnknownIdentity(JacobiFnError):
    """Identity id not present in the catalog."""


class FixtureFormatError(JacobiFnError):
    """Fixtures file is missing, truncated, or not parseable."""
