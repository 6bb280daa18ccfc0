"""Exception types shared across the package, and the coefficient contract.

CONTRACT is the tolerance every certified coefficient is held to: a
coefficient c_k is accepted when its error is at most
CONTRACT * (1 + max(1, |c_k|)).  coeffs_agree compares two series at it,
the determinants' Newton recursion refuses past it, and `check --tol`
defaults to it.  It lives here, beside RefusalError, so that the command
line reads it at load without the series layer.
"""

CONTRACT = 1e-9


class GraphFormatError(ValueError):
    """Raised when a graph document is malformed (not valid JSON, wrong shape)."""


class GraphValidationError(ValueError):
    """Raised when a well-formed document describes an inadmissible graph.

    Carries the full validation report so callers can list every violation.
    """

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in report.entries))


class ResourceCapError(RuntimeError):
    """Raised when a request exceeds a documented size or length cap."""


class RefusalError(ArithmeticError):
    """Raised when a route cannot certify a coefficient to CONTRACT."""
