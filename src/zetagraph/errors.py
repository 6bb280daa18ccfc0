"""Exception types shared across the package."""


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
    """Raised when a route cannot certify a coefficient to the 1e-9 contract."""
