"""Where each determinant route applies: the table ROUTES and why_not.

The table lives apart from the routes themselves so that the command-line
parser, which lists the route names and variants, reads it without loading
the operator and series layers; routes re-exports both names.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import WeightedGraph


class Applicability(NamedTuple):
    """Whether a determinant route takes backtrack flags, weights off 1 by
    more than 1e-12 and a local system; its variants, the default first."""

    flags: bool
    weights: bool
    system: bool
    variants: tuple[str, ...] = ()


ROUTES = {
    "fredholm": Applicability(True, True, True),
    "sunada": Applicability(False, True, True),
    "bass": Applicability(False, True, False, ("corrected", "as-printed")),
    "partial": Applicability(True, True, False, ("W", "w-squared")),
    "classical": Applicability(False, False, False),
}


def why_not(name: str, g: WeightedGraph, system=None) -> str | None:
    """Why route name of ROUTES does not apply to g under system, or None."""
    rule = ROUTES[name]
    if system is not None and not rule.system:
        return f"route {name} takes no local system"
    if g.backtrack and not rule.flags:
        return f"route {name} requires an empty backtrack set"
    if not (rule.weights or all(abs(w - 1.0) <= 1e-12 for w in g.weight.values())):
        return f"{name} route requires unit weights"
    return None
