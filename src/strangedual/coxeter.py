r"""Characteristic polynomials of the Coxeter elements of the quadrangle
graphs, and DOT emission of the graphs themselves.

For a quadruple (g1, g2; g3, g4) the closed form

    D_S(t) = (t^3 - 2t^2 - 2t + 1) * prod_i (t^(g_i) - 1)/(t - 1)
           + t^2 * sum_i (t^(g_i - 1) - 1)/(t - 1) * prod_{j != i} (t^(g_j) - 1)/(t - 1)

is the normative computation; the graph with two extra vertices satisfies
D_Pi(t) = (1 - t)^2 D_S(t).  Both are computed over Z from the numerator

    N(t) = (t - 1)^4 D_S(t)
         = (t^3 - 2t^2 - 2t + 1) * prod_i (t^(g_i) - 1)
           + t^2 * sum_i (t^(g_i - 1) - 1) * prod_{j != i} (t^(g_j) - 1).

Expanding each product of binomials over the 16 subsets S of the four
arms, with k = |S| and s = the sum of the g_i in S, gives

    N(t) = sum_S (-1)^k t^s (1 + (k - 2) t + (2 - k) t^2 + t^3),

since the S term of arm i's product has the power s + 1 when i is in S
and s + 2 otherwise.  N is then divided exactly by (1 - t)^4 for D_S
and (1 - t)^2 for D_Pi through the frame kernel of
:mod:`strangedual.series` and its tail check; both exponents are even,
so (1 - t)^k = (t - 1)^k.  The work is linear in g1 + g2 + g3 + g4.

The graphs are emitted for documentation only: their doubled and dashed
edges carry sign conventions defined in external sources, so nothing is
computed from them here.
"""

from __future__ import annotations

from collections import namedtuple

from ._errors import StrangedualError, checked_make, integers
from .series import MAX_FRAME_BASE, UniPolynomial, _polynomial_part, _times_frame

__all__ = [
    "GabrielovQuadruple",
    "ArmRangeError",
    "GraphShapeError",
    "charpoly_S",
    "charpoly_Pi",
    "Graph",
    "GraphEdge",
    "emit_graph",
]


class ArmRangeError(StrangedualError, ValueError):
    """Arm parameters that are not four integers in [1, MAX_FRAME_BASE]."""


class GraphShapeError(StrangedualError, ValueError):
    """A graph shape other than ``"S"`` or ``"Pi"``."""


class GabrielovQuadruple(namedtuple("GabrielovQuadruple", "gammas")):
    """Four arm parameters, grouped as two pairs (g1, g2; g3, g4).

    Each parameter is an integer in [1, MAX_FRAME_BASE], the bound that
    already caps the frame bases of the orbit polynomial of the quadruple;
    a non-integer raises ``ArmRangeError`` rather than being truncated.
    """

    __slots__ = ()
    _make = checked_make

    def __new__(cls, gammas: tuple[int, int, int, int]):
        self = tuple.__new__(cls, (integers(gammas, ArmRangeError, "arm parameters"),))
        if len(self.gammas) != 4 or any(not 1 <= g <= MAX_FRAME_BASE for g in self.gammas):
            raise ArmRangeError(
                f"need 4 arm parameters in [1, {MAX_FRAME_BASE}], got {self.gammas!r}"
            )
        return self

    def __str__(self) -> str:
        g = self.gammas
        return f"{g[0]},{g[1]};{g[2]},{g[3]}"


def _as_quadruple(gamma) -> GabrielovQuadruple:
    return gamma if isinstance(gamma, GabrielovQuadruple) else GabrielovQuadruple(gamma)


def _over_t_minus_one(gamma, times: int) -> UniPolynomial:
    """N(t) / (t - 1)^times for the numerator N of the module docstring
    (``times`` even)."""
    gs = _as_quadruple(gamma).gammas
    numerator = [0] * (sum(gs) + 4)
    subsets = [(0, 0)]  # (sum, size) of each subset of the arms
    for g in gs:
        subsets += [(s + g, k + 1) for s, k in subsets]
    for s, k in subsets:
        sign = -1 if k & 1 else 1
        numerator[s] += sign
        numerator[s + 1] += sign * (k - 2)
        numerator[s + 2] -= sign * (k - 2)
        numerator[s + 3] += sign
    degree = len(numerator) - 1 - times
    return _polynomial_part(_times_frame(numerator, ((1, -times),)), degree)


def charpoly_S(gamma) -> UniPolynomial:
    """Characteristic polynomial of the Coxeter element of the S-graph."""
    return _over_t_minus_one(gamma, 4)


def charpoly_Pi(gamma) -> UniPolynomial:
    """Characteristic polynomial for the Pi-graph: (1 - t)^2 * charpoly_S."""
    return _over_t_minus_one(gamma, 2)


class GraphEdge(namedtuple("GraphEdge", "u v style", defaults=("single",))):
    """One edge; ``style`` is single, double or dashed."""

    __slots__ = ()


class Graph(namedtuple("Graph", "name vertices edges")):
    """A named graph: vertex names and :class:`GraphEdge` records."""

    __slots__ = ()

    def to_dot(self) -> str:
        lines = [f"graph {self.name} {{"]
        for v in self.vertices:
            lines.append(f"    {v};")
        styles = {"double": ' [style=bold,label="2"]', "dashed": " [style=dashed]"}
        for e in self.edges:
            lines.append(f"    {e.u} -- {e.v}{styles.get(e.style, '')};")
        lines.append("}")
        return "\n".join(lines)


#: Per shape: the central vertices, the central edges and, for each of the
#: four arms, the two central vertices its innermost vertex joins.
_SHAPES = {
    "S": (
        ("c1", "c2", "c3"),
        (GraphEdge("c1", "c2"), GraphEdge("c2", "c3", "double")),
        (("c2", "c3"),) * 4,
    ),
    "Pi": (
        ("c1", "c2", "c3", "c4", "c5"),
        (
            GraphEdge("c1", "c3"),
            GraphEdge("c1", "c2", "dashed"),
            GraphEdge("c2", "c3"),
            GraphEdge("c2", "c4", "double"),
            GraphEdge("c3", "c5", "double"),
            GraphEdge("c2", "c5"),
            GraphEdge("c3", "c4"),
            GraphEdge("c4", "c5"),
        ),
        (("c2", "c4"),) * 2 + (("c3", "c5"),) * 2,
    ),
}


def emit_graph(gamma, shape: str = "S") -> Graph:
    """Vertex/edge data of the S- or Pi-graph for a quadruple.

    S: central vertices c1 - c2 == c3 (one double edge), every arm tied to
    both c2 and c3; Pi: five central vertices with two double edges and
    one dashed edge, arms 1,2 tied to the left pair and arms 3,4 to the
    right pair; arm i is the path d<i>_1 .. d<i>_<g_i - 1>, its last vertex
    tied to both anchors.  Vertex counts: sum(gamma) -/+ 1 for S/Pi.
    """
    gs = _as_quadruple(gamma).gammas
    if shape not in _SHAPES:
        raise GraphShapeError(f"shape must be 'S' or 'Pi', got {shape!r}")
    centre, central_edges, arm_anchors = _SHAPES[shape]
    vertices, edges = list(centre), list(central_edges)
    for i, (g, anchors) in enumerate(zip(gs, arm_anchors), start=1):
        arm = [f"d{i}_{r}" for r in range(1, g)]
        vertices += arm
        edges += [GraphEdge(u, v) for u, v in zip(arm, arm[1:])]
        if arm:
            edges += [GraphEdge(arm[-1], anchor) for anchor in anchors]
    return Graph(f"{shape}_{'_'.join(map(str, gs))}", tuple(vertices), tuple(edges))
