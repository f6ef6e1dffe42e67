r"""Characteristic polynomials of the Coxeter elements of the quadrangle
graphs, and DOT emission of the graphs themselves.

For a quadruple (g1, g2; g3, g4) the closed form

    D_S(t) = (t^3 - 2t^2 - 2t + 1) * prod_i (t^(g_i) - 1)/(t - 1)
           + t^2 * sum_i (t^(g_i - 1) - 1)/(t - 1) * prod_{j != i} (t^(g_j) - 1)/(t - 1)

is the normative computation; the graph with two extra vertices satisfies
D_Pi(t) = (1 - t)^2 D_S(t).  Both are computed over Z from the numerator

    N(t) = (t - 1)^4 D_S(t)
         = (t^3 - 2t^2 - 2t + 1) * prod_i (t^(g_i) - 1)
           + t^2 * sum_i (t^(g_i - 1) - 1) * prod_{j != i} (t^(g_j) - 1),

a sum of sparse products of binomials, followed by exact synthetic
division by (t - 1): four times for D_S and twice for D_Pi, as
(1 - t)^2 = (t - 1)^2.  The work is linear in g1 + g2 + g3 + g4.

The graphs are emitted for documentation only: their doubled and dashed
edges carry sign conventions defined in external sources, so nothing is
computed from them here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import index

from .series import MAX_FRAME_BASE, UniPolynomial

__all__ = [
    "GabrielovQuadruple",
    "charpoly_S",
    "charpoly_Pi",
    "Graph",
    "GraphEdge",
    "emit_graph",
]


@dataclass(frozen=True, slots=True)
class GabrielovQuadruple:
    """Four arm parameters, grouped as two pairs (g1, g2; g3, g4).

    Each parameter is an integer in [1, MAX_FRAME_BASE], the bound that
    already caps the frame bases of the orbit polynomial of the quadruple;
    a non-integer raises ``TypeError`` rather than being truncated.
    """

    gammas: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.gammas) != 4 or any(not 1 <= index(g) <= MAX_FRAME_BASE for g in self.gammas):
            raise ValueError(
                f"need 4 arm parameters in [1, {MAX_FRAME_BASE}], got {self.gammas!r}"
            )

    @staticmethod
    def of(g1: int, g2: int, g3: int, g4: int) -> "GabrielovQuadruple":
        return GabrielovQuadruple((g1, g2, g3, g4))

    @property
    def pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        g = self.gammas
        return ((g[0], g[1]), (g[2], g[3]))

    def total(self) -> int:
        return sum(self.gammas)

    def __str__(self) -> str:
        g = self.gammas
        return f"{g[0]},{g[1]};{g[2]},{g[3]}"


def _as_quadruple(gamma) -> GabrielovQuadruple:
    if isinstance(gamma, GabrielovQuadruple):
        return gamma
    return GabrielovQuadruple(tuple(gamma))


def _binomial_product(exponents) -> dict[int, int]:
    """prod (t^g - 1) over ``exponents``, sparse as {power: coefficient}."""
    terms = {0: 1}
    for g in exponents:
        product: dict[int, int] = {}
        for power, coeff in terms.items():
            product[power + g] = product.get(power + g, 0) + coeff
            product[power] = product.get(power, 0) - coeff
        terms = product
    return terms


def _over_t_minus_one(gamma, times: int) -> UniPolynomial:
    """N(t) / (t - 1)^times for the numerator N of the module docstring."""
    gs = _as_quadruple(gamma).gammas
    numerator = [0] * (sum(gs) + 4)
    for power, coeff in _binomial_product(gs).items():
        for shift, head in enumerate((1, -2, -2, 1)):  # t^3 - 2t^2 - 2t + 1
            numerator[power + shift] += head * coeff
    for i in range(4):
        arms = [g - 1 if j == i else g for j, g in enumerate(gs)]
        for power, coeff in _binomial_product(arms).items():
            numerator[power + 2] += coeff
    # Synthetic division by (t - 1): from the top down, each quotient
    # coefficient is the running sum of the coefficients above it, and the
    # sum of all of them is the remainder N(1).
    descending = numerator[::-1]
    for _ in range(times):
        sums = list(accumulate(descending))
        if sums[-1]:
            raise ArithmeticError(f"(t - 1) does not divide the numerator for {gs!r}")
        descending = sums[:-1]
    return UniPolynomial(descending[::-1])


def charpoly_S(gamma) -> UniPolynomial:
    """Characteristic polynomial of the Coxeter element of the S-graph."""
    return _over_t_minus_one(gamma, 4)


def charpoly_Pi(gamma) -> UniPolynomial:
    """Characteristic polynomial for the Pi-graph: (1 - t)^2 * charpoly_S."""
    return _over_t_minus_one(gamma, 2)


@dataclass(frozen=True, slots=True)
class GraphEdge:
    u: str
    v: str
    style: str = "single"  # single | double | dashed


@dataclass(frozen=True, slots=True)
class Graph:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[GraphEdge, ...]

    def to_dot(self) -> str:
        lines = [f"graph {self.name} {{"]
        for v in self.vertices:
            lines.append(f"    {v};")
        for e in self.edges:
            if e.style == "double":
                attr = ' [style=bold,label="2"]'
            elif e.style == "dashed":
                attr = " [style=dashed]"
            else:
                attr = ""
            lines.append(f"    {e.u} -- {e.v}{attr};")
        lines.append("}")
        return "\n".join(lines)


def _arm(index: int, length: int, anchors: tuple[str, ...]):
    """Path d<i>_1 .. d<i>_<length>; the innermost vertex joins every anchor."""
    vertices = [f"d{index}_{r}" for r in range(1, length + 1)]
    edges = [GraphEdge(vertices[r], vertices[r + 1]) for r in range(length - 1)]
    if vertices:
        edges += [GraphEdge(vertices[-1], anchor) for anchor in anchors]
    return vertices, edges


def emit_graph(gamma, shape: str = "S") -> Graph:
    """Vertex/edge data of the S- or Pi-graph for a quadruple.

    S: central vertices c1 - c2 == c3 (one double edge), every arm tied to
    both c2 and c3; Pi: five central vertices with two double edges and
    one dashed edge, arms 1,2 tied to the left pair and arms 3,4 to the
    right pair.  Vertex counts: sum(gamma) - 1 for S, sum(gamma) + 1 for Pi.
    """
    quad = _as_quadruple(gamma)
    gs = quad.gammas
    if shape == "S":
        vertices = ["c1", "c2", "c3"]
        edges = [GraphEdge("c1", "c2"), GraphEdge("c2", "c3", "double")]
        for i, g in enumerate(gs, start=1):
            arm_vertices, arm_edges = _arm(i, g - 1, ("c2", "c3"))
            vertices += arm_vertices
            edges += arm_edges
        return Graph(f"S_{'_'.join(map(str, gs))}", tuple(vertices), tuple(edges))
    if shape == "Pi":
        vertices = ["c1", "c2", "c3", "c4", "c5"]
        edges = [
            GraphEdge("c1", "c3"),
            GraphEdge("c1", "c2", "dashed"),
            GraphEdge("c2", "c3"),
            GraphEdge("c2", "c4", "double"),
            GraphEdge("c3", "c5", "double"),
            GraphEdge("c2", "c5"),
            GraphEdge("c3", "c4"),
            GraphEdge("c4", "c5"),
        ]
        anchor_pairs = {1: ("c2", "c4"), 2: ("c2", "c4"), 3: ("c3", "c5"), 4: ("c3", "c5")}
        for i, g in enumerate(gs, start=1):
            arm_vertices, arm_edges = _arm(i, g - 1, anchor_pairs[i])
            vertices += arm_vertices
            edges += arm_edges
        return Graph(f"Pi_{'_'.join(map(str, gs))}", tuple(vertices), tuple(edges))
    raise ValueError(f"shape must be 'S' or 'Pi', got {shape!r}")
