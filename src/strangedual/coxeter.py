r"""Characteristic polynomials of the Coxeter elements of the quadrangle
graphs, and DOT emission of the graphs themselves.

For a quadruple (g1, g2; g3, g4) the closed form

    D_S(t) = (t^3 - 2t^2 - 2t + 1) * prod_i (t^(g_i) - 1)/(t - 1)
           + t^2 * sum_i (t^(g_i - 1) - 1)/(t - 1) * prod_{j != i} (t^(g_j) - 1)/(t - 1)

is the normative computation (the divisions are exact geometric sums and
are implemented as such); the graph with two extra vertices satisfies
D_Pi(t) = (1 - t)^2 D_S(t).

The graphs are emitted for documentation only: their doubled and dashed
edges carry sign conventions defined in external sources, so nothing is
computed from them here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import UniPolynomial

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
    """Four arm parameters, grouped as two pairs (g1, g2; g3, g4)."""

    gammas: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.gammas) != 4 or any(g < 1 for g in self.gammas):
            raise ValueError(f"need 4 integers >= 1, got {self.gammas!r}")

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


def _geometric(n: int) -> UniPolynomial:
    """(t^n - 1)/(t - 1) = 1 + t + ... + t^(n-1); zero for n = 0."""
    return UniPolynomial([1] * n)


def _as_quadruple(gamma) -> GabrielovQuadruple:
    if isinstance(gamma, GabrielovQuadruple):
        return gamma
    return GabrielovQuadruple(tuple(int(g) for g in gamma))


def charpoly_S(gamma) -> UniPolynomial:
    """Characteristic polynomial of the Coxeter element of the S-graph."""
    quad = _as_quadruple(gamma)
    gs = quad.gammas
    head = UniPolynomial([1, -2, -2, 1])  # t^3 - 2t^2 - 2t + 1
    arms = [_geometric(g) for g in gs]
    product = UniPolynomial.one()
    for arm in arms:
        product = product * arm
    result = head * product
    t_squared = UniPolynomial([0, 0, 1])
    for i in range(4):
        term = _geometric(gs[i] - 1)
        for j in range(4):
            if j != i:
                term = term * arms[j]
        result = result + t_squared * term
    return result


def charpoly_Pi(gamma) -> UniPolynomial:
    """Characteristic polynomial for the Pi-graph: (1 - t)^2 * charpoly_S."""
    one_minus_t_sq = UniPolynomial([1, -2, 1])
    return one_minus_t_sq * charpoly_S(gamma)


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
