"""Edge-indexed weighted graphs and cuspidal graphs.

A graph is built from undirected edge pairs (a, b, w(a->b), w(b->a)); pair k
becomes the oriented edges 2k (a->b) and 2k+1 (b->a), which are each
other's inverse by construction, and each carries its own positive integer
weight.  A pair with a == b is a loop, which gives two oriented edges at one
vertex.  A weight stands for the index [G_source : G_edge] of a graph of
finite groups; the groups themselves are never needed.  A cuspidal graph is
a finite core plus finitely many standard rays; a ray is never
materialized, only its attachment data (outward weight ``alpha`` and inward
weight ``ray_q``) is stored, and :func:`truncate` produces finite
approximations on demand.

The constructors enforce the invariants (unique vertex ids, known endpoints
and cusp vertices, and every graph number valid by one rule,
:func:`_check_number`) by raising ``ValueError``, and so do
:meth:`CuspidalGraph.from_json`, which checks only the JSON's shape, and
:func:`validate`, which checks only connectivity.
:class:`BudgetExceededError`, the error of every hard budget in the
package, is defined here too, so the engine and the oracles share it
without importing each other.

Vertex ids are opaque strings.  Matrix row order everywhere in the package
is fixed by the lexicographic order of vertex ids, so identical inputs give
identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


__all__ = [
    "OrientedEdge",
    "EdgeIndexedGraph",
    "Cusp",
    "CuspidalGraph",
    "BudgetExceededError",
    "validate",
    "truncate",
    "relabel",
]


def _check_number(value, what: str, floor: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int``, never a ``bool``, and >= ``floor``.

    The one rule for every graph number: edge weights, cusp ``alpha`` and
    ``ray_q`` (floor 2), ``q`` and ``central_order``.
    """
    if type(value) is not int or value < floor:
        raise ValueError(f"{what} must be an integer >= {floor}, got {value!r}")


class BudgetExceededError(RuntimeError):
    """Raised when a graph, an oracle search, a series or a power would exceed its hard budget."""


@dataclass(frozen=True)
class OrientedEdge:
    """One orientation of an edge: ``id`` and ``inverse`` index into the graph."""

    id: int
    source: str
    target: str
    inverse: int
    weight: int


class EdgeIndexedGraph:
    """Finite graph whose oriented edges carry positive integer weights."""

    __slots__ = ("vertices", "edges", "_out")

    def __init__(
        self,
        vertices: Iterable[str],
        pairs: Iterable[tuple[str, str, int, int]],
    ):
        """Pair k = (a, b, weight a->b, weight b->a) becomes inverse edges 2k and 2k+1."""
        self.vertices: tuple[str, ...] = tuple(vertices)
        out: dict[str, list[int]] = {v: [] for v in self.vertices}
        if len(out) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        edges: list[OrientedEdge] = []
        for a, b, wa, wb in pairs:
            if a not in out or b not in out:
                raise ValueError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            _check_number(wa, "edge weight")
            _check_number(wb, "edge weight")
            i = len(edges)
            edges.append(OrientedEdge(i, a, b, i + 1, wa))
            edges.append(OrientedEdge(i + 1, b, a, i, wb))
            out[a].append(i)
            out[b].append(i + 1)
        self.edges: tuple[OrientedEdge, ...] = tuple(edges)
        self._out = {v: tuple(ids) for v, ids in out.items()}

    def out_edges(self, vertex: str) -> tuple[int, ...]:
        """Ids of oriented edges whose source is ``vertex``."""
        return self._out.get(vertex, ())

    def edge_pairs(self) -> list[tuple[str, str, int, int]]:
        """Undirected pairs (a, b, w(a->b), w(b->a)), one per inverse pair."""
        return [(e.source, e.target, e.weight, self.edges[e.inverse].weight)
                for e in self.edges[::2]]

    def canonical_edge_order(self) -> tuple[int, ...]:
        """Edge ids sorted by (source, target, id); fixes matrix row order."""
        return tuple(sorted(range(len(self.edges)),
                            key=lambda i: (self.edges[i].source, self.edges[i].target, i)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeIndexedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"EdgeIndexedGraph({len(self.vertices)} vertices, {len(self.edges)} oriented edges)"


@dataclass(frozen=True)
class Cusp:
    """Standard infinite ray: outward attachment weight alpha, inward ray_q.

    Beyond the attachment edge the ray pattern is fixed (1 outward, ray_q
    inward), so ray_q = 1 would leave no weighted return path and is
    rejected.
    """

    vertex: str
    alpha: int
    ray_q: int

    def __post_init__(self):
        _check_number(self.alpha, "cusp alpha")
        _check_number(self.ray_q, "cusp ray_q", 2)


@dataclass(frozen=True)
class CuspidalGraph:
    """Finite core plus standard cusp rays; the stand-in for a geometrically finite quotient."""

    core: EdgeIndexedGraph
    cusps: tuple[Cusp, ...]
    q: int
    central_order: int = 1

    def __post_init__(self):
        _check_number(self.q, "q")
        _check_number(self.central_order, "central_order")
        core = set(self.core.vertices)
        for c in self.cusps:
            if c.vertex not in core:
                raise ValueError(f"cusp attached to unknown vertex {c.vertex!r}")

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "central_order": self.central_order,
            "vertices": list(self.core.vertices),
            "edges": [
                {"a": a, "b": b, "wa": wa, "wb": wb}
                for a, b, wa, wb in self.core.edge_pairs()
            ],
            "cusps": [
                {"vertex": c.vertex, "alpha": c.alpha, "ray_q": c.ray_q} for c in self.cusps
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> CuspidalGraph:
        """Parse graph JSON; any schema violation raises ``ValueError``.

        Only the JSON's shape is checked here; its numbers go as they are to
        the constructors, whose errors pass through, so JSON and library
        accept the same numbers (``q`` is judged first: a missing ``ray_q`` defaults to it).
        """
        if not isinstance(data, dict):
            raise ValueError("graph JSON must be an object")
        _require_keys(data, {"q", "vertices", "edges"}, {"central_order", "cusps"}, "graph")
        q = data["q"]
        vertices = data["vertices"]
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise ValueError("vertices must be a list of strings")
        pairs = []
        for entry in _list_field(data, "edges"):
            if not isinstance(entry, dict):
                raise ValueError("each edge must be an object")
            _require_keys(entry, {"a", "b", "wa", "wb"}, set(), "edge")
            a, b = entry["a"], entry["b"]
            if not isinstance(a, str) or not isinstance(b, str):
                raise ValueError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            pairs.append((a, b, entry["wa"], entry["wb"]))
        cusps = []
        for entry in _list_field(data, "cusps"):
            if not isinstance(entry, dict):
                raise ValueError("each cusp must be an object")
            _require_keys(entry, {"vertex", "alpha"}, {"ray_q"}, "cusp")
            v = entry["vertex"]
            if not isinstance(v, str):
                raise ValueError(f"cusp attached to unknown vertex {v!r}")
            cusps.append((v, entry["alpha"], entry.get("ray_q", q)))
        _check_number(q, "q")  # before it stands in for a missing ray_q
        core = EdgeIndexedGraph(vertices, pairs)
        return cls(core, tuple(Cusp(*c) for c in cusps), q, data.get("central_order", 1))


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - keys
    if missing:
        raise ValueError(f"missing field(s) {sorted(missing)} in {where}")


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def validate(g: EdgeIndexedGraph | CuspidalGraph) -> None:
    """Raise ``ValueError`` unless the core graph is connected.

    The constructors already enforce every other invariant.
    """
    graph = g.core if isinstance(g, CuspidalGraph) else g
    if graph.vertices:
        seen = {graph.vertices[0]}
        stack = [graph.vertices[0]]
        while stack:
            v = stack.pop()
            for i in graph.out_edges(v):
                t = graph.edges[i].target
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != len(graph.vertices):
            raise ValueError("graph is not connected")


def truncate(c: CuspidalGraph, depth: int) -> EdgeIndexedGraph:
    """Replace each cusp ray by a path of ``depth`` new vertices.

    The attachment edge keeps weights (alpha out, ray_q in); every deeper
    ray edge carries (1 out, ray_q in).  The deepest ray vertex is a leaf,
    so truncations are nested as subgraphs as ``depth`` grows.

    Ray vertex k of cusp idx is ``{vertex}.ray{idx}.{k}`` with ``'`` appended
    while that is a core vertex: distinct, and the same at every depth.
    """
    if depth < 1:
        raise ValueError("truncation depth must be >= 1")
    vertices = list(c.core.vertices)
    core = set(vertices)
    pairs = c.core.edge_pairs()
    for idx, cusp in enumerate(c.cusps):
        prev = cusp.vertex
        for k in range(1, depth + 1):
            name = f"{cusp.vertex}.ray{idx}.{k}"
            while name in core:
                name += "'"
            vertices.append(name)
            outward = cusp.alpha if k == 1 else 1
            pairs.append((prev, name, outward, cusp.ray_q))
            prev = name
    return EdgeIndexedGraph(vertices, pairs)


def relabel(g: EdgeIndexedGraph | CuspidalGraph, mapping: Mapping[str, str]):
    """Rename vertices through a bijection, carrying all weights along."""
    if isinstance(g, CuspidalGraph):
        return CuspidalGraph(
            relabel(g.core, mapping),
            tuple(Cusp(mapping[c.vertex], c.alpha, c.ray_q) for c in g.cusps),
            g.q,
            g.central_order,
        )
    return EdgeIndexedGraph(
        [mapping[v] for v in g.vertices],
        [(mapping[a], mapping[b], wa, wb) for a, b, wa, wb in g.edge_pairs()],
    )
