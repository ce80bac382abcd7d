"""Edge-indexed weighted graphs, graphs of finite groups, and cuspidal graphs.

A graph is built from undirected edge pairs (a, b, w(a->b), w(b->a)); pair k
becomes the oriented edges 2k (a->b) and 2k+1 (b->a), which are each
other's inverse by construction, and each carries its own positive integer
weight.  In a graph of finite groups the weight of an edge is the index
[G_source : G_edge], and every weight is taken to be such an index.  A
cuspidal graph is a finite core plus finitely many standard rays; a ray is
never materialized, only its attachment data (outward weight ``alpha`` and
inward weight ``ray_q``) is stored, and :func:`truncate` produces finite
approximations on demand.

The constructors enforce the invariants (unique vertex ids, known endpoints
and cusp vertices, positive integer weights, q and central order) by
raising ``ValueError``; :func:`validate` checks only connectivity.
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
    "GraphOfGroups",
    "Cusp",
    "CuspidalGraph",
    "GraphFormatError",
    "BudgetExceededError",
    "weights_from_groups",
    "validate",
    "truncate",
    "relabel",
    "invariant_signature",
]


class GraphFormatError(ValueError):
    """Raised when graph JSON violates the documented schema."""


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
            i = len(edges)
            edges.append(OrientedEdge(i, a, b, i + 1, wa))
            edges.append(OrientedEdge(i + 1, b, a, i, wb))
        self.edges: tuple[OrientedEdge, ...] = tuple(edges)
        for e in self.edges:
            if not isinstance(e.weight, int):
                raise ValueError(f"edge {e.id} has non-integer weight {e.weight!r}")
            if e.weight <= 0:
                raise ValueError(f"edge {e.id} has non-positive weight {e.weight}")
            out[e.source].append(e.id)
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
class GraphOfGroups:
    """Finite graph with group orders attached to vertices and edges.

    ``edge_order[i]`` is the order of the group on the i-th undirected pair.
    The groups themselves are never needed, only their orders.
    """

    vertices: tuple[str, ...]
    edge_pairs: tuple[tuple[str, str], ...]
    vertex_order: Mapping[str, int]
    edge_order: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_order) != len(self.edge_pairs):
            raise ValueError("edge_order needs one group order per edge pair")
        missing = {v for pair in self.edge_pairs for v in pair} - set(self.vertex_order)
        if missing:
            raise ValueError(f"no vertex group order for {sorted(missing)}")
        if any(n < 1 for n in (*self.vertex_order.values(), *self.edge_order)):
            raise ValueError("group orders must be >= 1")


def weights_from_groups(g: GraphOfGroups) -> EdgeIndexedGraph:
    """Weight each oriented edge by |G_source| / |G_edge| (always an integer)."""
    pairs = []
    for i, (a, b) in enumerate(g.edge_pairs):
        n_e = g.edge_order[i]
        for v in (a, b):
            if g.vertex_order[v] % n_e:
                raise ValueError(
                    f"edge group order {n_e} of pair ({a}, {b}) does not divide "
                    f"vertex group order {g.vertex_order[v]} at {v}"
                )
        pairs.append((a, b, g.vertex_order[a] // n_e, g.vertex_order[b] // n_e))
    return EdgeIndexedGraph(g.vertices, pairs)


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
        if not (isinstance(self.alpha, int) and isinstance(self.ray_q, int)):
            raise ValueError(f"non-integer cusp alpha {self.alpha!r} or ray_q {self.ray_q!r}")
        if self.alpha < 1:
            raise ValueError("cusp attachment weight alpha must be >= 1")
        if self.ray_q < 2:
            raise ValueError("cusp ray weight ray_q must be >= 2")


@dataclass(frozen=True)
class CuspidalGraph:
    """Finite core plus standard cusp rays; the stand-in for a geometrically finite quotient."""

    core: EdgeIndexedGraph
    cusps: tuple[Cusp, ...]
    q: int
    central_order: int = 1

    def __post_init__(self):
        if not (isinstance(self.q, int) and isinstance(self.central_order, int)):
            raise ValueError(f"non-integer q {self.q!r} or central_order {self.central_order!r}")
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.central_order < 1:
            raise ValueError("central_order must be a positive integer")
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
        """Parse graph JSON; any schema violation raises :class:`GraphFormatError`."""
        if not isinstance(data, dict):
            raise GraphFormatError("graph JSON must be an object")
        _require_keys(data, {"q", "vertices", "edges"}, {"central_order", "cusps"}, "graph")
        q = _positive_int(data["q"], "q")
        central = _positive_int(data.get("central_order", 1), "central_order")
        vertices = data["vertices"]
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise GraphFormatError("vertices must be a list of strings")
        pairs = []
        for entry in _list_field(data, "edges"):
            if not isinstance(entry, dict):
                raise GraphFormatError("each edge must be an object")
            _require_keys(entry, {"a", "b", "wa", "wb"}, set(), "edge")
            a, b = entry["a"], entry["b"]
            if not isinstance(a, str) or not isinstance(b, str):
                raise GraphFormatError(f"edge ({a!r}, {b!r}) references an unknown vertex")
            if a == b:
                raise GraphFormatError(f"self-loop at {a!r} is not supported")
            pairs.append((a, b, _positive_int(entry["wa"], "wa"), _positive_int(entry["wb"], "wb")))
        cusps = []
        for entry in _list_field(data, "cusps"):
            if not isinstance(entry, dict):
                raise GraphFormatError("each cusp must be an object")
            _require_keys(entry, {"vertex", "alpha"}, {"ray_q"}, "cusp")
            v = entry["vertex"]
            if not isinstance(v, str):
                raise GraphFormatError(f"cusp attached to unknown vertex {v!r}")
            cusps.append((v, _positive_int(entry["alpha"], "alpha"),
                          _positive_int(entry.get("ray_q", q), "ray_q")))
        try:
            core = EdgeIndexedGraph(vertices, pairs)
            return cls(core, tuple(Cusp(*c) for c in cusps), q, central)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise GraphFormatError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - keys
    if missing:
        raise GraphFormatError(f"missing field(s) {sorted(missing)} in {where}")


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise GraphFormatError(f"{where} must be a positive integer, got {value!r}")
    return value


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise GraphFormatError(f"{key} must be a list, got {value!r}")
    return value


def validate(g: EdgeIndexedGraph | CuspidalGraph) -> None:
    """Raise :class:`GraphFormatError` unless the core graph is connected.

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
            raise GraphFormatError("graph is not connected")


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


def invariant_signature(c: CuspidalGraph):
    """Canonical tuple of isomorphism invariants of a cuspidal graph's presentation.

    Equal signatures are necessary for two presentations (core plus cusps)
    to be isomorphic, and distinct signatures certify that they are not.
    They do not certify that the infinite graphs presented differ.  With
    q = 2, one vertex with three cusps of alpha 1, and the path v0-v1 with
    w(v0->v1) = 1, w(v1->v0) = 2 and cusps of alpha 1 (two at v0, one at
    v1), have distinct signatures; yet v1 is the first vertex of a standard
    ray, so both present one graph.  The components are the sorted degree
    sequence (cusps count as pendant edges), the multiset of unoriented
    core weight pairs, the multiset of cusp parameters, and the canonically
    aggregated per-vertex outgoing-weight multisets.
    """
    graph = c.core
    degree_seq = []
    profiles = []
    for v in graph.vertices:
        out = [graph.edges[i].weight for i in graph.out_edges(v)]
        alphas = [x.alpha for x in c.cusps if x.vertex == v]
        degree_seq.append(len(out) + len(alphas))
        profiles.append(tuple(sorted(out + alphas)))
    weight_pairs = sorted(
        (min(wa, wb), max(wa, wb)) for _, _, wa, wb in graph.edge_pairs()
    )
    cusp_params = sorted((x.alpha, x.ray_q) for x in c.cusps)
    return (
        tuple(sorted(degree_seq)),
        tuple(weight_pairs),
        tuple(cusp_params),
        tuple(sorted(profiles)),
    )
