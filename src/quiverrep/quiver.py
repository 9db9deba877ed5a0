"""Quivers, dimension vectors, and the Euler form."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

DimVector = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph with 0-based vertices.

    Arrow order is significant: representation files list matrices
    positionally with respect to it.
    """

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        arrows = tuple((int(s), int(t)) for s, t in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        for s, t in arrows:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"arrow ({s},{t}) out of range")
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(i + 1) for i in range(self.vertex_count)))
        else:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.vertex_count:
                raise ValueError("label count mismatch")
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate vertex labels")
            object.__setattr__(self, "labels", labels)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def out_arrows(self, v: int) -> list[tuple[int, tuple[int, int]]]:
        return [(i, a) for i, a in enumerate(self.arrows) if a[0] == v]

    def in_arrows(self, v: int) -> list[tuple[int, tuple[int, int]]]:
        return [(i, a) for i, a in enumerate(self.arrows) if a[1] == v]

    def label_index(self, label: str) -> int:
        return self.labels.index(str(label))


def opposite(q: Quiver) -> Quiver:
    """Reverse all arrows; an involution, preserving arrow order."""
    return Quiver(q.vertex_count, tuple((t, s) for s, t in q.arrows), q.labels)


def is_acyclic(q: Quiver) -> bool:
    return topological_order(q) is not None


def topological_order(q: Quiver):
    """A topological order (smallest available vertex first), or None."""
    indeg = [0] * q.vertex_count
    for _, t in q.arrows:
        indeg[t] += 1
    avail = sorted(v for v in range(q.vertex_count) if indeg[v] == 0)
    order = []
    indeg = list(indeg)
    import heapq

    heap = list(avail)
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for _, (s, t) in enumerate(q.arrows):
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heapq.heappush(heap, t)
    if len(order) != q.vertex_count:
        return None
    return tuple(order)


def _underlying_adjacency(q: Quiver):
    """Undirected adjacency with edge multiplicities; loops counted."""
    adj = [dict() for _ in range(q.vertex_count)]
    loops = 0
    for s, t in q.arrows:
        if s == t:
            loops += 1
            continue
        adj[s][t] = adj[s].get(t, 0) + 1
        adj[t][s] = adj[t].get(s, 0) + 1
    return adj, loops


def dynkin_type(q: Quiver):
    """The ADE type of the underlying graph ("A3", "D4", "E6", ...) or None.

    Checks the shape explicitly: a connected simple tree that is either a
    path, or has exactly one degree-3 vertex with arm lengths (1,1,n-3)
    [type D] or (1,2,c) with c in {2,3,4} [types E6,E7,E8].
    """
    n = q.vertex_count
    if n == 0:
        return None
    adj, loops = _underlying_adjacency(q)
    if loops:
        return None
    if any(m > 1 for d in adj for m in d.values()):
        return None  # multiple edges
    edge_count = sum(len(d) for d in adj) // 2
    if edge_count != n - 1:
        return None  # not a tree (wrong edge count)
    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None
    degrees = [len(d) for d in adj]
    if any(d > 3 for d in degrees):
        return None
    branch = [v for v in range(n) if degrees[v] == 3]
    if not branch:
        return f"A{n}"
    if len(branch) > 1:
        return None
    b = branch[0]
    arms = []
    for w in adj[b]:
        length = 1
        prev, cur = b, w
        while degrees[cur] == 2:
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    a1, a2, a3 = arms
    if a1 == 1 and a2 == 1:
        return f"D{n}"
    if a1 == 1 and a2 == 2 and a3 in (2, 3, 4):
        return f"E{n}"
    return None


def is_dynkin(q: Quiver) -> bool:
    return dynkin_type(q) is not None


def require_dynkin(q: Quiver) -> str:
    t = dynkin_type(q)
    if t is None:
        raise ValueError("quiver is not of Dynkin (ADE) type")
    return t


def check_dimvector(q: Quiver, d: DimVector) -> DimVector:
    d = tuple(int(x) for x in d)
    if len(d) != q.vertex_count:
        raise ValueError(f"dimension vector length {len(d)} != vertex count {q.vertex_count}")
    if any(x < 0 for x in d):
        raise ValueError("dimension vector entries must be nonnegative")
    return d


def euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    d = check_dimvector(q, d)
    e = check_dimvector(q, e)
    total = sum(x * y for x, y in zip(d, e))
    for s, t in q.arrows:
        total -= d[s] * e[t]
    return total


def functional(q: Quiver, e: DimVector, d: DimVector) -> int:
    """The linear functional e(.) evaluated on d, i.e. <d, e>."""
    return euler_form(q, d, e)


def dim_add(d: DimVector, e: DimVector) -> DimVector:
    return tuple(x + y for x, y in zip(d, e))


def dim_sub(d: DimVector, e: DimVector) -> DimVector:
    out = tuple(x - y for x, y in zip(d, e))
    return out


def dim_leq(d: DimVector, e: DimVector) -> bool:
    return all(x <= y for x, y in zip(d, e))


def dim_scale(r: int, d: DimVector) -> DimVector:
    return tuple(r * x for x in d)


# ----------------------------------------------------------------------
# Standard quivers


def a_n(n: int) -> Quiver:
    """Equioriented type A quiver 1 -> 2 -> ... -> n."""
    return Quiver(n, tuple((i, i + 1) for i in range(n - 1)))


def kronecker(k: int) -> Quiver:
    """The k-arrow Kronecker quiver with two vertices."""
    return Quiver(2, tuple((0, 1) for _ in range(k)), labels=("i", "j"))


def d4_subspace() -> Quiver:
    """The D4 quiver with central source 1 and arrows to 2, 3, 4."""
    return Quiver(4, ((0, 1), (0, 2), (0, 3)))


# ----------------------------------------------------------------------
# Serialization: {"vertices": [labels], "arrows": [[src, tgt], ...]}
# Arrow endpoints may be labels or 0-based indices.


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.labels),
        "arrows": [[q.labels[s], q.labels[t]] for s, t in q.arrows],
    }


def quiver_from_json(data: dict) -> Quiver:
    if not isinstance(data, dict) or not all(
        isinstance(data.get(k), list) for k in ("vertices", "arrows")
    ):
        raise ValueError("a quiver must be a JSON object with lists 'vertices' and 'arrows'")
    if not all(isinstance(a, list) and len(a) == 2 for a in data["arrows"]):
        raise ValueError("each arrow must be a [source, target] pair")
    labels = [str(x) for x in data["vertices"]]
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(x) -> int:
        if isinstance(x, int):
            if 0 <= x < len(labels):
                return x
            raise ValueError(f"vertex index {x} out of range")
        if str(x) in index:
            return index[str(x)]
        raise ValueError(f"unknown vertex {x!r}")

    arrows = tuple((resolve(s), resolve(t)) for s, t in data["arrows"])
    return Quiver(len(labels), arrows, tuple(labels))


def save_quiver(q: Quiver, path) -> None:
    with open(path, "w") as fh:
        json.dump(quiver_to_json(q), fh, indent=1)


def load_quiver(path) -> Quiver:
    with open(path) as fh:
        return quiver_from_json(json.load(fh))
