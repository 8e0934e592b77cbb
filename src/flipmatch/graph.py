"""Undirected graphs, chordal completions, junction trees, and DAG orientations.

The pipeline implemented here turns a sparse Markov network into a directed
acyclic graph whose Bayesian-network factorization can represent the same
distribution: chordalize the graph (min-fill), extract a perfect elimination
structure (maximum cardinality search), build a junction tree over the maximal
cliques, and orient every edge of the chordal graph along a root-to-leaf
traversal of that tree.  The resulting DAG has no immoralities, so its moral
graph is exactly the chordal graph and every conditional only looks at a
vertex's chordal neighborhood.

Randomizing the tie-breaks (elimination ties, spanning-tree ties, traversal
order) yields a whole family of valid orientations for one graph, which is what
lets a single amortized sampler be trained against many variable orders.

Adjacency is kept as Python-int bitmasks: vertex sets are plain ints, subset
tests are ``a & ~b == 0``, and set sizes are ``bit_count`` calls.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "UndirectedGraph",
    "Dag",
    "JunctionTree",
    "Imap",
    "Wavefront",
    "chain_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "ladder_graph",
    "random_graph",
    "read_edge_list",
    "write_edge_list",
    "induced_subgraph",
    "min_fill_chordalize",
    "check_chordal",
    "max_cardinality_search",
    "build_junction_tree",
    "orient_pmap",
    "sample_imap",
    "sub_imap",
    "lift_imap",
    "moral_graph",
    "verify_no_immoralities",
    "running_intersection_holds",
]


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph on vertices ``0..num_vars-1``.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``.  Instances are
    immutable and hashable so chordal completions can be cached per graph.
    """

    num_vars: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.num_vars):
                raise ValueError(f"edge ({u}, {v}) is not a normalized in-range pair")

    @classmethod
    def from_edges(cls, num_vars: int, pairs: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        """Build a graph from unordered pairs, rejecting self-loops."""
        normalized = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((min(u, v), max(u, v)))
        return cls(num_vars, frozenset(normalized))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        masks = [0] * self.num_vars
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def digest(self) -> str:
        """Content hash, stable across processes, used to tag derived objects."""
        text = f"{self.num_vars}|" + ",".join(f"{u}-{v}" for u, v in sorted(self.edges))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj_masks[v]))

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def with_extra_edges(self, pairs: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        extra = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
        if not extra - self.edges:
            return self
        return UndirectedGraph(self.num_vars, self.edges | extra)


def chain_graph(n: int) -> UndirectedGraph:
    """Path graph 0-1-...-(n-1)."""
    return UndirectedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> UndirectedGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return UndirectedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> UndirectedGraph:
    """Vertex 0 joined to all others."""
    return UndirectedGraph.from_edges(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> UndirectedGraph:
    """rows x cols lattice with nearest-neighbor edges, row-major vertex ids."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return UndirectedGraph.from_edges(rows * cols, edges)


def ladder_graph(rungs: int, diagonals: bool = True) -> UndirectedGraph:
    """2 x rungs ladder; with ``diagonals`` each square gains one chord.

    The diagonal chords triangulate every 4-cycle, so the diagonal ladder is
    already chordal.  Vertex ids are row-major: top row 0..rungs-1, bottom row
    rungs..2*rungs-1.
    """
    edges = []
    for i in range(rungs):
        edges.append((i, rungs + i))
        if i + 1 < rungs:
            edges.append((i, i + 1))
            edges.append((rungs + i, rungs + i + 1))
            if diagonals:
                edges.append((i, rungs + i + 1))
    return UndirectedGraph.from_edges(2 * rungs, edges)


def random_graph(n: int, edge_prob: float, seed: int | np.random.Generator) -> UndirectedGraph:
    rng = _as_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return UndirectedGraph.from_edges(n, edges)


def read_edge_list(path: str) -> UndirectedGraph:
    """Parse the text edge-list format.

    First non-comment line is ``n <num_vars>``; every following line is an
    edge ``u v``.  ``#`` starts a comment, blank lines are skipped.
    """
    num_vars = None
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if num_vars is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError(f"{path}:{lineno}: expected header 'n <num_vars>'")
                num_vars = int(parts[1])
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v'")
            pairs.append((int(parts[0]), int(parts[1])))
    if num_vars is None:
        raise ValueError(f"{path}: missing 'n <num_vars>' header")
    return UndirectedGraph.from_edges(num_vars, pairs)


def write_edge_list(g: UndirectedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.num_vars}\n")
        for u, v in sorted(g.edges):
            fh.write(f"{u} {v}\n")


def induced_subgraph(g: UndirectedGraph, vertices: Sequence[int]) -> tuple[UndirectedGraph, tuple[int, ...]]:
    """Subgraph over ``vertices`` with local ids; returns (graph, local->global map)."""
    order = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(order)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return UndirectedGraph.from_edges(len(order), edges), order


# ---------------------------------------------------------------------------
# directed structures


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph with an explicit topological order.

    ``topo_order`` lists exactly the vertices the DAG covers (a subset of the
    universe ``0..num_vars-1`` when the DAG came from a local subgraph).
    """

    num_vars: int
    arcs: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = {v: i for i, v in enumerate(self.topo_order)}
        if len(pos) != len(self.topo_order):
            raise ValueError("topo_order has repeated vertices")
        for v in self.topo_order:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"vertex {v} out of range")
        for a, b in self.arcs:
            if a not in pos or b not in pos:
                raise ValueError(f"arc ({a}, {b}) leaves the covered vertex set")
            if pos[a] >= pos[b]:
                raise ValueError(f"arc ({a}, {b}) violates topo_order")

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.topo_order))

    @cached_property
    def parent_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for a, b in self.arcs:
            out[b].append(a)
        return {v: tuple(sorted(ps)) for v, ps in out.items()}

    @cached_property
    def child_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for a, b in self.arcs:
            out[a].append(b)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}


@dataclass(frozen=True)
class JunctionTree:
    """Rooted clique tree.  ``parent[i]`` is -1 for a root.

    ``root`` is the root clique index, or -1 when the clique graph was
    disconnected and the forest hangs under a virtual root.
    """

    cliques: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root: int

    def __post_init__(self) -> None:
        k = len(self.cliques)
        if len(self.parent) != k:
            raise ValueError("parent array length mismatch")
        for i, p in enumerate(self.parent):
            if p != -1 and not 0 <= p < k:
                raise ValueError(f"parent[{i}] out of range")
        if k and self.root != -1 and not 0 <= self.root < k:
            raise ValueError("root out of range")

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.cliques]
        for i, p in enumerate(self.parent):
            if p != -1:
                out[p].append(i)
        return tuple(tuple(c) for c in out)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p == -1)

    def traversal_order(self) -> tuple[int, ...]:
        """Breadth-first clique order with every parent before its children."""
        order: list[int] = []
        queue = list(self.roots)
        while queue:
            i = queue.pop(0)
            order.append(i)
            queue.extend(self.children[i])
        return tuple(order)


@dataclass
class Imap:
    """A directed orientation of a chordal graph, usable as a sampling order.

    ``vertices`` are the (global) variables the map covers; for a full graph
    that is every vertex, for a local map it is one vertex plus its chordal
    neighborhood.  ``blanket[v]`` is parents, children, and co-parents of v,
    which for these orientations always equals v's chordal neighborhood.
    """

    dag: Dag
    vertices: tuple[int, ...]
    parents: dict[int, tuple[int, ...]]
    children: dict[int, tuple[int, ...]]
    blanket: dict[int, tuple[int, ...]]
    chordal: UndirectedGraph
    source_graph_id: str

    @property
    def num_vars(self) -> int:
        """Size of the variable universe (not the covered subset)."""
        return self.dag.num_vars

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self.dag.topo_order

    @cached_property
    def wavefront(self) -> "Wavefront":
        """The topological order as arrays, with depth levels; built once per map."""
        order = self.topo_order
        par = [self.parents[v] for v in order]
        depth_of: dict[int, int] = {}
        for v, ps in zip(order, par):
            depth_of[v] = 1 + max(map(depth_of.__getitem__, ps)) if ps else 0
        counts = np.fromiter(map(len, par), dtype=np.int64, count=len(order))
        parents = np.full((len(order), counts.max(initial=0)), -1, dtype=np.int64)
        parents[np.arange(parents.shape[1]) < counts[:, None]] = [p for ps in par for p in ps]
        return Wavefront(
            order=np.asarray(order, dtype=np.int64),
            depth=np.fromiter(depth_of.values(), dtype=np.int64, count=len(order)),
            parents=parents,
        )


@dataclass(frozen=True, eq=False)
class Wavefront:
    """An I-map's topological order grouped into depth levels.

    Position t of the order holds variable ``order[t]`` at ``depth[t]`` (0
    without parents, else one more than its deepest parent), and its sorted
    parents in ``parents[t]``, padded with -1.  A variable's parents all sit
    at smaller depths, so one depth level's conditionals can be evaluated in
    one batch once the levels before it are drawn.
    """

    order: np.ndarray
    depth: np.ndarray
    parents: np.ndarray

    @cached_property
    def _by_vertex(self) -> tuple[np.ndarray, np.ndarray]:
        rank = np.argsort(self.order, kind="stable")
        return self.order[rank], rank

    def positions(self, vs) -> np.ndarray:
        """Topological position of each variable in ``vs``."""
        vs = np.asarray(vs, dtype=np.int64)
        verts, rank = self._by_vertex
        idx = np.minimum(np.searchsorted(verts, vs), max(len(verts) - 1, 0))
        if len(verts) == 0 or not np.array_equal(verts[idx], vs):
            missing = sorted(set(vs.ravel().tolist()) - set(verts.tolist()))
            raise KeyError(f"variables {missing} are not covered by this map")
        return rank[idx]


# ---------------------------------------------------------------------------
# chordalization and elimination structure


def min_fill_chordalize(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> UndirectedGraph:
    """Chordal completion via the min-fill elimination heuristic.

    Repeatedly eliminates the vertex whose neighborhood needs the fewest fill
    edges to become a clique, ties broken uniformly at random.  Already-chordal
    graphs come back unchanged (zero fill edges at every step).
    """
    rng = _as_rng(seed)
    n = g.num_vars
    adj = list(g.adj_masks)
    alive = (1 << n) - 1 if n else 0
    added: list[tuple[int, int]] = []

    def fill_count(v: int) -> int:
        nb = adj[v] & alive
        cnt = 0
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            # pairs (a, b) with b > a, both neighbors of v, not adjacent
            cnt += (nb & rest & ~adj[a]).bit_count()
        return cnt

    fill = {v: fill_count(v) for v in range(n)}
    for _ in range(n):
        best = min(fill[v] for v in _bits(alive))
        ties = [v for v in _bits(alive) if fill[v] == best]
        v = ties[int(rng.integers(len(ties)))] if len(ties) > 1 else ties[0]
        nb = adj[v] & alive
        dirty = nb
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            need = nb & rest & ~adj[a]
            for b in _bits(need):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                added.append((a, b))
                dirty |= adj[a] & adj[b]
        alive &= ~(1 << v)
        del fill[v]
        for w in _bits(dirty & alive):
            fill[w] = fill_count(w)
    return g.with_extra_edges(added)


def max_cardinality_search(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> tuple[list[int], list[frozenset[int]]]:
    """Maximum cardinality search: visit order plus candidate clique list.

    Each visited vertex contributes the set {v} plus its already-visited
    neighbors; after discarding sets contained in others, a chordal input
    yields exactly its maximal cliques.  For any input the returned sets cover
    every edge.  Ties in the visit rule are broken uniformly at random.
    """
    rng = _as_rng(seed)
    n = g.num_vars
    adj = g.adj_masks
    weights = np.zeros(n, dtype=np.int64)
    visited = 0
    order: list[int] = []
    candidates: list[int] = []
    for _ in range(n):
        best = int(weights.max())
        ties = np.flatnonzero(weights == best)
        v = int(ties[rng.integers(len(ties))]) if len(ties) > 1 else int(ties[0])
        order.append(v)
        candidates.append((adj[v] & visited) | (1 << v))
        visited |= 1 << v
        weights[v] = -1
        for w in _bits(adj[v] & ~visited):
            if weights[w] >= 0:
                weights[w] += 1
    # keep only inclusion-maximal candidate sets
    candidates.sort(key=lambda m: -m.bit_count())
    kept: list[int] = []
    for c in candidates:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    cliques = [frozenset(_bits(c)) for c in kept]
    return order, cliques


def check_chordal(g: UndirectedGraph) -> bool:
    """True iff every cycle of length >= 4 has a chord.

    Runs maximum cardinality search and verifies that each vertex's
    already-visited neighborhood is a clique, which characterizes chordality.
    """
    n = g.num_vars
    adj = g.adj_masks
    weights = np.zeros(n, dtype=np.int64)
    visited = 0
    for _ in range(n):
        v = int(np.argmax(weights))
        earlier = adj[v] & visited
        rest = earlier
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            if earlier & rest & ~adj[a]:
                return False
        visited |= 1 << v
        weights[v] = np.iinfo(np.int64).min
        for w in _bits(adj[v] & ~visited):
            if weights[w] >= 0:
                weights[w] += 1
    return True


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def build_junction_tree(
    cliques: Sequence[frozenset[int]], seed: int | np.random.Generator = 0
) -> JunctionTree:
    """Maximum-weight spanning tree over cliques, weighted by separator size.

    Only pairs with a non-empty intersection compete; a disconnected clique
    graph therefore yields one tree per component, all hanging under a virtual
    root (``root = -1``).  Spanning-tree ties and the root choice are
    randomized.
    """
    rng = _as_rng(seed)
    masks = [_mask_of(c) for c in cliques]
    k = len(masks)
    pairs = [
        (i, j, (masks[i] & masks[j]).bit_count())
        for i in range(k)
        for j in range(i + 1, k)
        if masks[i] & masks[j]
    ]
    if pairs:
        perm = rng.permutation(len(pairs))
        pairs = [pairs[i] for i in perm]
        pairs.sort(key=lambda t: -t[2])  # stable: random order within equal weights
    uf = _UnionFind(k)
    adj: list[list[int]] = [[] for _ in range(k)]
    for i, j, _w in pairs:
        if uf.union(i, j):
            adj[i].append(j)
            adj[j].append(i)

    components: dict[int, list[int]] = {}
    for i in range(k):
        components.setdefault(uf.find(i), []).append(i)
    comp_list = list(components.values())
    parent = [-1] * k
    comp_roots = []
    for comp in comp_list:
        root = comp[int(rng.integers(len(comp)))]
        comp_roots.append(root)
        seen = {root}
        queue = [root]
        while queue:
            c = queue.pop(0)
            for nxt in adj[c]:
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = c
                    queue.append(nxt)
    root = comp_roots[0] if len(comp_roots) == 1 else -1
    return JunctionTree(tuple(frozenset(c) for c in cliques), tuple(parent), root)


def _build_imap(
    chordal: UndirectedGraph,
    jt: JunctionTree,
    rng: np.random.Generator,
    source_graph_id: str,
) -> Imap:
    n = chordal.num_vars
    visit: list[int] = []
    seen: set[int] = set()
    for ci in jt.traversal_order():
        fresh = [v for v in sorted(jt.cliques[ci]) if v not in seen]
        if len(fresh) > 1:
            perm = rng.permutation(len(fresh))
            fresh = [fresh[i] for i in perm]
        visit.extend(fresh)
        seen.update(fresh)
    pos = {v: i for i, v in enumerate(visit)}
    arcs = frozenset(
        (u, v) if pos[u] < pos[v] else (v, u) for u, v in chordal.edges if u in pos and v in pos
    )
    dag = Dag(num_vars=n, arcs=arcs, topo_order=tuple(visit))
    parents = {v: dag.parent_map[v] for v in visit}
    children = {v: dag.child_map[v] for v in visit}
    blanket = {}
    for v in visit:
        b = set(parents[v]) | set(children[v])
        for c in children[v]:
            b.update(parents[c])
        b.discard(v)
        blanket[v] = tuple(sorted(b))
    return Imap(
        dag=dag,
        vertices=tuple(sorted(visit)),
        parents=parents,
        children=children,
        blanket=blanket,
        chordal=chordal,
        source_graph_id=source_graph_id,
    )


def orient_pmap(
    g: UndirectedGraph, jt: JunctionTree, seed: int | np.random.Generator = 0
) -> Imap:
    """Orient a chordal graph along a root-first traversal of its clique tree.

    Vertices are numbered by first appearance (clique order from the tree,
    random order inside each clique) and every edge points from the earlier to
    the later vertex.  Earlier neighbors of any vertex all live in the clique
    where it first appears, so no vertex ever gains unmarried parents.
    """
    rng = _as_rng(seed)
    return _build_imap(g, jt, rng, g.digest)


@lru_cache(maxsize=128)
def _cached_chordal(g: UndirectedGraph, chordal_seed: int) -> UndirectedGraph:
    return min_fill_chordalize(g, chordal_seed)


def sample_imap(
    g: UndirectedGraph, seed: int | np.random.Generator, chordal_seed: int = 0
) -> Imap:
    """Draw one random DAG orientation compatible with ``g``.

    The chordal completion is computed once per (graph, chordal_seed) and
    cached, so repeated draws share the same blanket structure while the
    elimination order, spanning tree, root, and intra-clique orders all
    resample from ``seed``.
    """
    rng = _as_rng(seed)
    chordal = _cached_chordal(g, chordal_seed)
    _, cliques = max_cardinality_search(chordal, rng)
    jt = build_junction_tree(cliques, rng)
    imap = _build_imap(chordal, jt, rng, g.digest)
    return imap


def sub_imap(
    g: UndirectedGraph, u: int, seed: int | np.random.Generator, chordal_seed: int = 0
) -> Imap:
    """Random orientation of the chordal subgraph on ``u`` plus its neighborhood.

    The induced subgraph of a chordal graph is chordal, so the same clique-tree
    construction applies directly.  The returned map keeps global vertex ids
    and covers only ``{u} | neighbors(u)`` in the cached chordal completion.
    """
    if not 0 <= u < g.num_vars:
        raise ValueError(f"vertex {u} out of range")
    rng = _as_rng(seed)
    chordal = _cached_chordal(g, chordal_seed)
    verts = sorted({u} | set(chordal.neighbors(u)))
    local, mapping = induced_subgraph(chordal, verts)
    _, cliques = max_cardinality_search(local, rng)
    jt = build_junction_tree(cliques, rng)
    return lift_imap(_build_imap(local, jt, rng, g.digest), mapping, g.num_vars, g.digest)


def lift_imap(
    local: Imap, mapping: Sequence[int], num_vars: int, source_graph_id: str
) -> Imap:
    """An I-map on a subgraph's local ids, renamed to global ids.

    ``mapping[i]`` is the global id of local vertex i (as ``induced_subgraph``
    returns it); the lifted map lives in a universe of ``num_vars`` variables
    and covers just the mapped ones.
    """
    lift = dict(enumerate(mapping))
    arcs = frozenset((lift[a], lift[b]) for a, b in local.dag.arcs)
    topo = tuple(lift[v] for v in local.dag.topo_order)
    return Imap(
        dag=Dag(num_vars=num_vars, arcs=arcs, topo_order=topo),
        vertices=tuple(mapping),
        parents={lift[v]: tuple(lift[p] for p in ps) for v, ps in local.parents.items()},
        children={lift[v]: tuple(lift[c] for c in cs) for v, cs in local.children.items()},
        blanket={lift[v]: tuple(lift[b] for b in bs) for v, bs in local.blanket.items()},
        chordal=UndirectedGraph(
            num_vars, frozenset((lift[a], lift[b]) for a, b in local.chordal.edges)
        ),
        source_graph_id=source_graph_id,
    )


# ---------------------------------------------------------------------------
# structural checks


def moral_graph(dag: Dag) -> UndirectedGraph:
    """Undirected skeleton plus edges between co-parents."""
    edges = {(min(a, b), max(a, b)) for a, b in dag.arcs}
    for v in dag.topo_order:
        ps = dag.parent_map[v]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((min(ps[i], ps[j]), max(ps[i], ps[j])))
    return UndirectedGraph(dag.num_vars, frozenset(edges))


def verify_no_immoralities(imap: Imap) -> bool:
    """True iff every vertex's parent set is pairwise adjacent in the skeleton."""
    for v in imap.dag.topo_order:
        ps = imap.parents[v]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if not imap.chordal.has_edge(ps[i], ps[j]):
                    return False
    return True


def running_intersection_holds(jt: JunctionTree) -> bool:
    """Check that each vertex's cliques form one connected subtree."""
    vertex_cliques: dict[int, list[int]] = {}
    for i, c in enumerate(jt.cliques):
        for v in c:
            vertex_cliques.setdefault(v, []).append(i)
    for v, idxs in vertex_cliques.items():
        members = set(idxs)
        tops = [i for i in idxs if jt.parent[i] not in members]
        if len(tops) != 1:
            return False
    return True
