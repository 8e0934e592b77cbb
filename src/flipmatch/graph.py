"""Undirected graphs, chordal completions, and DAG orientations.

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

Every DAG in the package, a sampling orientation or the structure of a
tabular Bayesian network, is an ``Imap``: the topological order, each
position's depth and its parents padded with -1, as int64 arrays, which is
the form the sampler's wavefront walk reads.  An orientation is built once,
in the order the junction tree visits the vertices.  Parent, child and
blanket dicts are views derived on first read.

No set-up stage scans the whole graph at each step of its work.  Min-fill
finds its next vertex in buckets by fill count and updates the counts by the
pairs each fill edge and each elimination add or remove, with no recount;
the search keeps its visited-neighbour counts as bit planes and tests a
candidate clique only against the kept cliques holding its own vertex; the
junction tree finds the intersecting clique pairs through a vertex to cliques
index.  Each stage makes the draws of the whole-scan version
(``tests/oracles.py``), so a seed gives the same maps.

The search, the tree and the orientation run on a vertex set of an
adjacency, so every map is built on global masks, with no subgraph and no
relabelling: ``sample_imap`` orients every vertex of the completion, and
``sub_imap`` one vertex's closed neighbourhood in it.  Min-fill, too, takes
the set of vertices it eliminates; the others stay in the graph, alive and
never eliminated.  ``_elimination_imap`` eliminates a set V and draws V in
reverse elimination order, each vertex given its neighbours still alive when
it was eliminated.  Those include vertices outside V, which the map reads
but does not draw (``Imap.given``), and the factorization is then that of
the distribution of V given the rest: the latent posterior of
``harness.latent_imap``.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from flipmatch.errors import ConfigError

__all__ = [
    "UndirectedGraph",
    "Imap",
    "chain_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "ladder_graph",
    "random_graph",
    "min_fill_chordalize",
    "max_cardinality_search",
    "sample_imap",
    "sub_imap",
]


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """The generator itself, or a new one from a non-negative integer seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj_masks[v]))

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

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


# ---------------------------------------------------------------------------
# directed structures


def _breadth_first(parent: Sequence[int]) -> list[int]:
    """Tree nodes breadth first from the roots, roots and children in index order."""
    children: list[list[int]] = [[] for _ in parent]
    queue: deque[int] = deque()
    for i, p in enumerate(parent):
        (queue if p == -1 else children[p]).append(i)
    order: list[int] = []
    while queue:
        i = queue.popleft()
        order.append(i)
        queue.extend(children[i])
    return order


@dataclass(frozen=True, eq=False)
class Imap:
    """A directed orientation of a chordal graph, usable as a sampling order.

    Position t of the topological order holds variable ``order[t]`` at
    ``depth[t]`` (0 without parents, else one more than its deepest parent),
    with its sorted parents in ``parent_table[t]``, padded with -1.  A
    variable's parents all sit at smaller depths, so one depth level's
    conditionals can be evaluated in one batch once the levels before it are
    drawn.  ``num_vars`` is the size of the variable universe; a local map
    covers one vertex plus its chordal neighborhood.  ``given`` lists,
    ascending, the variables that parents read but the map does not draw:
    a draw takes their values as given, and the map stands for the
    distribution of its order given them.  Build a map with
    ``from_parents``; ``parents``, ``children`` and ``blanket`` (parents,
    children and co-parents, which for these orientations is the chordal
    neighborhood) are dicts over the drawn variables, derived on first read.
    """

    num_vars: int
    order: np.ndarray
    depth: np.ndarray
    parent_table: np.ndarray
    given: np.ndarray

    @classmethod
    def from_parents(
        cls,
        num_vars: int,
        order: Sequence[int],
        parents: Sequence[Sequence[int]],
        given: Sequence[int] = (),
    ) -> "Imap":
        """The map that draws ``order`` in turn, ``order[t]`` given ``parents[t]``.

        Raises ValueError unless the order lists distinct variables of the
        universe, ``given`` lists others, and every parent precedes its child
        or is given.
        """
        if len(parents) != len(order):
            raise ValueError("one parent tuple per position is required")
        given = np.unique(np.asarray(given, dtype=np.int64))
        depth_of = dict.fromkeys(given.tolist(), -1)  # a given parent is read, never drawn
        for v, ps in zip(order, parents):
            if v in depth_of:
                raise ValueError(f"vertex {v} is repeated or given")
            try:
                depth_of[v] = 1 + max(map(depth_of.__getitem__, ps)) if ps else 0
            except KeyError as e:
                raise ValueError(f"parent {e.args[0]} of {v} does not precede it") from None
        order = np.asarray(order, dtype=np.int64)
        for vs in (order, given):
            if len(vs) and not (0 <= vs.min() and vs.max() < num_vars):
                raise ValueError(f"the map leaves the vertices 0..{num_vars - 1}")
        counts = np.fromiter(map(len, parents), dtype=np.int64, count=len(order))
        table = np.full((len(order), counts.max(initial=0)), -1, dtype=np.int64)
        table[np.arange(table.shape[1]) < counts[:, None]] = [p for ps in parents for p in ps]
        depth = np.fromiter(depth_of.values(), dtype=np.int64)[len(given) :]
        return cls(num_vars, order, depth, table, given)

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        return tuple(self.order.tolist())

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        """The covered variables, ascending."""
        return tuple(sorted(self.topo_order))

    @cached_property
    def parents(self) -> dict[int, tuple[int, ...]]:
        rows = self.parent_table.tolist()
        return {v: tuple(p for p in ps if p >= 0) for v, ps in zip(self.topo_order, rows)}

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for v, ps in self.parents.items():
            for p in ps:
                if p in out:  # not a given variable
                    out[p].append(v)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}

    @cached_property
    def blanket(self) -> dict[int, tuple[int, ...]]:
        out = {}
        for v, cs in self.children.items():
            b = set(self.parents[v]).union(cs, *(self.parents[c] for c in cs))
            b.discard(v)
            out[v] = tuple(sorted(b))
        return out

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
#
# Neither stage scans the vertices to find its next one.  Min-fill keeps the
# alive vertices in buckets, ``buckets[f]`` the mask of those with fill count
# f and only non-empty buckets kept, so the minimum is a ``min`` over the few
# distinct counts.  The search keeps its counts as bit planes.  Either way
# the tied vertices come out as one mask, drawn from in ascending order.


def _draw_member(bucket: int, rng: np.random.Generator) -> int:
    """The one member of ``bucket``, or a uniform draw over its members in ascending order."""
    count = bucket.bit_count()
    if count > 1:
        for _ in range(int(rng.integers(count))):
            bucket &= bucket - 1
    return (bucket & -bucket).bit_length() - 1


def _move(buckets: dict[int, int], bit: int, old: int | None, new: int | None) -> None:
    """Move the vertex ``bit`` from bucket ``old`` to bucket ``new``; None is no bucket."""
    if old is not None:
        rest = buckets[old] ^ bit
        if rest:
            buckets[old] = rest
        else:
            del buckets[old]
    if new is not None:
        buckets[new] = buckets.get(new, 0) | bit


def _min_fill(
    adj: list[int], verts: int, rng: np.random.Generator
) -> tuple[list[int], list[tuple[int, int]]]:
    """Min-fill elimination of the vertex set ``verts``; returns the
    elimination order and the fill edges.

    Repeatedly eliminates the vertex of ``verts`` whose neighborhood needs
    the fewest fill edges to become a clique, ties broken uniformly at random
    over the tied vertices in ascending order.  Every other vertex of ``adj``
    stays alive and is never eliminated: it counts in its neighbours' fill
    and gains fill edges, but is never a candidate.  The fill edges are also added to
    ``adj`` in place.  Only the vertices of ``verts`` have a fill count, and
    they sit in buckets by it.  The counts are taken once and then kept
    current: a fill edge (a, b) takes one missing pair from each common
    neighbour and gives a (and b) one for each of its neighbours not adjacent
    to b (to a), and eliminating v takes from each neighbour its missing
    pairs through v.
    """
    alive = (1 << len(adj)) - 1
    left = verts  # the alive vertices that have a fill count
    counted = [False] * len(adj)
    order: list[int] = []
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

    fill = [0] * len(adj)
    buckets: dict[int, int] = {}
    for v in _bits(verts):
        counted[v] = True
        fill[v] = fill_count(v)
        _move(buckets, 1 << v, None, fill[v])
    for _ in range(verts.bit_count()):
        v = _draw_member(buckets[min(buckets)], rng)
        order.append(v)
        alive ^= 1 << v
        left ^= 1 << v
        _move(buckets, 1 << v, fill[v], None)
        nb = adj[v] & alive
        change = dict.fromkeys(_bits(nb & left), 0)
        rest = nb
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            for b in _bits(nb & rest & ~adj[a]):
                # (a, b) is no longer missing around a common neighbour; a
                # gains a missing pair per neighbour not adjacent to b, b too
                for w in _bits(adj[a] & adj[b] & left):
                    change[w] = change.get(w, 0) - 1
                if counted[a]:
                    change[a] += (adj[a] & alive & ~adj[b]).bit_count()
                if counted[b]:
                    change[b] += (adj[b] & alive & ~adj[a]).bit_count()
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                added.append((a, b))
        for w in _bits(nb & left):
            # N(v) is a clique now: w's missing pairs through v go with v
            change[w] -= (adj[w] & alive & ~adj[v]).bit_count()
        for w, d in change.items():
            if d:
                _move(buckets, 1 << w, fill[w], fill[w] + d)
                fill[w] += d
    return order, added


def min_fill_chordalize(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> UndirectedGraph:
    """Chordal completion via the min-fill elimination heuristic (see ``_min_fill``).

    Already-chordal graphs come back unchanged (zero fill edges at every step).
    """
    _, added = _min_fill(list(g.adj_masks), (1 << g.num_vars) - 1, _as_rng(seed))
    return g.with_extra_edges(added)


def _search(
    adj: Sequence[int], verts: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Maximum cardinality search on the vertex set ``verts`` of adjacency ``adj``.

    Returns the visit order and the inclusion-maximal candidate masks, largest
    first.  The visited-neighbour counts are kept as bit planes, plane i
    holding bit i of every count, so a visit adds one to all its unvisited
    neighbours by a ripple carry, and the most-visited vertices are found by
    descending the planes.  A candidate is a visited vertex with its visited
    neighbours, so a candidate contained in a kept one shares its own vertex
    with it: only the kept masks holding that vertex are tested.
    """
    planes: list[int] = []
    unvisited = verts
    order: list[int] = []
    candidates: list[int] = []
    while unvisited:
        best = unvisited
        for plane in reversed(planes):
            if best & plane:
                best &= plane
        v = _draw_member(best, rng)
        order.append(v)
        candidates.append(adj[v] & (verts ^ unvisited) | 1 << v)
        unvisited ^= 1 << v
        carry = adj[v] & unvisited
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        if carry:
            planes.append(carry)
    kept: list[int] = []
    holding: dict[int, list[int]] = {}
    for t in sorted(range(len(order)), key=lambda t: -candidates[t].bit_count()):
        c = candidates[t]
        if not any(c & ~k == 0 for k in holding.get(order[t], ())):
            kept.append(c)
            for x in _bits(c):
                holding.setdefault(x, []).append(c)
    return order, kept


def max_cardinality_search(
    g: UndirectedGraph, seed: int | np.random.Generator = 0
) -> tuple[list[int], list[frozenset[int]]]:
    """Maximum cardinality search: visit order plus candidate clique list.

    Each visited vertex contributes the set {v} plus its already-visited
    neighbors; after discarding sets contained in others, a chordal input
    yields exactly its maximal cliques.  For any input the returned sets cover
    every edge.  Ties in the visit rule are broken uniformly at random over the
    tied vertices in ascending order.
    """
    order, kept = _search(g.adj_masks, (1 << g.num_vars) - 1, _as_rng(seed))
    return order, [frozenset(_bits(c)) for c in kept]


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


def _spanning_tree(masks: Sequence[int], rng: np.random.Generator) -> tuple[list[int], int]:
    """Parent array and root of the junction tree over the clique ``masks``.

    A maximum-weight spanning tree, weighted by separator size.  Only pairs
    with a non-empty intersection compete, so a disconnected clique graph
    yields one tree per component and root -1 (a virtual root).  Spanning-tree
    ties and each component's root are drawn from ``rng``.  The intersecting
    pairs ``(i, j)``, ``i < j``, are listed in order from a vertex to cliques
    index built from the last clique back, so clique i meets only the later
    cliques that share one of its vertices.
    """
    k = len(masks)
    holding: dict[int, int] = {}  # vertex -> mask of the later cliques holding it
    blocks = []
    for i in range(k - 1, -1, -1):
        m, meets = masks[i], 0
        for x in _bits(m):
            later = holding.get(x, 0)
            meets |= later
            holding[x] = later | 1 << i
        blocks.append([(i, j, (m & masks[j]).bit_count()) for j in _bits(meets)])
    pairs = [pair for block in reversed(blocks) for pair in block]
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
    parent = [-1] * k
    comp_roots = []
    for comp in components.values():
        root = comp[int(rng.integers(len(comp)))]
        comp_roots.append(root)
        seen = {root}
        queue = deque([root])
        while queue:
            c = queue.popleft()
            for nxt in adj[c]:
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = c
                    queue.append(nxt)
    return parent, comp_roots[0] if len(comp_roots) == 1 else -1


def _orient(
    adj: Sequence[int],
    masks: Sequence[int],
    clique_order: Iterable[int],
    num_vars: int,
    rng: np.random.Generator,
) -> Imap:
    """Orient the edges among the cliques ``masks``, taken in ``clique_order``.

    Vertices are numbered by first appearance (clique order, random order
    inside each clique) and every edge points from the earlier to the later
    vertex.  Along a root-first traversal of a clique tree the earlier
    neighbours of a vertex all live in the clique where it first appears, so
    no vertex gains unmarried parents.
    """
    order: list[int] = []
    seen = 0
    for ci in clique_order:
        fresh = list(_bits(masks[ci] & ~seen))
        if len(fresh) > 1:
            perm = rng.permutation(len(fresh))
            fresh = [fresh[i] for i in perm]
        order.extend(fresh)
        seen |= masks[ci]
    earlier = 0
    parents = []
    for v in order:
        parents.append(tuple(_bits(adj[v] & earlier)))
        earlier |= 1 << v
    return Imap.from_parents(num_vars, order, parents)


def _draw_imap(adj: Sequence[int], verts: int, num_vars: int, rng: np.random.Generator) -> Imap:
    """Search, clique tree and orientation of the chordal graph ``adj`` on ``verts``."""
    _, cliques = _search(adj, verts, rng)
    parent, _ = _spanning_tree(cliques, rng)
    return _orient(adj, cliques, _breadth_first(parent), num_vars, rng)


@lru_cache(maxsize=128)
def _cached_chordal(g: UndirectedGraph, chordal_seed: int) -> UndirectedGraph:
    """``min_fill_chordalize(g, chordal_seed)``, cached per graph and seed."""
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
    adj = _cached_chordal(g, chordal_seed).adj_masks
    return _draw_imap(adj, (1 << g.num_vars) - 1, g.num_vars, rng)


def _elimination_imap(g: UndirectedGraph, verts: int, seed: int | np.random.Generator) -> Imap:
    """The map that draws the vertex set ``verts`` given every other vertex of ``g``.

    Min-fill, its ties drawn from ``seed``, eliminates ``verts`` only; the
    map draws them in reverse elimination order, each given its neighbours
    still alive when it was eliminated: the vertices eliminated after it and
    those outside ``verts``, which the map lists as given.  Summing a vertex
    out of a Markov network joins its neighbours, which is what its fill
    edges record, so a distribution that factorizes over ``g`` is, given the
    vertices outside ``verts``, the product of these conditionals.  An edge
    between two given vertices changes no conditional, so min-fill starts
    with the given vertices joined and counts no such edge as fill.
    """
    known = (1 << g.num_vars) - 1 & ~verts  # grows by each vertex as it is drawn
    adj = [m | known & ~(1 << v) if known >> v & 1 else m for v, m in enumerate(g.adj_masks)]
    order, _ = _min_fill(adj, verts, _as_rng(seed))
    parents = []
    for v in reversed(order):
        parents.append(tuple(_bits(adj[v] & known)))
        known |= 1 << v
    given = _mask_of(p for ps in parents for p in ps) & ~verts
    return Imap.from_parents(g.num_vars, order[::-1], parents, tuple(_bits(given)))


def sub_imap(
    g: UndirectedGraph, u: int, seed: int | np.random.Generator, chordal_seed: int = 0
) -> Imap:
    """Random orientation of the chordal subgraph on ``u`` plus its neighborhood.

    The induced subgraph of a chordal graph is chordal, so the same clique-tree
    construction applies directly, on the cached completion's own adjacency
    masks restricted to ``{u} | neighbors(u)``.  The returned map keeps global
    vertex ids and covers only that set.
    """
    if not 0 <= u < g.num_vars:
        raise ValueError(f"vertex {u} out of range")
    rng = _as_rng(seed)
    adj = _cached_chordal(g, chordal_seed).adj_masks
    return _draw_imap(adj, adj[u] | 1 << u, g.num_vars, rng)
