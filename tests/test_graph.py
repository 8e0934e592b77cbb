"""Graph pipeline tests: chordalization, MCS, junction trees, DAG orientations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.testing import assert_allclose

from flipmatch.energy import (
    TabularBayesNetModel,
    all_states,
    random_factor_lattice,
    random_ising,
)
from flipmatch.graph import (
    Imap,
    UndirectedGraph,
    _cached_chordal,
    _mask_of,
    _min_fill,
    chain_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    max_cardinality_search,
    min_fill_chordalize,
    random_graph,
    sample_imap,
    star_graph,
    sub_imap,
)
from flipmatch.harness import latent_imap
from oracles import (
    JunctionTree,
    check_chordal,
    chordal_brute_force,
    completion_on,
    log_marginal_at,
    imap_arcs,
    junction_tree,
    maximal_cliques_brute_force,
    moral_graph,
    orient,
    reference_blanket,
    reference_build_imap,
    reference_build_junction_tree,
    reference_completion,
    reference_imap_arrays,
    reference_max_cardinality_search,
    reference_eliminate,
    reference_min_fill_chordalize,
    reference_sample_imap,
    reference_sub_imap,
    running_intersection_holds,
    verify_no_immoralities,
)


def imap_is_valid(imap, g):
    """Acyclic (Imap validates on build), immorality-free, chordal supergraph."""
    chordal = completion_on(g, imap)
    assert verify_no_immoralities(imap, chordal)
    assert check_chordal(chordal)
    assert g.edges <= chordal.edges
    # moral graph of the DAG equals its own skeleton
    assert moral_graph(imap).edges == chordal.edges
    # blanket(v) is exactly the chordal neighborhood
    for v in imap.vertices:
        assert imap.blanket[v] == chordal.neighbors(v)


class TestUndirectedGraph:
    def test_from_edges_normalizes_pairs(self):
        g = UndirectedGraph.from_edges(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edges == frozenset({(1, 2), (0, 3)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph(2, frozenset({(0, 2)}))

    def test_neighbors_and_degree(self):
        g = star_graph(5)
        assert g.neighbors(0) == (1, 2, 3, 4)
        assert g.degree(0) == 4 and g.degree(3) == 1

    def test_constructors_edge_counts(self):
        assert len(chain_graph(6).edges) == 5
        assert len(cycle_graph(6).edges) == 6
        assert len(complete_graph(5).edges) == 10
        assert len(grid_graph(3, 4).edges) == 3 * 3 + 2 * 4
        # ladder with diagonals: rungs + 2*(r-1) rails + (r-1) chords
        assert len(ladder_graph(4).edges) == 4 + 2 * 3 + 3


class TestDag:
    def test_arc_against_order_rejected(self):
        with pytest.raises(ValueError):
            Imap.from_parents(2, (0, 1), ((1,), ()))

    def test_parent_child_maps(self):
        d = Imap.from_parents(3, (0, 1, 2), ((), (0,), (0, 1)))
        assert d.parents[2] == (0, 1)
        assert d.children[0] == (1, 2)


class TestMinFill:
    def test_triangle_unchanged(self):
        g = complete_graph(3)
        assert min_fill_chordalize(g, 0) == g

    def test_four_cycle_gets_one_chord(self):
        g = cycle_graph(4)
        out = min_fill_chordalize(g, 3)
        added = out.edges - g.edges
        assert len(added) == 1
        assert added <= {(0, 2), (1, 3)}
        assert check_chordal(out)

    def test_four_cycle_both_chords_reachable(self):
        seen = set()
        for seed in range(40):
            out = min_fill_chordalize(cycle_graph(4), seed)
            seen |= out.edges - cycle_graph(4).edges
        assert seen == {(0, 2), (1, 3)}

    def test_chordal_inputs_returned_unchanged(self):
        for g in [chain_graph(7), complete_graph(5), ladder_graph(5), star_graph(6)]:
            assert min_fill_chordalize(g, 1) == g

    def test_diagonal_ladder_is_already_chordal(self):
        g = ladder_graph(8)
        assert check_chordal(g)
        assert min_fill_chordalize(g, 0) == g

    def test_random_outputs_chordal_supergraphs(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            g = random_graph(n, float(rng.uniform(0.1, 0.7)), rng)
            out = min_fill_chordalize(g, rng)
            assert g.edges <= out.edges
            assert check_chordal(out)

    def test_deterministic_given_seed(self):
        g = random_graph(9, 0.3, 5)
        assert min_fill_chordalize(g, 11) == min_fill_chordalize(g, 11)

    def test_empty_graph(self):
        g = UndirectedGraph(0, frozenset())
        assert min_fill_chordalize(g, 0) == g


class TestCheckChordal:
    def test_known_cases(self):
        assert check_chordal(complete_graph(4))
        assert not check_chordal(cycle_graph(5))
        assert check_chordal(cycle_graph(4).with_extra_edges([(0, 2)]))
        assert not check_chordal(grid_graph(2, 3))
        assert check_chordal(chain_graph(10))

    def test_exhaustive_five_vertices(self):
        """Agreement with the induced-cycle oracle on every 5-vertex graph."""
        all_pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for mask in range(1 << len(all_pairs)):
            edges = [e for k, e in enumerate(all_pairs) if (mask >> k) & 1]
            g = UndirectedGraph.from_edges(5, edges)
            assert check_chordal(g) == chordal_brute_force(g)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        bits=st.integers(min_value=0),
        )
    def test_matches_oracle_on_random_graphs(self, n, bits):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for k, e in enumerate(pairs) if (bits >> k) & 1]
        g = UndirectedGraph.from_edges(n, edges)
        assert check_chordal(g) == chordal_brute_force(g)


class TestMaxCardinalitySearch:
    def test_path_cliques(self):
        _, cliques = max_cardinality_search(chain_graph(3), 0)
        assert set(cliques) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_triangle_single_clique(self):
        _, cliques = max_cardinality_search(complete_graph(3), 0)
        assert cliques == [frozenset({0, 1, 2})]

    def test_single_vertex(self):
        order, cliques = max_cardinality_search(UndirectedGraph(1, frozenset()), 0)
        assert order == [0]
        assert cliques == [frozenset({0})]

    def test_maximal_cliques_match_bruteforce_on_chordal(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            g = min_fill_chordalize(random_graph(n, 0.4, rng), rng)
            _, cliques = max_cardinality_search(g, rng)
            assert set(cliques) == maximal_cliques_brute_force(g)

    def test_cliques_cover_all_edges(self):
        g = random_graph(10, 0.3, 1)  # not necessarily chordal
        _, cliques = max_cardinality_search(g, 0)
        for u, v in g.edges:
            assert any(u in c and v in c for c in cliques)

    def test_visit_order_is_peo_on_chordal(self):
        g = min_fill_chordalize(random_graph(9, 0.35, 2), 0)
        order, _ = max_cardinality_search(g, 4)
        seen = set()
        for v in order:
            earlier = [w for w in g.neighbors(v) if w in seen]
            for i in range(len(earlier)):
                for j in range(i + 1, len(earlier)):
                    assert (earlier[i], earlier[j]) in g.edges
            seen.add(v)


class TestJunctionTree:
    def test_two_overlapping_cliques(self):
        jt = junction_tree([frozenset({0, 1}), frozenset({1, 2})], 0)
        assert sorted(jt.parent).count(-1) == 1
        assert jt.root in (0, 1)
        assert running_intersection_holds(jt)

    def test_three_clique_chain_prefers_heavy_edges(self):
        """{0,1}-{2,3} has separator weight 0 and must never be a tree edge."""
        cliques = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
        for seed in range(20):
            jt = junction_tree(cliques, seed)
            for child, parent in enumerate(jt.parent):
                if parent != -1:
                    assert jt.cliques[child] & jt.cliques[parent]
            assert running_intersection_holds(jt)

    def test_disconnected_components_virtual_root(self):
        cliques = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        jt = junction_tree(cliques, 0)
        assert jt.root == -1
        assert jt.parent == (-1, -1)
        assert running_intersection_holds(jt)

    def test_empty(self):
        jt = junction_tree([], 0)
        assert jt.cliques == () and jt.root == -1

    def test_running_intersection_on_random_chordal(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            g = min_fill_chordalize(random_graph(n, 0.35, rng), rng)
            _, cliques = max_cardinality_search(g, rng)
            jt = junction_tree(cliques, rng)
            assert running_intersection_holds(jt)

    def test_running_intersection_checker_catches_violation(self):
        # vertex 1 appears in two cliques that are not adjacent in this tree
        jt = JunctionTree(
            cliques=(frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})),
            parent=(-1, 0, 1),
            root=0,
        )
        assert not running_intersection_holds(jt)


class TestOrient:
    def test_path_example_orientation(self):
        g = chain_graph(3)
        jt = JunctionTree(
            cliques=(frozenset({0, 1}), frozenset({1, 2})), parent=(-1, 0), root=0
        )
        outcomes = set()
        for seed in range(30):
            imap = orient(g, jt, seed)
            outcomes.add(imap_arcs(imap))
            imap_is_valid(imap, g)
        # visit (0,1) gives 0->1, 1->2; visit (1,0) gives 1->0, 1->2
        assert frozenset({(0, 1), (1, 2)}) in outcomes
        assert outcomes <= {
            frozenset({(0, 1), (1, 2)}),
            frozenset({(1, 0), (1, 2)}),
        }

    def test_triangle_orientations_all_valid(self):
        g = complete_graph(3)
        _, cliques = max_cardinality_search(g, 0)
        arcsets = set()
        for seed in range(50):
            jt = junction_tree(cliques, seed)
            imap = orient(g, jt, seed)
            imap_is_valid(imap, g)
            arcsets.add(imap_arcs(imap))
        assert len(arcsets) >= 2  # several of the 6 acyclic orientations appear


class TestSampleImap:
    def test_chain_multiple_topo_orders(self):
        g = chain_graph(5)
        orders = {sample_imap(g, seed).topo_order for seed in range(20)}
        assert len(orders) >= 2

    def test_four_cycle_imap_has_five_edges(self):
        g = cycle_graph(4)
        imap = sample_imap(g, 0)
        assert len(imap_arcs(imap)) == 5
        assert len(completion_on(g, imap).edges) == 5

    def test_random_graphs_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            g = random_graph(n, 0.35, rng)
            imap = sample_imap(g, int(rng.integers(1 << 31)))
            imap_is_valid(imap, g)
            assert imap.vertices == tuple(range(n))
            assert sorted(imap.topo_order) == list(range(n))

    def test_chordal_completion_cached_across_seeds(self):
        g = grid_graph(3, 3)
        sample_imap(g, 1)
        first = _cached_chordal.cache_info()
        sample_imap(g, 2)
        second = _cached_chordal.cache_info()
        # the second draw reuses the cached completion
        assert (second.hits, second.misses) == (first.hits + 1, first.misses)

    def test_deterministic_given_seed(self):
        g = grid_graph(3, 3)
        a, b = sample_imap(g, 5), sample_imap(g, 5)
        assert (a.num_vars, a.topo_order, a.parents) == (b.num_vars, b.topo_order, b.parents)


class TestSubImap:
    def test_chain_interior_vertex(self):
        imap = sub_imap(chain_graph(4), 1, 0)
        assert imap.vertices == (0, 1, 2)
        assert set(imap.topo_order) == {0, 1, 2}

    def test_isolated_vertex(self):
        g = UndirectedGraph.from_edges(3, [(0, 1)])
        imap = sub_imap(g, 2, 0)
        assert imap.vertices == (2,)
        assert imap.parents[2] == ()
        assert imap.blanket[2] == ()

    def test_lattice_center_size_is_one_plus_blanket(self):
        g = grid_graph(4, 4)
        full = sample_imap(g, 0)
        u = 5  # interior vertex
        local = sub_imap(g, u, 3)
        assert len(local.vertices) == 1 + len(full.blanket[u])
        assert set(local.vertices) == {u} | set(full.blanket[u])

    def test_sub_imap_valid_and_local(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            g = random_graph(n, 0.4, rng)
            u = int(rng.integers(n))
            imap = sub_imap(g, u, rng)
            chordal = completion_on(g, imap)
            assert u in imap.vertices
            assert verify_no_immoralities(imap, chordal)
            assert check_chordal(chordal)
            # arcs stay inside the covered set
            for a, b in imap_arcs(imap):
                assert a in imap.vertices and b in imap.vertices

    def test_blankets_within_sub_match_chordal_neighborhoods(self):
        g = grid_graph(3, 3)
        imap = sub_imap(g, 4, 1)
        chordal = completion_on(g, imap)
        for v in imap.vertices:
            assert imap.blanket[v] == chordal.neighbors(v)


class TestImapRecord:
    def test_depth_and_padded_parents(self):
        imap = Imap.from_parents(5, [3, 0, 4, 1], [(), (3,), (0, 3), (4,)])
        assert imap.order.tolist() == [3, 0, 4, 1]
        assert imap.depth.tolist() == [0, 1, 2, 3]
        assert imap.parent_table.tolist() == [[-1, -1], [3, -1], [0, 3], [4, -1]]
        assert imap.order.dtype == imap.depth.dtype == imap.parent_table.dtype == np.int64
        assert imap.vertices == (0, 1, 3, 4)
        assert imap.parents == {3: (), 0: (3,), 4: (0, 3), 1: (4,)}
        assert imap.children == {3: (0, 4), 0: (4,), 4: (1,), 1: ()}
        assert imap.blanket == {3: (0, 4), 0: (3, 4), 4: (0, 1, 3), 1: (4,)}
        assert imap.positions([1, 3]).tolist() == [3, 0]
        with pytest.raises(KeyError):
            imap.positions([2])

    @pytest.mark.parametrize(
        "order, parents",
        [
            ((0, 1), ((1,), ())),  # parent after its child
            ((0, 1), ((), (2,))),  # parent outside the order
            ((0, 1), ((), (1,))),  # its own parent
            ((0, 0), ((), ())),  # repeated vertex
            ((0, 3), ((), (0,))),  # outside the universe
            ((-1,), ((),)),
            ((0, 1), ((),)),  # one parent tuple short
        ],
    )
    def test_rejects_invalid_orders(self, order, parents):
        with pytest.raises(ValueError):
            Imap.from_parents(3, order, parents)

    def test_empty_map(self):
        imap = Imap.from_parents(0, [], [])
        assert imap.parent_table.shape == (0, 0)
        assert imap.topo_order == () and imap.blanket == {}


def same_as_reference(imap, ref):
    """The map's order and dicts equal those of the arc-set construction."""
    assert imap.num_vars == ref.num_vars
    assert imap.topo_order == ref.topo_order
    assert imap.vertices == ref.vertices
    assert imap.parents == ref.parent_map
    assert imap.children == ref.child_map
    assert imap.blanket == reference_blanket(ref)


class TestMatchesArcSetReference:
    """The array construction gives the maps of the arc-set construction,
    seed for seed."""

    def test_sample_imap_over_seeds(self):
        graphs = [grid_graph(5, 5), ladder_graph(6), ladder_graph(5, diagonals=False)]
        for seed in range(200):
            graphs_here = graphs + [random_graph(10, 0.1 + 0.6 * (seed % 7) / 7, seed)]
            for g in graphs_here:
                same_as_reference(sample_imap(g, seed), reference_sample_imap(g, seed))

    def test_chordal_seed_and_shared_generator(self):
        g = grid_graph(4, 5)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for chordal_seed in range(5):
            same_as_reference(
                sample_imap(g, a, chordal_seed), reference_sample_imap(g, b, chordal_seed)
            )

    def test_sub_imap_at_every_vertex(self):
        g = grid_graph(8, 8)
        for seed in range(4):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for u in range(g.num_vars):
                same_as_reference(sub_imap(g, u, a), reference_sub_imap(g, u, b))

    def test_orient(self):
        g = min_fill_chordalize(random_graph(9, 0.4, 2), 0)
        _, cliques = max_cardinality_search(g, 0)
        for seed in range(50):
            jt = junction_tree(cliques, seed)
            ref = reference_build_imap(g, jt, np.random.default_rng(seed))
            same_as_reference(orient(g, jt, seed), ref)


def disjoint_union(*graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(u + base, v + base) for u, v in h.edges]
        base += h.num_vars
    return UndirectedGraph.from_edges(base, edges)


# graph families by seed; grids, the plain ladder and sparse random graphs are
# not chordal, so the search also runs on non-chordal input
FAMILIES = {
    "grid5": lambda seed: grid_graph(5, 5),
    "grid8": lambda seed: grid_graph(8, 8),
    # long fill cascades, each fill edge changing the counts of many vertices
    "grid16": lambda seed: grid_graph(16, 16),
    "grid12x20": lambda seed: grid_graph(12, 20),
    "random-40-0.1": lambda seed: random_graph(40, 0.1, seed),
    "ladder": lambda seed: ladder_graph(6),
    "ladder-plain": lambda seed: ladder_graph(7, diagonals=False),
    "random-0.3": lambda seed: random_graph(14, 0.3, seed),
    "random-0.9": lambda seed: random_graph(14, 0.9, seed),
    "complete12": lambda seed: complete_graph(12),
    "disconnected": lambda seed: disjoint_union(
        grid_graph(3, 3),
        cycle_graph(5),
        UndirectedGraph(2, frozenset()),
        random_graph(6, 0.4, seed),
    ),
    "edgeless": lambda seed: UndirectedGraph(6, frozenset()),
    "one-vertex": lambda seed: UndirectedGraph(1, frozenset()),
    "empty": lambda seed: UndirectedGraph(0, frozenset()),
}
SEEDS = {family: range(50) for family in FAMILIES} | {
    family: range(4) for family in ("grid16", "grid12x20", "random-40-0.1")
}


def same_arrays(imap, dag):
    order, depth, rows = reference_imap_arrays(dag)
    assert imap.num_vars == dag.num_vars
    assert imap.order.tolist() == order
    assert imap.depth.tolist() == depth
    assert imap.parent_table.tolist() == rows


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("family", list(FAMILIES))
class TestMatchesWholeScanReference:
    """The bucketed and indexed set-up stages make the draws of the whole-scan
    ones: the same completion, visit order, cliques in order, tree and maps,
    and the generator left in the same state."""

    def test_completion(self, family):
        for seed in SEEDS[family]:
            g = FAMILIES[family](seed)
            a, b = twin_rngs(seed)
            out = min_fill_chordalize(g, a)
            assert out.edges == reference_min_fill_chordalize(g, b).edges
            same_state(a, b)
            assert check_chordal(out)

    def test_search_and_tree(self, family):
        for seed in SEEDS[family]:
            g = FAMILIES[family](seed)
            a, b = twin_rngs(seed)
            for h in (g, reference_completion(g, 0)):
                order, cliques = max_cardinality_search(h, a)
                assert (order, cliques) == reference_max_cardinality_search(h, b)
                same_state(a, b)
                jt, ref = junction_tree(cliques, a), reference_build_junction_tree(cliques, b)
                assert (jt.cliques, jt.parent, jt.root) == (ref.cliques, ref.parent, ref.root)
                same_state(a, b)
                if family == "disconnected":
                    assert jt.root == -1

    def test_maps(self, family):
        for seed in SEEDS[family]:
            g = FAMILIES[family](seed)
            a, b = twin_rngs(seed)
            same_arrays(sample_imap(g, a), reference_sample_imap(g, b))
            same_state(a, b)
            for u in range(g.num_vars):
                same_arrays(sub_imap(g, u, a), reference_sub_imap(g, u, b))
                same_state(a, b)


def test_sub_imap_builds_no_graph_once_the_completion_is_cached(monkeypatch):
    g = grid_graph(6, 6)
    sample_imap(g, 0)

    def refuse(self, *args, **kwargs):
        raise AssertionError("sub_imap built an UndirectedGraph")

    monkeypatch.setattr(UndirectedGraph, "__init__", refuse)
    for u in range(g.num_vars):
        assert u in sub_imap(g, u, u).vertices


class TestDegenerateGraphs:
    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(12),
            random_graph(14, 0.9, 0),
            UndirectedGraph(6, frozenset()),
            UndirectedGraph(1, frozenset()),
            UndirectedGraph(0, frozenset()),
        ],
        ids=["complete12", "dense14", "edgeless", "one-vertex", "empty"],
    )
    def test_chordalize_sample_and_sub_imap(self, g):
        chordal = min_fill_chordalize(g, 0)
        assert g.edges <= chordal.edges and check_chordal(chordal)
        for seed in range(5):
            imap = sample_imap(g, seed)
            imap_is_valid(imap, g)
            same_as_reference(imap, reference_sample_imap(g, seed))
            assert imap.vertices == tuple(range(g.num_vars))
        for u in range(g.num_vars):
            local = sub_imap(g, u, u)
            same_as_reference(local, reference_sub_imap(g, u, u))
            assert set(local.vertices) == {u} | set(chordal.neighbors(u))
        if len(g.edges) == g.num_vars * (g.num_vars - 1) // 2:
            # a complete graph is one clique: one chain of depths 0..n-1
            assert sample_imap(g, 0).depth.tolist() == list(range(g.num_vars))
        if not g.edges:
            assert sample_imap(g, 0).parent_table.shape == (g.num_vars, 0)


LATENT_FAMILIES = {
    "random": lambda rng: random_graph(
        int(rng.integers(2, 15)), float(rng.uniform(0.1, 0.8)), rng
    ),
    "grid": lambda rng: grid_graph(int(rng.integers(2, 5)), int(rng.integers(2, 5))),
    "ladder-plain": lambda rng: ladder_graph(int(rng.integers(2, 7)), diagonals=False),
}


def latent_cases(family: str, count: int, seed: int):
    """(graph, latent set) pairs of one family, each with a random proper
    subset of its vertices latent, the empty set included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = LATENT_FAMILIES[family](rng)
        size = int(rng.integers(0, g.num_vars))
        yield g, tuple(sorted(rng.choice(g.num_vars, size=size, replace=False).tolist()))


def random_bayes_net(rng) -> TabularBayesNetModel:
    """3 to 9 variables in index order, each with up to two earlier parents."""
    n = int(rng.integers(3, 10))
    parents = [
        tuple(sorted(rng.choice(v, size=min(v, int(rng.integers(0, 3))), replace=False).tolist()))
        for v in range(n)
    ]
    dag = Imap.from_parents(n, range(n), parents)
    return TabularBayesNetModel(dag, {v: rng.normal(size=1 << len(parents[v])) for v in range(n)})


POSTERIOR_MODELS = {
    "bayes-net": (240, random_bayes_net),
    "ising": (
        80,
        lambda rng: random_ising(
            random_graph(int(rng.integers(3, 10)), float(rng.uniform(0.2, 0.7)), rng), 0.5, rng
        ),
    ),
    "factor-lattice": (
        40,
        lambda rng: random_factor_lattice(int(rng.integers(2, 4)), 3, seed=rng, init_std=1.0),
    ),
}


class TestLatentMapIsThePosterior:
    """The latent map eliminates the latents and keeps the observed variables,
    so its conditionals multiply to the exact posterior p(h | o) of any model
    that factorizes over its interaction graph."""

    @pytest.mark.parametrize("family", list(POSTERIOR_MODELS))
    def test_factorization_equals_the_enumerated_posterior(self, family):
        count, make = POSTERIOR_MODELS[family]
        lonely = all_but_one = 0
        for trial in range(count):
            rng = np.random.default_rng(trial)
            p = make(rng)
            n = p.num_vars
            k = n - 1 if trial % 4 == 0 else int(rng.integers(1, n))
            hidden = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            observed = [v for v in range(n) if v not in hidden]
            imap = latent_imap(p, hidden, trial)
            assert imap.vertices == hidden
            read = {q for v in hidden for q in imap.parents[v]}
            assert imap.given.tolist() == sorted(read - set(hidden))
            lonely += sum(not p.graph.adj_masks[h] & _mask_of(observed) for h in hidden)
            all_but_one += k == n - 1

            states = all_states(n)
            log_p = p.log_reward_batch(states)
            want = log_p - log_marginal_at(states, log_p, observed)
            got = np.zeros(len(states))
            for v in imap.topo_order:
                ps = imap.parents[v]
                got += log_marginal_at(states, log_p, (*ps, v)) - log_marginal_at(states, log_p, ps)
            assert_allclose(got, want, rtol=0, atol=1e-12)
        assert lonely > 0 and all_but_one >= count // 4

    @pytest.mark.parametrize("family", list(LATENT_FAMILIES))
    def test_min_fill_over_a_vertex_set_matches_the_scan(self, family):
        for trial, (g, verts) in enumerate(latent_cases(family, 100, seed=43)):
            a, b = twin_rngs(trial)
            adj = list(g.adj_masks)
            order, added = _min_fill(adj, _mask_of(verts), a)
            assert (order, added) == reference_eliminate(g, verts, b)
            same_state(a, b)
            assert tuple(adj) == g.with_extra_edges(added).adj_masks

    @pytest.mark.parametrize("family", list(LATENT_FAMILIES))
    def test_reverse_elimination_order_with_alive_neighbours_as_parents(self, family):
        for trial, (g, hidden) in enumerate(latent_cases(family, 60, seed=47)):
            m = random_ising(g, 0.3, seed=trial)
            a, b = twin_rngs(trial)
            imap = latent_imap(m, hidden, a)
            # min-fill counts no fill among the observed variables: they start joined
            observed = [v for v in range(g.num_vars) if v not in hidden]
            joined = g.with_extra_edges(itertools.combinations(observed, 2))
            order, added = reference_eliminate(joined, hidden, b)
            same_state(a, b)
            filled = joined.with_extra_edges(added)
            assert imap.topo_order == tuple(order[::-1])
            for t, v in enumerate(order):
                alive = set(range(g.num_vars)) - set(order[: t + 1])
                assert set(imap.parents[v]) == set(filled.neighbors(v)) & alive

    def test_empty_latent_set_gives_an_empty_map(self):
        m = random_ising(grid_graph(3, 3), 0.3, seed=2)
        imap = latent_imap(m, (), 0)
        assert imap.num_vars == 9
        assert imap.topo_order == () and imap.parent_table.shape == (0, 0)
        assert imap.given.shape == (0,)

    def test_latent_map_builds_no_graph(self, monkeypatch):
        m = random_ising(grid_graph(5, 5), 0.3, seed=4)
        hidden = tuple(range(15))  # the first three rows: a 3 x 5 grid, not chordal

        def refuse(self, *args, **kwargs):
            raise AssertionError("latent_imap built an UndirectedGraph")

        monkeypatch.setattr(UndirectedGraph, "__init__", refuse)
        for seed in range(5):
            imap = latent_imap(m, hidden, seed)
            assert imap.vertices == hidden and imap.given.tolist() == list(range(15, 20))


class TestGivenVariables:
    """``Imap.from_parents`` takes the variables a map reads but does not draw."""

    def test_given_parents_sit_below_depth_zero(self):
        imap = Imap.from_parents(5, [2, 1, 3], [(0, 4), (0, 2), (2, 4)], given=(4, 0))
        assert imap.given.tolist() == [0, 4]
        assert imap.depth.tolist() == [0, 1, 1]
        assert imap.vertices == (1, 2, 3)
        assert imap.parents == {2: (0, 4), 1: (0, 2), 3: (2, 4)}
        assert imap.children == {2: (1, 3), 1: (), 3: ()}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_maps(self, data):
        n = data.draw(st.integers(1, 8))
        perm = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(1, n))
        order, given_vars = perm[:k], sorted(perm[k:])
        parents = []
        for t in range(k):
            pool = order[:t] + given_vars
            parents.append(sorted(data.draw(st.sets(st.sampled_from(pool)))) if pool else [])
        imap = Imap.from_parents(n, order, parents, given_vars)
        depth = {v: -1 for v in given_vars}
        for v, ps in zip(order, parents):
            depth[v] = 1 + max((depth[p] for p in ps), default=-1)
        assert imap.depth.tolist() == [depth[v] for v in order]
        assert imap.given.tolist() == given_vars
        # a parent drawn at or after its child, and not given, is refused
        t = data.draw(st.integers(0, k - 1))
        late = data.draw(st.sampled_from(order[t:]))
        parents[t] = sorted({*parents[t], late})
        with pytest.raises(ValueError):
            Imap.from_parents(n, order, parents, given_vars)

    @pytest.mark.parametrize(
        "order,parents,given_vars",
        [
            ([1, 2], [(0,), (1,)], ()),  # 0 is neither drawn before 1 nor given
            ([1, 2], [(0,), (3,)], (0,)),  # 3 is not given
            ([1, 2], [(0,), (1,)], (0, 2)),  # 2 is drawn and given
            ([1, 2], [(0,), ()], (0, 5)),  # 5 is outside the universe
        ],
    )
    def test_rejects_parents_neither_drawn_before_nor_given(self, order, parents, given_vars):
        with pytest.raises(ValueError):
            Imap.from_parents(4, order, parents, given_vars)
