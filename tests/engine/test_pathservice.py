"""PathService: CSR parity with the per-pair loops, persistence, determinism.

The CSR bidirectional search must reproduce the per-pair
:func:`~repro.fluid.paths.k_edge_disjoint_paths` loop *byte for byte* —
path discovery feeds every routing decision, so a single tie-break
divergence would silently change every downstream metric.  These tests pin:

* :class:`CsrDisjointProvider` against that loop (the oracle) — whole pair
  lists through **one** ``paths_many`` call, which is how the lockstep
  kernel is used — on random topologies (disconnected pairs,
  ``src == dst``, ``k`` larger than the graph supports), on
  hypothesis-drawn G(n, p) and hub-heavy graphs with the scratch budget
  patched so chunks hold 1, 2, 3 and 7 pairs, on a line deeper than an
  int8 label, and on the 10k-node Ripple-like graph;
* the chunk-size rule, and that scratch does not outlive a call (so a call
  that raised mid-chunk cannot poison the next);
* one-way edges and unorderable node ids rejected with a named error;
* the landmark tree provider against the two-BFS-per-pair assembly;
* ``view(k)`` as the one memoising cache per budget;
* persistent-cache round trips (disk artifacts serve the exact path sets),
  bulk misses going to the provider as one batch, and cold-vs-warm
  byte-identical metrics JSON;
* the artifact loader: tampered, poisoned, truncated and byte-garbled
  ``.npz`` files and a previous-format JSON file all count as absent —
  recomputed and overwritten, never an ``IndexError``, never served;
* byte-identical metrics with both discovery kernels swapped for their
  per-pair loops, for the schemes that consume discovery.
"""

from __future__ import annotations

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import pathservice
from repro.engine.pathservice import (
    CsrDisjointProvider,
    CsrGraph,
    LandmarkProvider,
    PathService,
    PersistentCache,
    contract_loops,
)
from repro.engine.session import SimulationSession
from repro.errors import TopologyError
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import run_experiment
from repro.fluid.paths import (
    bfs_distances,
    bfs_shortest_path,
    build_path_set,
    k_edge_disjoint_paths,
    k_shortest_paths,
)
from repro.metrics.report import metrics_to_json
from repro.network.network import PaymentNetwork
from repro.simulator.rng import make_rng
from repro.topology import isp_topology, ripple_topology, scale_free_topology
from tests.path_helpers import path_columns


@pytest.fixture(autouse=True)
def _fresh_shared_cache():
    """Each test sees a cold process-wide pair store."""
    PersistentCache.clear_shared()
    yield
    PersistentCache.clear_shared()


def random_adjacency(seed: int, n: int, p: float) -> dict:
    """A seeded undirected G(n, p) adjacency with sorted rows."""
    rng = make_rng(seed)
    adjacency = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return {i: sorted(v) for i, v in adjacency.items()}


def all_pairs(n: int) -> list:
    """Every ordered pair over ``range(n)``, self pairs included."""
    return [(source, dest) for source in range(n) for dest in range(n)]


def disjoint_oracle(adjacency: dict, k: int, pairs) -> list:
    """The per-pair k edge-disjoint loop over every pair, in pair order."""
    return [k_edge_disjoint_paths(adjacency, s, d, k) for s, d in pairs]


def legacy_landmark_paths(adjacency, landmarks, source, dest):
    """The landmark assembly without trees: two BFS per (pair, landmark)."""
    paths, seen = [], set()
    for landmark in landmarks:
        first = bfs_shortest_path(adjacency, source, landmark)
        second = bfs_shortest_path(adjacency, landmark, dest)
        if first is None or second is None:
            continue
        merged = contract_loops(tuple(first) + tuple(second[1:]))
        if len(merged) < 2 or merged[0] != source or merged[-1] != dest:
            continue
        if merged not in seen:
            seen.add(merged)
            paths.append(merged)
    return paths


class _Boom:
    """A provider that must not be reached: every pair is in the store."""

    def paths(self, *args):
        raise AssertionError("artifact miss: provider was invoked")

    def paths_many(self, *args):
        raise AssertionError("artifact miss: provider was invoked")

    def columns(self, *args):
        raise AssertionError("artifact miss: provider was invoked")


def read_artifact(path) -> dict:
    """An artifact's arrays, by name."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def write_artifact(path, arrays: dict) -> None:
    """``arrays`` as an ``.npz`` archive at ``path`` (tampered artifacts)."""
    np.savez(path, **arrays)


def chunks_of(graph: CsrGraph, pairs: int):
    """Patch the scratch budget so a lockstep chunk holds ``pairs`` pairs."""
    per_pair = pathservice._pair_scratch_bytes(
        graph.num_nodes, graph.indices.shape[0]
    )
    return mock.patch.object(
        pathservice, "_SCRATCH_BUDGET_BYTES", pairs * per_pair
    )


class TestCsrParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_k_disjoint_matches_scalar_on_random_graphs(self, seed):
        """Exhaustive all-pairs parity, including disconnected pairs,
        isolated nodes, src == dst, and k beyond the available paths."""
        n = 6 + 2 * seed
        adjacency = random_adjacency(seed, n, p=0.08 + 0.03 * (seed % 5))
        graph = CsrGraph.from_adjacency(adjacency)
        pairs = all_pairs(n)
        for k in (1, 2, 4, 9):
            got = CsrDisjointProvider(graph, k).paths_many(pairs)
            expected = disjoint_oracle(adjacency, k, pairs)
            assert dict(zip(pairs, got)) == dict(zip(pairs, expected)), (seed, k)

    def test_first_path_matches_bfs_shortest_path(self):
        """The k=1 CSR path is exactly the scalar BFS tie-break."""
        adjacency = random_adjacency(3, 24, p=0.15)
        graph = CsrGraph.from_adjacency(adjacency)
        pairs = [pair for pair in all_pairs(24) if pair[0] != pair[1]]
        got = CsrDisjointProvider(graph, 1).paths_many(pairs)
        for (source, dest), paths in zip(pairs, got):
            expected = bfs_shortest_path(adjacency, source, dest)
            assert paths == ([expected] if expected else []), (source, dest)

    def test_unknown_endpoints_and_self_pairs(self):
        adjacency = {0: [1], 1: [0]}
        csr = CsrDisjointProvider(CsrGraph.from_adjacency(adjacency), 3)
        pairs = [(0, 7), (7, 0), (0, 0), (7, 7)]
        expected = disjoint_oracle(adjacency, 3, pairs)
        assert [csr.paths(*pair) for pair in pairs] == expected
        assert csr.paths_many(pairs) == expected

    def test_duplicate_neighbour_entries_stay_edge_disjoint(self):
        """Parallel entries in the input adjacency must not leave the
        k-disjoint edge mask covering only one CSR slot (regression)."""
        adjacency = {0: [1, 1], 1: [0, 0, 2, 3], 2: [1, 3], 3: [1, 2]}
        csr = CsrDisjointProvider(CsrGraph.from_adjacency(adjacency), 3)
        pairs = all_pairs(len(adjacency))
        assert csr.paths_many(pairs) == disjoint_oracle(adjacency, 3, pairs)

    @settings(max_examples=40, deadline=None)
    @given(
        hubs=st.booleans(),
        seed=st.integers(0, 10_000),
        n=st.integers(4, 18),
        density=st.integers(1, 4),
        k=st.sampled_from([1, 2, 4, 9]),
        extra=st.integers(0, 2),
        chunk=st.sampled_from([1, 2, 3, 7]),
    )
    def test_differential_one_batch_serves_every_pair(
        self, hubs, seed, n, density, k, extra, chunk
    ):
        """One ``paths_many`` call over a shuffled pair list against the
        per-pair loop and against pair-at-a-time ``paths()``.

        The graph is G(n, p) or preferential attachment (a few hubs carry
        most edges, so the search alternates sides), plus ``extra``
        isolated nodes and a detached edge so some pairs have no path,
        with every neighbour list doubled (duplicate entries).  The list
        holds every ordered pair — adjacent pairs, endpoints of degree
        below ``k``, ``src == dst`` — plus unknown endpoints and one pair
        twice, shuffled so every chunk mixes directions and
        connected/disconnected pairs; chunks hold ``chunk`` pairs and the
        list length is not a multiple of it, so the last chunk is short.
        Labels or edge masks leaking between the pairs of a chunk, or
        from one chunk to the next, would corrupt a neighbour's paths.
        """
        if hubs:
            adjacency = scale_free_topology(
                n, min(density, n - 1), seed=seed
            ).adjacency()
        else:
            adjacency = random_adjacency(seed, n, p=0.08 * density)
        first = len(adjacency)
        for node in range(first, first + extra):
            adjacency[node] = []
        a, b = first + extra, first + extra + 1
        adjacency[a], adjacency[b] = [b], [a]
        adjacency = {node: row + row for node, row in adjacency.items()}
        graph = CsrGraph.from_adjacency(adjacency)
        total = len(adjacency)
        unknown = total + 5
        pairs = all_pairs(total) + [(0, unknown), (unknown, 0), (unknown, unknown)]
        pairs.append((0, 1))  # a second time
        if (total * (total - 1) + 1) % chunk == 0:
            pairs.append((0, 1))  # the pairs that reach the kernel: a short last chunk
        rng = make_rng(seed)
        pairs = [pairs[int(i)] for i in rng.permutation(len(pairs))]
        provider = CsrDisjointProvider(graph, k)
        with chunks_of(graph, chunk):
            got = provider.paths_many(pairs)
        expected = disjoint_oracle(adjacency, k, pairs)
        assert dict(zip(pairs, got)) == dict(zip(pairs, expected))
        assert got == expected  # and the repeated pair, in place
        for pair, paths in list(zip(pairs, got))[:12]:
            assert provider.paths(*pair) == paths, pair

    def test_labels_deeper_than_int8_on_a_line(self):
        """A 320-node line: levels pass 127 on both sides, the one path is
        the whole line, and a second path never exists."""
        n = 320
        adjacency = {
            i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)
        }
        csr = CsrDisjointProvider(CsrGraph.from_adjacency(adjacency), 2)
        pairs = [(0, n - 1), (n - 1, 0), (3, 300), (150, 151), (7, 7)]
        assert csr.paths_many(pairs) == disjoint_oracle(adjacency, 2, pairs)
        assert csr.paths(0, n - 1) == [tuple(range(n))]

    def test_scale_parity_on_ripple_huge(self):
        """Seeded pairs on the 10k-node graph, one batch: hub-sized
        frontiers, long rows and multi-level searches the small graphs
        never produce, across three chunks of the real budget.

        The batch must reach one lockstep kernel sized to the chunk and
        cross it in ⌈150 / width⌉ ``run`` calls: a pair-at-a-time search
        (one kernel or one ``run`` per pair) is the 16.6× discovery
        regression this pins, and it needs no clock to see."""
        adjacency = {
            node: sorted(neighbours)
            for node, neighbours in ripple_topology("huge", seed=0)
            .adjacency()
            .items()
        }
        graph = CsrGraph.from_adjacency(adjacency)
        nodes = sorted(adjacency)
        rng = make_rng(17)
        pairs = []
        for _ in range(150):
            a, b = rng.choice(len(nodes), size=2, replace=False)
            pairs.append((nodes[int(a)], nodes[int(b)]))
        width = pathservice._chunk_pairs(graph.num_nodes, graph.indices.shape[0])
        assert (graph.num_nodes, graph.indices.shape[0], width) == (10_000, 66_306, 57)
        kernels, runs = [], []
        init, run = pathservice._Lockstep.__init__, pathservice._Lockstep.run

        def recording_init(self, graph, width):
            init(self, graph, width)
            kernels.append(width)

        def recording_run(self, src, dst, budget):
            runs.append(len(src))
            return run(self, src, dst, budget)

        with mock.patch.object(
            pathservice._Lockstep, "__init__", recording_init
        ), mock.patch.object(pathservice._Lockstep, "run", recording_run):
            got = CsrDisjointProvider(graph, 4).paths_many(pairs)
        assert kernels == [width]
        assert runs == [width, width, len(pairs) - 2 * width]
        expected = disjoint_oracle(adjacency, 4, pairs)
        assert dict(zip(pairs, got)) == dict(zip(pairs, expected))

    def test_chunk_size_rule(self):
        """Pairs per chunk = budget // per-pair scratch, never below one."""
        budget = pathservice._SCRATCH_BUDGET_BYTES
        # int16 labels while every level fits: 2 * 2n + E + 4n bytes.
        assert pathservice._pair_scratch_bytes(10_000, 66_306) == 146_306
        assert pathservice._chunk_pairs(10_000, 66_306) == budget // 146_306
        # int32 labels past 32767 nodes: 2 * 4n + E + 4n bytes.
        assert pathservice._pair_scratch_bytes(32_767, 0) == 8 * 32_767
        assert pathservice._pair_scratch_bytes(32_768, 10) == 12 * 32_768 + 10
        # One pair alone over the budget still gets a chunk.
        assert pathservice._pair_scratch_bytes(10**6, 10**7) > budget
        assert pathservice._chunk_pairs(10**6, 10**7) == 1

    def test_scratch_is_sized_to_the_batch_and_not_kept(self):
        """A batch smaller than a chunk allocates for its own pairs only,
        and nothing of it stays on the provider."""
        adjacency = random_adjacency(5, 12, p=0.3)
        graph = CsrGraph.from_adjacency(adjacency)
        assert pathservice._chunk_pairs(12, graph.indices.shape[0]) > 3
        widths = []
        original = pathservice._Lockstep.__init__

        def recording(self, graph, width):
            original(self, graph, width)
            widths.append((width, self.dist.shape[0], self.alive.shape[0]))

        csr = CsrDisjointProvider(graph, 4)
        with mock.patch.object(pathservice._Lockstep, "__init__", recording):
            csr.paths_many([(0, 5), (5, 0), (2, 2), (2, 9), (0, 99)])
            with chunks_of(graph, 2):
                csr.paths_many([(0, 5), (5, 0), (2, 9)])
        entries = graph.indices.shape[0]
        # (2, 2) and the unknown endpoint never reach the kernel.
        assert widths == [(3, 2 * 3 * 12, 3 * entries), (2, 2 * 2 * 12, 2 * entries)]
        assert not any(
            isinstance(value, np.ndarray) for value in vars(csr).values()
        )

    def test_call_after_one_that_raised_mid_chunk(self):
        """Scratch dies with the call, so a search that blew up half way
        (here: a corrupt twin index, hit when round one masks its hops)
        leaves nothing behind for the next call on the same provider."""
        adjacency = random_adjacency(5, 12, p=0.3)
        graph = CsrGraph.from_adjacency(adjacency)
        csr = CsrDisjointProvider(graph, 4)
        pairs = [(0, 5), (5, 0), (2, 9), (9, 1), (3, 4)]
        expected = disjoint_oracle(adjacency, 4, pairs)
        twin = graph.twin
        graph.twin = np.full_like(twin, 10 * twin.shape[0])
        try:
            with chunks_of(graph, 2), pytest.raises(IndexError):
                csr.paths_many(pairs)
        finally:
            graph.twin = twin
        with chunks_of(graph, 2):
            assert csr.paths_many(pairs) == expected
        assert csr.paths_many(pairs) == expected

    def test_twin_maps_every_entry_to_its_reverse(self):
        adjacency = random_adjacency(11, 40, p=0.15)
        graph = CsrGraph.from_adjacency(adjacency)
        owners = np.repeat(np.arange(40), np.diff(graph.indptr))
        assert (graph.indices[graph.twin] == owners).all()
        assert (owners[graph.twin] == graph.indices).all()

    @pytest.mark.parametrize(
        "adjacency, edge",
        [
            ({0: [1, 2], 1: [0, 3], 2: [3], 3: [1, 2]}, "0 -> 2"),
            # A rotation has equal in- and out-degree everywhere, so only
            # the pairwise check can tell it from a symmetric graph.
            ({0: [1], 1: [2], 2: [0]}, "0 -> 1"),
        ],
        ids=["one-way-edge", "rotation"],
    )
    def test_one_way_edge_is_rejected(self, adjacency, edge):
        """The bidirectional search reads every edge from both ends, so an
        edge without its reverse is a named error, not wrong paths."""
        with pytest.raises(TopologyError, match=f"edge {edge} has no reverse"):
            CsrGraph.from_adjacency(adjacency)
        with pytest.raises(TopologyError, match=f"edge {edge} has no reverse"):
            PathService.from_adjacency(adjacency)
        with pytest.raises(TopologyError, match="has no reverse"):
            build_path_set(adjacency, [(0, 1)])

    @pytest.mark.parametrize(
        "adjacency",
        [
            {0: [1, "a"], 1: [0], "a": [0]},  # a row that mixes types
            {0: [1], 1: [0], "a": []},  # only the node set mixes types
        ],
        ids=["row", "nodes"],
    )
    def test_unorderable_node_ids_are_rejected(self, adjacency):
        """Mixed ``int``/``str`` ids have no sorted CSR layout and no BFS
        tie-break order; the error names the odd id."""
        with pytest.raises(TopologyError, match="node id 'a' cannot be ordered against"):
            PathService.from_adjacency(adjacency).view(4)
        with pytest.raises(TopologyError, match="node id 'a'"):
            build_path_set(adjacency, [(0, 1)])

    def test_paths_many_order(self):
        adjacency = random_adjacency(5, 12, p=0.3)
        graph = CsrGraph.from_adjacency(adjacency)
        csr = CsrDisjointProvider(graph, 4)
        pairs = [(0, 5), (5, 0), (1, 1), (2, 9)]
        assert csr.paths_many(pairs) == [csr.paths(*p) for p in pairs]

    def test_sorted_csr_rows(self):
        """The tie-break ordering is explicit in the layout: every CSR row
        is sorted ascending."""
        adjacency = random_adjacency(7, 30, p=0.2)
        graph = CsrGraph.from_adjacency(adjacency)
        for i in range(30):
            row = graph.indices[graph.indptr[i] : graph.indptr[i + 1]]
            assert list(row) == sorted(row)

    def test_service_matches_the_loop_on_ripple(self):
        """Service-level parity on a real topology."""
        network = ripple_topology("small", seed=0).build_network(
            default_capacity=100.0
        )
        rng = make_rng(11)
        nodes = sorted(network.nodes())
        pairs = [
            (nodes[int(a)], nodes[int(b)])
            for a, b in (
                rng.choice(len(nodes), size=2, replace=False) for _ in range(25)
            )
        ]
        service = PathService.from_network(network)
        assert service.view(4).paths_many(pairs) == disjoint_oracle(
            service.sorted_adjacency(), 4, pairs
        )


class TestOneGraph:
    """The one channel graph: its BFS kernel, its id order and what an
    adjacency mapping compiles to."""

    @pytest.mark.parametrize("seed", range(4))
    def test_level_bfs_is_the_scalar_bfs(self, seed):
        """One kernel serves the landmark trees' parents and Celer's
        distance rows: each parent chain is the scalar BFS path, each hop
        count the scalar BFS distance, and ``-1`` marks the unreached
        (every rank, from a node outside the graph)."""
        n = 24
        adjacency = random_adjacency(seed + 40, n, p=0.09)
        graph = CsrGraph.from_adjacency(adjacency)
        for root in range(n):
            parent, dist = graph.level_bfs(root)
            want = bfs_distances(adjacency, root)
            got = {graph.nodes[r]: d for r, d in enumerate(dist.tolist()) if d >= 0}
            assert got == want
            assert ((parent >= 0) == (dist >= 0)).all()
            assert graph.hop_distances(root).tolist() == dist.tolist()
            for node in range(n):
                chain = pathservice._parent_chain(parent, root, graph.index[node])
                want_path = bfs_shortest_path(adjacency, root, node)
                got_path = None if chain is None else tuple(graph.nodes[r] for r in chain)
                assert got_path == want_path
        parent, dist = graph.level_bfs("nowhere")
        assert (parent == -1).all() and (dist == -1).all()

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([5, -3, 12, 0], None),
            (["b", "a", "c"], None),
            ([], None),
            ([2, 1, "a"], "node id 'a' cannot be ordered against 2"),
        ],
        ids=["ints", "strings", "empty", "mixed"],
    )
    def test_id_order_is_the_sorted_order(self, ids, error):
        """The one helper that orders node ids: positions in ascending id
        order, or a named error when the ids have no total order."""
        if error is not None:
            with pytest.raises(TopologyError, match=error):
                pathservice.id_order(ids)
            return
        order = pathservice.id_order(ids)
        assert [ids[i] for i in order.tolist()] == sorted(ids)

    def test_adjacency_counts_each_channel_once(self):
        """Parallel entries and self-loops lie on no other path than the
        plain edges do: the graph is the one of the plain edges."""
        clean = {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: []}
        noisy = {0: [2, 1, 1, 0], 1: [0, 2, 0], 2: [1, 0, 2], 3: [3]}
        got, want = CsrGraph.from_adjacency(noisy), CsrGraph.from_adjacency(clean)
        for name in ("indptr", "indices", "degree", "keys", "dirs", "twin"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        assert got.fingerprint() == want.fingerprint()

    def test_a_network_without_id_order_looks_up_but_does_not_discover(self):
        """A network may mix id types: its channels are found, but
        discovery, which needs the ids' order, raises naming the odd id."""
        network = PaymentNetwork()
        network.add_channel(1, "a", 10.0)
        network.add_channel("a", 2, 10.0)
        assert network.has_channel("a", 1) and not network.has_channel(1, 2)
        assert network.direction_id(2, "a") == 3
        assert network.neighbors("a") == [1, 2]
        with pytest.raises(TopologyError, match="node id 'a' cannot be ordered against 1"):
            network.path_service


class TestLandmarkProvider:
    @pytest.mark.parametrize("seed", range(4))
    def test_tree_assembly_matches_per_pair_bfs(self, seed):
        """Tree-based leg assembly is byte-identical to the legacy two
        fresh BFS runs per (pair, landmark)."""
        adjacency = random_adjacency(seed + 20, 18, p=0.18)
        service = PathService.from_adjacency(adjacency)
        provider = service.landmark_provider(3)
        for source in range(18):
            for dest in range(18):
                assert provider.paths(source, dest) == legacy_landmark_paths(
                    adjacency, provider.landmarks, source, dest
                ), (seed, source, dest)

    def test_landmarks_are_highest_degree(self):
        network = isp_topology().build_network(default_capacity=100.0)
        provider = network.path_service.landmark_provider(3)
        # ISP core nodes (0-7) have the highest degree.
        assert all(landmark < 8 for landmark in provider.landmarks)


class TestView:
    def test_view_surface(self):
        network = isp_topology().build_network(default_capacity=100.0)
        view = network.path_service.view(k=3)
        assert isinstance(view, PersistentCache)
        paths = view.paths(8, 20)
        assert paths and paths[0][0] == 8 and paths[0][-1] == 20
        assert view.paths(8, 8)[0] == (8,)  # the loop's degenerate pair
        assert view.paths_many([(8, 20)]) == [paths]
        # k caps the path count.
        assert len(paths) == 3
        assert len(network.path_service.view(k=1).paths(8, 20)) == 1
        disconnected = PathService.from_adjacency({0: [1], 1: [0], 2: []}).view(k=2)
        assert disconnected.paths(0, 2) == []

    def test_view_validation(self):
        network = isp_topology().build_network(default_capacity=100.0)
        with pytest.raises(ValueError):
            network.path_service.view(k=0)

    def test_shared_across_schemes_per_network(self):
        """Two views with the same budget serve the same pair store."""
        network = isp_topology().build_network(default_capacity=100.0)
        service = network.path_service
        first = service.view(k=4).paths(8, 20)
        service.view(k=4).provider = _Boom()  # memoised: not searched again
        assert service.view(k=4).paths(8, 20) == first


class TestBuildPathSetThroughService:
    def test_matches_direct_providers(self):
        adjacency = random_adjacency(9, 16, p=0.3)
        pairs = [(0, 5), (3, 12)]
        path_set = build_path_set(adjacency, pairs, k=4)
        assert path_set == dict(zip(pairs, disjoint_oracle(adjacency, 4, pairs)))

    def test_yen_runs_the_per_pair_loop(self):
        adjacency = isp_topology().adjacency()
        path_set = build_path_set(adjacency, [(8, 20)], k=3, method="yen")
        assert path_set == {(8, 20): k_shortest_paths(adjacency, 8, 20, 3)}

    def test_no_path_error(self):
        from repro.errors import NoPathError

        with pytest.raises(NoPathError):
            build_path_set({0: [1], 1: [0], 2: []}, [(0, 2)], k=2)


class TestPersistentCache:
    def test_disk_round_trip_serves_identical_paths(self, tmp_path):
        network = ripple_topology("small", seed=0).build_network(
            default_capacity=100.0
        )
        rng = make_rng(5)
        nodes = sorted(network.nodes())
        pairs = sorted(
            (nodes[int(a)], nodes[int(b)])
            for a, b in (
                rng.choice(len(nodes), size=2, replace=False) for _ in range(20)
            )
        )
        service = PathService.from_network(network, cache_dir=str(tmp_path))
        service.view(4).prepare(pairs)
        expected = service.view(4).paths_many(pairs)
        artifacts = [f for f in os.listdir(tmp_path) if f.startswith("paths-")]
        assert len(artifacts) == 1

        # A fresh process-level store must serve the artifact without ever
        # touching the provider.
        PersistentCache.clear_shared()


        warm = PathService.from_network(network, cache_dir=str(tmp_path))
        warm.view(4).provider = _Boom()
        assert warm.view(4).paths_many(pairs) == expected

    def test_bulk_misses_reach_the_provider_as_one_batch(self):
        """``paths_many`` and ``columns`` send their misses through one
        provider ``columns`` call (never pair by pair, or the lockstep
        kernel would run as batches of one), keep input order and
        repeats, and do not flush; a pair outside the graph is answered
        by the provider's tuple API and never stored."""
        graph = CsrGraph.from_adjacency({node: [] for node in range(10)})

        class Counting:
            def __init__(self):
                self.graph = graph
                self.batches = []

            def paths_many(self, pairs):
                return [[(source, dest)] for source, dest in pairs]

            def columns(self, pairs):
                self.batches.append(list(pairs))
                return path_columns(self.paths_many(pairs), graph)

        provider = Counting()
        cache = PersistentCache(provider, "counting-key")
        cache.paths(9, 9)  # already known: not asked for again
        provider.batches.clear()
        asked = [(1, 2), (9, 9), (3, 4), (1, 2), [5, 6], (5, 77)]
        with mock.patch.object(PersistentCache, "flush") as flush:
            got = cache.paths_many(asked)
        assert provider.batches == [[(1, 2), (3, 4), (5, 6)]]
        assert got == [[(1, 2)], [(9, 9)], [(3, 4)], [(1, 2)], [(5, 6)], [(5, 77)]]
        assert cache._dirty and not flush.called
        assert len(PersistentCache._shared["counting-key"]) == 4
        assert cache.paths_many(asked) == got and len(provider.batches) == 1
        columns = cache.columns(asked)
        assert columns.set_ptr.tolist() == [0, 1, 2, 3, 4, 5, 5]
        assert columns.to_lists() == got[:5] + [[]]
        assert len(provider.batches) == 1

    def test_artifact_bytes_deterministic(self, tmp_path):
        network = isp_topology().build_network(default_capacity=100.0)
        pairs = [(8, 20), (9, 21), (10, 31)]

        def artifact_bytes(subdir):
            PersistentCache.clear_shared()
            service = PathService.from_network(
                network, cache_dir=str(tmp_path / subdir)
            )
            service.view(4).prepare(pairs)
            (name,) = os.listdir(tmp_path / subdir)
            return (tmp_path / subdir / name).read_bytes()

        assert artifact_bytes("a") == artifact_bytes("b")

    def test_flush_covers_pairs_discovered_before_attach(self, tmp_path):
        """Pairs computed before a cache dir is attached (possibly by an
        earlier service instance) must still reach the artifact
        (regression: per-instance dirty flag vs. process-wide store)."""
        network = isp_topology().build_network(default_capacity=100.0)
        PathService.from_network(network).view(4).prepare([(8, 20)])  # no dir
        late = PathService.from_network(network)
        late.persist_to(str(tmp_path))
        late.view(4).prepare([(8, 20)])  # nothing missing — must still write
        assert any(f.startswith("paths-") for f in os.listdir(tmp_path))
        PersistentCache.clear_shared()
        warm = PathService.from_network(network, cache_dir=str(tmp_path))


        warm.view(4).provider = _Boom()
        assert warm.view(4).paths(8, 20)

    def test_concurrent_writers_leave_a_valid_artifact(self, tmp_path):
        """Two processes precomputing the same topology concurrently must
        not corrupt or double-write the artifact.

        Each flush writes to a pid-suffixed temp file and atomically
        ``os.replace``s it over the artifact, so simultaneous writers can
        only ever race whole consistent files into place.  Both workers
        compute the same pair set here, so whichever lands last the
        artifact is complete; the test asserts a single valid archive,
        no temp-file litter, and a warm service that serves every pair
        without touching the provider.
        """
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        network = ripple_topology("small", seed=0).build_network(
            default_capacity=100.0
        )
        rng = make_rng(9)
        nodes = sorted(network.nodes())
        pairs = sorted(
            (nodes[int(a)], nodes[int(b)])
            for a, b in (
                rng.choice(len(nodes), size=2, replace=False) for _ in range(25)
            )
        )
        expected = PathService.from_network(network).view(4).paths_many(pairs)

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)

        def worker(conn):
            try:
                # A cold per-process store: both workers genuinely compute
                # and both genuinely write.
                PersistentCache.clear_shared()
                service = PathService.from_network(
                    network, cache_dir=str(tmp_path)
                )
                barrier.wait(timeout=60.0)  # maximise flush overlap
                service.view(4).prepare(pairs)
                conn.send("ok")
            except BaseException as exc:  # pragma: no cover - failure path
                conn.send(f"{type(exc).__name__}: {exc}")
            finally:
                conn.close()

        connections = []
        procs = []
        for _ in range(2):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=worker, args=(child_conn,))
            proc.start()
            connections.append(parent_conn)
            procs.append(proc)
        outcomes = [conn.recv() for conn in connections]
        for proc in procs:
            proc.join(timeout=60.0)
        assert outcomes == ["ok", "ok"]

        names = os.listdir(tmp_path)
        assert [n for n in names if ".tmp." in n] == []  # no litter
        artifacts = [n for n in names if n.startswith("paths-")]
        assert len(artifacts) == 1  # one artifact, not one per writer
        # One whole consistent archive, not interleaved writes.
        assert sorted(read_artifact(tmp_path / artifacts[0])) == sorted(
            pathservice._ARTIFACT_ARRAYS
        )

        PersistentCache.clear_shared()


        warm = PathService.from_network(network, cache_dir=str(tmp_path))
        warm.view(4).provider = _Boom()
        assert warm.view(4).paths_many(pairs) == expected
        PersistentCache.clear_shared()

    def test_unreadable_artifact_recomputed(self, tmp_path):
        network = isp_topology().build_network(default_capacity=100.0)
        service = PathService.from_network(network, cache_dir=str(tmp_path))
        service.view(4).prepare([(8, 20)])
        (name,) = os.listdir(tmp_path)
        (tmp_path / name).write_text("not json")
        PersistentCache.clear_shared()
        fresh = PathService.from_network(network, cache_dir=str(tmp_path))
        assert fresh.view(4).paths(8, 20)  # silently recomputed

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda arrays: arrays.update(key=np.array("paths-of-another-graph")),
            lambda arrays: arrays.update(schema=np.array(1)),
            lambda arrays: arrays.pop("pair_dst"),
            lambda arrays: arrays.update(nodes=arrays["nodes"].astype(float)),
            lambda arrays: arrays.update(path_ptr=arrays["path_ptr"][None, :]),
            lambda arrays: arrays.clear(),
        ],
        ids=["key", "schema", "arity", "path-type", "paths-type", "empty"],
    )
    def test_mismatched_artifact_recomputed_and_overwritten(self, tmp_path, tamper):
        """A renamed, stale-schema or misshapen artifact is not trusted:
        its (poisoned) pair set is never served, and the next flush
        replaces the file."""
        self._assert_recomputed(tmp_path, tamper)

    @pytest.mark.parametrize(
        "poison",
        [
            lambda arrays, n: arrays["nodes"].__setitem__(0, 9),
            lambda arrays, n: arrays["nodes"].__setitem__(-1, 21),
            lambda arrays, n: arrays["nodes"].__setitem__(0, n + 8),
            lambda arrays, n: arrays["nodes"].__setitem__(0, -1),
            lambda arrays, n: arrays["path_ptr"].__setitem__(-1, 7),
            lambda arrays, n: arrays.update(
                path_ptr=np.array([0, 1, 2]), set_ptr=np.array([0, 2])
            ),
            lambda arrays, n: arrays.update(set_ptr=np.array([1, 1])),
            lambda arrays, n: arrays.update(
                pair_src=np.array([8, 8]),
                pair_dst=np.array([20, 20]),
                set_ptr=np.array([0, 1, 1]),
            ),
            lambda arrays, n: arrays.update(
                set_ptr=np.array([0, 2**63 + 1], dtype=np.uint64)
            ),
            lambda arrays, n: arrays.update(pair_src=np.array([n + 8])),
        ],
        ids=[
            "other-source",
            "other-dest",
            "node-past-graph",
            "negative-node",
            "pointer-past-end",
            "one-node-paths",
            "set-ptr-offset",
            "repeated-pair",
            "uint-overflow",
            "pair-past-graph",
        ],
    )
    def test_poisoned_artifact_recomputed_and_overwritten(self, tmp_path, poison):
        """An artifact of the right schema and key whose columns do not
        hold up — a path off its pair (or split into one-node paths), a
        node or pair outside the graph, a pointer out of bounds or out of
        order, a pair twice — is
        treated as absent: no ``IndexError``, its paths are never served,
        and the next flush replaces it."""
        self._assert_recomputed(
            tmp_path, lambda arrays: poison(arrays, isp_topology().num_nodes)
        )

    def _assert_recomputed(self, tmp_path, tamper):
        """Write the artifact of pair (8, 20) with its set replaced by the
        one-hop path ``(8, 20)`` (what trusting it would serve), apply
        ``tamper``, and check a fresh service recomputes and rewrites."""
        network = isp_topology().build_network(default_capacity=100.0)
        service = PathService.from_network(network, cache_dir=str(tmp_path))
        service.view(4).prepare([(8, 20)])
        expected = service.view(4).paths(8, 20)
        (name,) = os.listdir(tmp_path)
        good = (tmp_path / name).read_bytes()
        arrays = read_artifact(tmp_path / name)
        assert service.graph.nodes == list(range(32))  # index == node id
        arrays.update(
            set_ptr=np.array([0, 1]), path_ptr=np.array([0, 2]), nodes=np.array([8, 20])
        )
        tamper(arrays)
        write_artifact(tmp_path / name, arrays)
        PersistentCache.clear_shared()
        fresh = PathService.from_network(network, cache_dir=str(tmp_path))
        fresh.view(4).prepare([(8, 20)])
        assert fresh.view(4).paths(8, 20) == expected != [(8, 20)]
        assert (tmp_path / name).read_bytes() == good

    def test_trusted_tamper_would_be_served(self, tmp_path):
        """The tamper tests are not vacuous: the same replaced set with
        nothing else changed is a valid artifact, and it is served."""
        network = isp_topology().build_network(default_capacity=100.0)
        service = PathService.from_network(network, cache_dir=str(tmp_path))
        service.view(4).prepare([(8, 20)])
        (name,) = os.listdir(tmp_path)
        arrays = read_artifact(tmp_path / name)
        arrays.update(
            set_ptr=np.array([0, 1]), path_ptr=np.array([0, 2]), nodes=np.array([8, 20])
        )
        write_artifact(tmp_path / name, arrays)
        PersistentCache.clear_shared()
        fresh = PathService.from_network(network, cache_dir=str(tmp_path))
        fresh.view(4).provider = _Boom()
        assert fresh.view(4).paths(8, 20) == [(8, 20)]

    def test_schema1_json_artifact_is_replaced(self, tmp_path):
        """A JSON artifact of the previous format is never read: its pairs
        are recomputed, and the flush writes the archive and removes it."""
        network = isp_topology().build_network(default_capacity=100.0)
        view = PathService.from_network(network).view(4)
        expected = view.paths(8, 20)
        legacy = tmp_path / f"paths-{view.key}.json"
        legacy.write_text(
            json.dumps({"schema": 1, "key": view.key, "pairs": [[8, 20, [[8, 20]]]]})
        )
        PersistentCache.clear_shared()
        fresh = PathService.from_network(network, cache_dir=str(tmp_path))
        fresh.view(4).prepare([(8, 20)])
        assert fresh.view(4).paths(8, 20) == expected != [(8, 20)]
        assert os.listdir(tmp_path) == [f"paths-{view.key}.npz"]

    @settings(max_examples=60, deadline=None)
    @given(
        cut=st.one_of(st.none(), st.integers(min_value=0)),
        flips=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4
        ),
    )
    def test_fuzzed_artifact_never_breaks_a_run(self, cut, flips):
        """Truncated or byte-garbled artifacts: loading never raises, the
        pairs served are the discovered ones, and the file left behind
        serves them without discovery."""
        pairs = [(8, 20), (9, 21), (10, 31), (31, 2)]
        network = isp_topology().build_network(default_capacity=100.0)
        with tempfile.TemporaryDirectory() as directory:
            PersistentCache.clear_shared()
            service = PathService.from_network(network, cache_dir=directory)
            service.view(4).prepare(pairs)
            expected = service.view(4).paths_many(pairs)
            (name,) = os.listdir(directory)
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                blob = bytearray(handle.read())
            if cut is not None:
                del blob[cut % len(blob) :]
            for position, value in flips:
                if blob:
                    blob[position % len(blob)] = value
            with open(path, "wb") as handle:
                handle.write(blob)
            PersistentCache.clear_shared()
            fresh = PathService.from_network(network, cache_dir=directory)
            fresh.view(4).prepare(pairs)
            assert fresh.view(4).paths_many(pairs) == expected
            PersistentCache.clear_shared()
            warm = PathService.from_network(network, cache_dir=directory)
            warm.view(4).provider = _Boom()
            assert warm.view(4).paths_many(pairs) == expected
        PersistentCache.clear_shared()

    def test_truncated_artifact_recomputed(self, tmp_path):
        network = isp_topology().build_network(default_capacity=100.0)
        service = PathService.from_network(network, cache_dir=str(tmp_path))
        service.view(4).prepare([(8, 20)])
        (name,) = os.listdir(tmp_path)
        blob = (tmp_path / name).read_bytes()
        (tmp_path / name).write_bytes(blob[: len(blob) // 2])
        PersistentCache.clear_shared()
        fresh = PathService.from_network(network, cache_dir=str(tmp_path))
        fresh.view(4).prepare([(8, 20)])
        assert (tmp_path / name).read_bytes() == blob

    def test_artifact_path_over_missing_channel_fails_in_prepare(self, tmp_path):
        """A well-formed artifact is trusted as far as discovery goes, but
        every path it serves is validated when ``prepare()`` compiles it:
        a hop without a channel is a named error there, not mid-run."""
        config = ExperimentConfig(
            scheme="spider-waterfilling",
            topology="ripple-tiny",
            capacity=200.0,
            num_transactions=40,
            arrival_rate=50.0,
            seed=13,
        )
        SimulationSession.from_config(config, path_cache_dir=str(tmp_path)).prepare()
        (name,) = os.listdir(tmp_path)
        arrays = read_artifact(tmp_path / name)
        set_ptr, path_ptr, nodes = (
            arrays[field] for field in ("set_ptr", "path_ptr", "nodes")
        )
        # The first path with an intermediate node: no channel joins its
        # endpoints directly.  Cut it down to those two endpoints.
        first = set_ptr[:-1][np.diff(set_ptr) > 0]
        path = next(int(p) for p in first if path_ptr[p + 1] - path_ptr[p] > 2)
        lo, hi = path_ptr[path], path_ptr[path + 1]
        arrays["nodes"] = np.concatenate((nodes[: lo + 1], nodes[hi - 1 :]))
        arrays["path_ptr"] = np.concatenate(
            (path_ptr[: path + 1], path_ptr[path + 1 :] - (hi - lo - 2))
        )
        write_artifact(tmp_path / name, arrays)
        PersistentCache.clear_shared()
        session = SimulationSession.from_config(config, path_cache_dir=str(tmp_path))
        with pytest.raises(TopologyError, match="no channel between"):
            session.prepare()

    def test_cold_vs_warm_metrics_byte_identical(self, tmp_path):
        """A run that loads every pair set from disk reproduces the cold
        run's metrics JSON byte for byte."""
        config = ExperimentConfig(
            scheme="spider-waterfilling",
            topology="ripple-tiny",
            capacity=200.0,
            num_transactions=120,
            arrival_rate=50.0,
            seed=13,
        )
        cold = metrics_to_json(
            run_experiment(config, path_cache_dir=str(tmp_path))
        )
        assert any(f.startswith("paths-") for f in os.listdir(tmp_path))
        PersistentCache.clear_shared()
        warm = metrics_to_json(
            run_experiment(config, path_cache_dir=str(tmp_path))
        )
        assert cold.encode() == warm.encode()
        # And both equal the uncached run.
        PersistentCache.clear_shared()
        assert metrics_to_json(run_experiment(config)).encode() == cold.encode()


class TestSweepPrecompute:
    def test_executor_precomputes_and_reuses_artifacts(self, tmp_path):
        base = ExperimentConfig(
            scheme="spider-waterfilling",
            topology="ripple-tiny",
            capacity=200.0,
            num_transactions=80,
            arrival_rate=50.0,
            seed=7,
        )
        executor = SweepExecutor(base, processes=1, cache_dir=str(tmp_path))
        assert executor.path_cache_dir == os.path.join(str(tmp_path), "paths")
        results = executor.parameter_sweep(
            "capacity", [150.0, 250.0], ["spider-waterfilling"]
        )
        assert len(results) == 2
        paths_dir = tmp_path / "paths"
        assert any(f.startswith("paths-") for f in os.listdir(paths_dir))

        # A fresh executor over the same grid: cells come from the JSON
        # cache, and a widened grid's new cell loads paths from disk.
        PersistentCache.clear_shared()
        second = SweepExecutor(base, processes=1, cache_dir=str(tmp_path))
        widened = second.parameter_sweep(
            "capacity", [150.0, 250.0, 350.0], ["spider-waterfilling"]
        )
        assert second.cache_hits == 2 and second.cache_misses == 1
        for key, metrics in results.items():
            assert metrics_to_json(widened[key]) == metrics_to_json(metrics)


class TestDiscoveryModeDeterminism:
    @pytest.mark.parametrize(
        "scheme",
        ["spider-waterfilling", "spider-lp", "silentwhispers", "spider-queueing"],
    )
    def test_metrics_byte_identical_with_the_per_pair_loops(self, scheme):
        """A run whose discovery goes through the per-pair loops — the k
        edge-disjoint loop for every CSR batch, two BFS per (pair,
        landmark) for the landmark legs — reproduces the kernels' run
        byte for byte."""
        config = ExperimentConfig(
            scheme=scheme,
            topology="ripple-tiny",
            capacity=200.0,
            num_transactions=100,
            arrival_rate=50.0,
            seed=29,
        )
        kernels = metrics_to_json(run_experiment(config))
        PersistentCache.clear_shared()
        calls = []

        def per_pair_disjoint(self, pairs):
            graph = self._graph
            adjacency = {
                node: [graph.nodes[j] for j in graph.indices[lo:hi]]
                for node, lo, hi in zip(graph.nodes, graph.indptr, graph.indptr[1:])
            }
            calls.append(len(pairs))
            return path_columns(disjoint_oracle(adjacency, self._k, pairs), graph)

        def per_pair_landmarks(self, source, dest):
            calls.append(1)
            return legacy_landmark_paths(
                self._service.sorted_adjacency(), self.landmarks, source, dest
            )

        with mock.patch.object(
            CsrDisjointProvider, "columns", per_pair_disjoint
        ), mock.patch.object(LandmarkProvider, "paths", per_pair_landmarks):
            loops = metrics_to_json(run_experiment(config))
        assert calls  # the run discovered through the loops
        assert kernels.encode() == loops.encode()


class TestRepeatRunSharing:
    def test_second_run_reuses_pair_sets(self):
        """Identical topology ⇒ the second run never re-discovers (the
        fix for per-run duplicated path work)."""
        config = ExperimentConfig(
            scheme="spider-waterfilling",
            topology="ripple-tiny",
            capacity=200.0,
            num_transactions=60,
            arrival_rate=50.0,
            seed=3,
        )
        first = metrics_to_json(run_experiment(config))
        store_sizes = {
            key: len(pairs) for key, pairs in PersistentCache._shared.items()
        }
        assert store_sizes  # discovery went through the shared store

        with mock.patch.object(
            CsrDisjointProvider, "columns", autospec=True
        ) as discover:  # every search of the cache goes through it
            second = metrics_to_json(run_experiment(config))
        assert not discover.called  # every pair served from the shared store
        assert first.encode() == second.encode()
