"""Tests for topology serialisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, TopologyError
from repro.topology.base import Topology
from repro.topology.io import dump_topology, dumps_topology, load_topology, loads_topology


@pytest.fixture
def topo() -> Topology:
    return Topology("demo", [0, 1, 2], [(0, 1), (1, 2)], capacities={(0, 1): 30.5})


class TestRoundtrip:
    def test_string_roundtrip(self, topo):
        parsed = loads_topology(dumps_topology(topo))
        assert parsed.name == topo.name
        assert parsed.nodes == topo.nodes
        assert parsed.edges == topo.edges
        assert parsed.capacities == topo.capacities

    def test_file_roundtrip(self, topo, tmp_path):
        path = tmp_path / "topo.txt"
        dump_topology(topo, path)
        parsed = load_topology(path)
        assert parsed.edges == topo.edges

    def test_comments_and_blanks_ignored(self):
        text = """
        # a comment
        topology c
        node 0
        node 1
        edge 0 1  # trailing comment
        """
        parsed = loads_topology(text)
        assert parsed.num_edges == 1

    def test_edges_without_capacity(self):
        parsed = loads_topology("topology x\nnode 0\nnode 1\nedge 0 1\n")
        assert parsed.capacities == {}


class TestErrors:
    def test_unknown_directive_rejected(self):
        with pytest.raises(TopologyError):
            loads_topology("frobnicate 1 2\n")

    def test_malformed_edge_rejected(self):
        with pytest.raises(TopologyError):
            loads_topology("node 0\nedge 0\n")

    def test_non_numeric_node_rejected(self):
        with pytest.raises(TopologyError):
            loads_topology("node zero\n")

    @pytest.mark.parametrize("capacity", ["nan", "-3", "0", "inf", "-inf", "1e999"])
    def test_bad_capacity_rejected_with_its_line(self, capacity):
        text = f"node 1\nnode 2\nedge 1 2 {capacity}\n"
        with pytest.raises(TopologyError, match="^line 3: capacity must be positive"):
            loads_topology(text)

    @pytest.mark.parametrize(
        "second", ["edge 2 1 7.0", "edge 1 2 7.0", "edge 2 1"], ids=["reverse", "same", "bare"]
    )
    def test_conflicting_edge_lines_rejected(self, second):
        text = f"node 1\nnode 2\nedge 1 2 5.0\n{second}\n"
        with pytest.raises(TopologyError, match="^line 4: edge .* conflicts with line 3"):
            loads_topology(text)

    def test_agreeing_repeats_still_load(self):
        parsed = loads_topology("node 1\nnode 2\nedge 1 2 5.0\nedge 2 1 5.0\n")
        assert parsed.edges == [(1, 2)]
        assert parsed.capacities == {(1, 2): 5.0}


_TOKENS = st.sampled_from(
    ["topology", "node", "edge", "0", "1", "2", "-1", "1.5", "nan", "inf",
     "-3", "0.0", "1e999", "x", "#", "99999999999999999999"]
)
_NUMBER = st.sampled_from(["0", "1", "2", "1.5", "nan", "inf", "-3", "0.0", "1e999", "x"])
_LINE = st.one_of(
    st.lists(_TOKENS, max_size=5).map(" ".join),
    st.tuples(st.just("node"), _NUMBER).map(" ".join),
    st.tuples(st.just("edge"), _NUMBER, _NUMBER).map(" ".join),
    st.tuples(st.just("edge"), _NUMBER, _NUMBER, _NUMBER).map(" ".join),
)
_LINES = st.lists(_LINE, max_size=12).map("\n".join)
#: Declared nodes, so that edge lines get as far as their capacity.
_EDGES = st.lists(
    st.tuples(
        st.sampled_from("012"), st.sampled_from("012"), st.one_of(st.just(""), _NUMBER)
    ).map(lambda edge: "edge " + " ".join(edge)),
    max_size=6,
).map(lambda lines: "\n".join(["node 0", "node 1", "node 2", *lines]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_LINES, _EDGES, st.binary(max_size=200).map(lambda b: b.decode("latin-1"))))
def test_any_text_loads_and_builds_or_raises_a_repro_error(text):
    """Whatever the bytes, the reader either yields a topology whose
    network builds, or raises one of the package's own errors."""
    try:
        topology = loads_topology(text)
    except ReproError:
        return
    network = topology.build_network(default_capacity=10.0)
    assert network.num_channels == topology.num_edges
