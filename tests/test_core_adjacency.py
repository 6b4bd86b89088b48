"""Tests of the adjacency-matrix skip encoding (paper Eq. 1)."""

import networkx as nx
import numpy as np
import pytest

from repro.core.adjacency import ASC, DSC, NO_CONNECTION, BlockAdjacency, connection_name


class TestConstruction:
    def test_empty_block_has_no_skips(self):
        block = BlockAdjacency(4)
        assert block.total_skips() == 0
        assert block.num_skips_per_layer() == [0, 0, 0, 0]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            BlockAdjacency(0)

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            BlockAdjacency(3, matrix=np.zeros((3, 3)))

    def test_invalid_code_rejected(self):
        matrix = np.zeros((5, 5), dtype=int)
        matrix[0, 2] = 7
        with pytest.raises(ValueError):
            BlockAdjacency(4, matrix=matrix)

    def test_backward_connection_rejected(self):
        matrix = np.zeros((5, 5), dtype=int)
        matrix[3, 1] = ASC
        with pytest.raises(ValueError):
            BlockAdjacency(4, matrix=matrix)

    def test_sequential_position_rejected(self):
        matrix = np.zeros((5, 5), dtype=int)
        matrix[1, 2] = DSC  # j == i + 1 is the fixed sequential edge
        with pytest.raises(ValueError):
            BlockAdjacency(4, matrix=matrix)

    def test_connection_name(self):
        assert connection_name(NO_CONNECTION) == "none"
        assert connection_name(DSC) == "dsc"
        assert connection_name(ASC) == "asc"
        with pytest.raises(ValueError):
            connection_name(5)


class TestSkipSemantics:
    def test_skip_positions_match_paper_example(self):
        """Second layer can have at most 1 skip; fourth layer at most 3 (Section III-A)."""
        block = BlockAdjacency(4)
        per_destination = {}
        for i, j in block.skip_positions():
            per_destination.setdefault(j, []).append(i)
        assert 1 not in per_destination            # first layer: no possible skips
        assert len(per_destination[2]) == 1        # second layer
        assert len(per_destination[3]) == 2        # third layer
        assert len(per_destination[4]) == 3        # fourth layer

    def test_max_skips(self):
        assert BlockAdjacency(4).max_skips() == 6
        assert BlockAdjacency(2).max_skips() == 1
        assert BlockAdjacency(1).max_skips() == 0

    def test_sources_of(self):
        block = BlockAdjacency(4).with_connection(0, 3, DSC).with_connection(1, 3, ASC)
        assert block.sources_of(2) == [(0, DSC), (1, ASC)]
        assert block.sources_of(0) == []
        with pytest.raises(IndexError):
            block.sources_of(4)

    def test_count_by_type(self):
        block = BlockAdjacency(4).with_connection(0, 2, DSC).with_connection(0, 4, ASC).with_connection(1, 4, ASC)
        counts = block.count_by_type()
        assert counts[DSC] == 1 and counts[ASC] == 2

    def test_with_connection_returns_copy(self):
        original = BlockAdjacency(4)
        modified = original.with_connection(0, 2, DSC)
        assert original.total_skips() == 0
        assert modified.total_skips() == 1

    def test_with_connection_invalid_position(self):
        block = BlockAdjacency(4)
        with pytest.raises(ValueError):
            block.with_connection(0, 1, DSC)
        with pytest.raises(ValueError):
            block.with_connection(2, 9, DSC)
        with pytest.raises(ValueError):
            block.with_connection(0, 2, 9)


class TestFactories:
    def test_fully_connected_dsc_is_densenet(self):
        block = BlockAdjacency.fully_connected(4, code=DSC)
        assert block.total_skips() == block.max_skips() == 6
        assert block.count_by_type()[DSC] == 6

    def test_with_final_layer_skips_counts(self):
        for n in range(4):
            block = BlockAdjacency.with_final_layer_skips(4, n, ASC)
            assert block.num_skips_per_layer() == [0, 0, 0, n]

    def test_with_final_layer_skips_clamps(self):
        block = BlockAdjacency.with_final_layer_skips(4, 10, DSC)
        assert block.num_skips_per_layer()[-1] == 3

    def test_with_final_layer_prefers_recent_sources(self):
        block = BlockAdjacency.with_final_layer_skips(4, 1, ASC)
        assert block.sources_of(3) == [(2, ASC)]

    def test_with_total_skips(self):
        block = BlockAdjacency.with_total_skips(4, 3, DSC, rng=0)
        assert block.total_skips() == 3
        assert block.count_by_type()[DSC] == 3

    def test_random_density_extremes(self):
        assert BlockAdjacency.random(4, rng=0, density=0.0).total_skips() == 0
        assert BlockAdjacency.random(4, rng=0, density=1.0).total_skips() == 6

    def test_random_respects_allowed_types(self):
        block = BlockAdjacency.random(4, rng=0, density=1.0, allowed=(ASC,))
        assert block.count_by_type()[DSC] == 0
        assert block.count_by_type()[ASC] == 6


class TestEncoding:
    def test_encode_length(self):
        assert BlockAdjacency(4).encoding_length() == 6
        assert BlockAdjacency(3).encoding_length() == 3

    def test_encode_decode_roundtrip(self):
        block = BlockAdjacency.random(4, rng=3, density=0.7)
        decoded = BlockAdjacency.from_encoding(4, block.encode())
        assert decoded == block

    def test_from_encoding_validates_length_and_codes(self):
        with pytest.raises(ValueError):
            BlockAdjacency.from_encoding(4, [0, 1])
        with pytest.raises(ValueError):
            BlockAdjacency.from_encoding(2, [9])

    def test_equality_and_hash(self):
        a = BlockAdjacency(3).with_connection(0, 2, DSC)
        b = BlockAdjacency(3).with_connection(0, 2, DSC)
        c = BlockAdjacency(3).with_connection(0, 2, ASC)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_copy_is_deep(self):
        a = BlockAdjacency(3)
        b = a.copy()
        b.matrix[0, 2] = DSC
        assert a.total_skips() == 0


class TestGraphExport:
    def test_networkx_nodes_and_sequential_edges(self):
        graph = BlockAdjacency(4).to_networkx()
        assert graph.number_of_nodes() == 5
        assert all(graph.has_edge(i, i + 1) for i in range(4))

    def test_networkx_skip_edges_labelled(self):
        block = BlockAdjacency(4).with_connection(0, 3, DSC)
        graph = block.to_networkx()
        assert graph.edges[0, 3]["kind"] == "dsc"

    def test_always_acyclic(self):
        for seed in range(5):
            assert BlockAdjacency.random(5, rng=seed, density=0.8).is_acyclic()

    @pytest.mark.parametrize("entry", [(3, 1), (4, 0), (2, 2)])
    def test_backward_edge_or_self_loop_is_a_cycle(self, entry):
        """A backward entry written past validate() closes a cycle with the
        sequential path, and is_acyclic() must say so."""
        block = BlockAdjacency.fully_connected(4, code=ASC)
        block.matrix[entry] = DSC
        assert not block.is_acyclic()
        block.matrix[entry] = NO_CONNECTION
        assert block.is_acyclic()

    def test_longest_path_grows_with_depth(self):
        graph = BlockAdjacency(6).to_networkx()
        assert nx.dag_longest_path_length(graph) == 6


class TestNeighbors:
    def test_neighbor_count(self):
        block = BlockAdjacency(3)  # 3 positions x 2 alternative codes each
        assert sum(1 for _ in block.neighbors()) == 6

    def test_neighbors_differ_in_exactly_one_entry(self):
        block = BlockAdjacency.random(4, rng=1, density=0.5)
        for neighbor in block.neighbors():
            assert int(np.sum(neighbor.encode() != block.encode())) == 1
