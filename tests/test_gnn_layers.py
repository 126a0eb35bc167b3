"""Tests for the GCN / GAT layers, encoders, task heads and pooling."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    EdgeStructure,
    EncoderConfig,
    GATLayer,
    GCNLayer,
    GNNEncoder,
    GraphInput,
    LinkPredictor,
    NodeClassifier,
    build_edge_index,
    get_pooling,
    max_pool,
    mean_pool,
    sum_pool,
)
from repro.graph import Graph, generate_small_world, split_nodes
from repro.graph.sparse import symmetric_normalize
from repro.nn import Adam, Tensor, cross_entropy, use_backend


def path_graph() -> Graph:
    return Graph(
        num_nodes=4,
        edges=np.array([[0, 1], [1, 2], [2, 3]]),
        features=np.eye(4),
        labels=np.array([0, 0, 1, 1]),
    )


class TestGCNLayer:
    def test_output_shape(self):
        graph = path_graph()
        adjacency = symmetric_normalize(graph.adjacency())
        layer = GCNLayer(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), adjacency)
        assert out.shape == (4, 3)

    def test_identity_adjacency_reduces_to_linear(self):
        layer = GCNLayer(3, 2, rng=np.random.default_rng(0))
        features = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        identity = sp.eye(5, format="csr")
        out = layer(features, identity)
        expected = features.data @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_message_passing_mixes_neighbours(self):
        # With one-hot features, a node's output depends on its neighbours.
        graph = path_graph()
        adjacency = symmetric_normalize(graph.adjacency())
        layer = GCNLayer(4, 4, bias=False, rng=np.random.default_rng(0))
        layer.weight.data = np.eye(4)
        out = layer(Tensor(graph.features), adjacency).data
        assert out[1, 0] > 0  # node 1 received mass from node 0
        assert out[3, 0] == pytest.approx(0.0)  # node 3 is two hops from node 0

    def test_gradients_flow_to_weights(self):
        graph = path_graph()
        adjacency = symmetric_normalize(graph.adjacency())
        layer = GCNLayer(4, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), adjacency)
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_shape_mismatch_raises(self):
        layer = GCNLayer(4, 2)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((3, 4))), sp.eye(5, format="csr"))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            GCNLayer(0, 3)


class TestGATLayer:
    def _edge_index(self, graph: Graph) -> np.ndarray:
        return graph.directed_edge_index(add_self_loops=True)

    def test_output_shape_concat(self):
        graph = path_graph()
        layer = GATLayer(4, 3, num_heads=2, concat_heads=True, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        assert out.shape == (4, 6)
        assert layer.output_dim == 6

    def test_output_shape_average(self):
        graph = path_graph()
        layer = GATLayer(4, 3, num_heads=4, concat_heads=False, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        assert out.shape == (4, 3)

    def test_isolated_node_with_self_loop_is_finite(self):
        features = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        edge_index = np.array([[0, 1, 2], [0, 1, 2]])  # only self loops
        layer = GATLayer(4, 2, num_heads=2, rng=np.random.default_rng(1))
        out = layer(features, edge_index)
        assert np.all(np.isfinite(out.data))

    def test_gradients_flow_to_attention_parameters(self):
        graph = path_graph()
        layer = GATLayer(4, 2, num_heads=2, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        out.sum().backward()
        assert layer.attention_src.grad is not None
        assert layer.attention_dst.grad is not None
        assert layer.weight.grad is not None

    def test_edge_index_validation(self):
        layer = GATLayer(4, 2)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((3, 4))), np.ones((3, 3)))

    @pytest.mark.parametrize(
        "edge_index",
        [
            np.array([[0, -1, 2], [1, 2, 0]]),  # negative source
            np.array([[0, 1, 2], [1, -2, 0]]),  # negative destination
            np.array([[0, 1, 3], [1, 2, 0]]),  # index >= num_nodes
            np.array([[0, 1, 2]]),  # wrong shape
            np.array([[0.0, 1.0], [1.0, 0.0]]),  # non-integer dtype
        ],
        ids=["negative-src", "negative-dst", "out-of-range", "shape", "dtype"],
    )
    def test_invalid_edge_index_raises(self, edge_index):
        # A negative index used to wrap around to the last node silently.
        layer = GATLayer(4, 2, num_heads=2)
        for backend in ("numpy", "reference"):
            with use_backend(backend), pytest.raises(ValueError):
                layer(Tensor(np.ones((3, 4))), edge_index)

    def test_edge_structure_must_match_feature_rows(self):
        layer = GATLayer(4, 2, num_heads=2)
        edges = EdgeStructure(np.array([[0, 1], [1, 0]]), num_nodes=2)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((3, 4))), edges)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            GATLayer(4, 2, num_heads=0)


class TestEncodersAndHeads:
    def test_encoder_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(backbone="sage")
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=0)

    @pytest.mark.parametrize("backbone", ["gcn", "gat"])
    def test_encoder_output_dimension(self, backbone):
        graph = path_graph()
        encoder = GNNEncoder(4, EncoderConfig(backbone=backbone, hidden_dim=8, output_dim=6),
                             rng=np.random.default_rng(0))
        out = encoder(Tensor(graph.features), GraphInput.from_graph(graph))
        assert out.shape == (4, 6)

    def test_graph_input_from_adjacency(self):
        graph = path_graph()
        graph_input = GraphInput.from_adjacency(graph.adjacency())
        assert graph_input.num_nodes == 4
        assert graph_input.edge_index.shape[0] == 2

    def test_graph_input_validation(self):
        with pytest.raises(ValueError):
            GraphInput(sp.eye(3, format="csr"), np.ones((3, 2)))

    def test_build_edge_index_self_loops(self):
        graph = path_graph()
        index = build_edge_index(graph.adjacency(), add_self_loops=True)
        assert index.shape[1] == 2 * graph.num_edges + graph.num_nodes

    @pytest.mark.parametrize("backbone", ["gcn", "gat"])
    def test_node_classifier_learns_small_graph(self, backbone):
        from repro.graph import generate_facebook_like

        graph = generate_facebook_like(seed=0, num_nodes=150)
        split = split_nodes(graph, seed=0)
        model = NodeClassifier(graph.num_features, graph.num_classes,
                               EncoderConfig(backbone=backbone), rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=0.05)
        graph_input = GraphInput.from_graph(graph)
        tensor = Tensor(graph.features)
        for _ in range(60):
            model.train()
            loss = cross_entropy(model(tensor, graph_input), graph.labels, mask=split.train_mask)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        model.eval()
        predictions = model.predict(tensor, graph_input)
        accuracy = (predictions[split.test_mask] == graph.labels[split.test_mask]).mean()
        assert accuracy > 0.7

    def test_link_predictor_scores_and_probabilities(self):
        graph = path_graph()
        model = LinkPredictor(4, EncoderConfig(), rng=np.random.default_rng(0))
        embeddings = model(Tensor(graph.features), GraphInput.from_graph(graph))
        pairs = np.array([[0, 1], [0, 3]])
        scores = model.score_pairs(embeddings, pairs)
        assert scores.shape == (2,)
        probabilities = model.predict_proba(embeddings, pairs)
        assert np.all((probabilities >= 0) & (probabilities <= 1))


class TestPooling:
    def test_mean_pool(self):
        embeddings = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = mean_pool(embeddings, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [10.0]])

    def test_sum_pool(self):
        embeddings = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = sum_pool(embeddings, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[6.0], [10.0]])

    def test_max_pool_forward_and_backward(self):
        embeddings = Tensor(np.array([[2.0, 1.0], [4.0, 0.5], [10.0, -1.0]]), requires_grad=True)
        out = max_pool(embeddings, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[4.0, 1.0], [10.0, -1.0]])
        out.sum().backward()
        np.testing.assert_allclose(embeddings.grad, [[0, 1], [1, 0], [1, 1]])

    def test_mean_pool_empty_segment_is_zero(self):
        embeddings = Tensor(np.array([[2.0]]))
        out = mean_pool(embeddings, np.array([1]), 3)
        np.testing.assert_allclose(out.data, [[0.0], [2.0], [0.0]])

    def test_mean_pool_gradient_splits_equally(self):
        embeddings = Tensor(np.ones((4, 2)), requires_grad=True)
        out = mean_pool(embeddings, np.array([0, 0, 0, 1]), 2)
        out.sum().backward()
        np.testing.assert_allclose(embeddings.grad, [[1 / 3] * 2] * 3 + [[1.0] * 2])

    def test_get_pooling_lookup(self):
        assert get_pooling("mean") is mean_pool
        with pytest.raises(KeyError):
            get_pooling("median")
