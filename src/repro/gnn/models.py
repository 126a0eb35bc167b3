"""GNN encoders and task heads used by Lumos and all baselines.

The paper's configuration: 2 message-passing layers, hidden and output
dimension 16, ReLU + dropout(0.01) between layers, GAT with 4 attention
heads; decoders are a linear layer + softmax for node classification
(Eq. 32) and an inner-product + sigmoid for link prediction (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..graph.sparse import symmetric_normalize
from ..nn import functional as F
from ..nn.edges import EdgeStructure
from ..nn.layers import Dropout, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .gat import GATLayer
from .gcn import GCNLayer

BackboneName = Literal["gcn", "gat"]


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of a GNN encoder (defaults follow the paper)."""

    backbone: str = "gcn"
    num_layers: int = 2
    hidden_dim: int = 16
    output_dim: int = 16
    dropout: float = 0.01
    num_heads: int = 4

    def __post_init__(self) -> None:
        if self.backbone not in ("gcn", "gat"):
            raise ValueError(f"unknown backbone '{self.backbone}'")
        if self.num_layers < 1:
            raise ValueError("encoder needs at least one layer")


class GraphInput:
    """Bundle of the constant graph structure consumed by an encoder.

    ``adjacency`` is the GCN propagation matrix; ``edge_index`` (with self
    loops) drives the GAT layers.  Both describe the *same* graph.
    """

    def __init__(self, adjacency: sp.spmatrix, edge_index: np.ndarray) -> None:
        self.adjacency = adjacency.tocsr()
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        self._edge_structure: Optional[EdgeStructure] = None

    @property
    def num_nodes(self) -> int:
        return int(self.adjacency.shape[0])

    def edge_structure(self) -> EdgeStructure:
        """The GAT layers' prepared :class:`EdgeStructure`, built (and the
        edge index validated) on first use and reused by every forward."""
        if self._edge_structure is None:
            self._edge_structure = EdgeStructure(self.edge_index, self.num_nodes)
        return self._edge_structure

    @classmethod
    def from_graph(cls, graph) -> "GraphInput":
        """Build the propagation structures from a :class:`repro.graph.Graph`."""
        adjacency = symmetric_normalize(graph.adjacency(), self_loops=True)
        edge_index = graph.directed_edge_index(add_self_loops=True)
        return cls(adjacency, edge_index)

    @classmethod
    def from_adjacency(cls, adjacency: sp.spmatrix) -> "GraphInput":
        """Build from a raw (unnormalised) adjacency matrix."""
        adjacency = adjacency.tocsr()
        coo = adjacency.tocoo()
        n = adjacency.shape[0]
        src = np.concatenate([coo.col, np.arange(n)])
        dst = np.concatenate([coo.row, np.arange(n)])
        return cls(symmetric_normalize(adjacency, self_loops=True), np.stack([src, dst]))


class GNNEncoder(Module):
    """Stack of GCN or GAT layers producing node embeddings (paper Eq. 1-2)."""

    def __init__(
        self,
        in_features: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.in_features = in_features
        rng = rng if rng is not None else np.random.default_rng()

        dims: List[int] = [in_features]
        dims += [config.hidden_dim] * (config.num_layers - 1)
        dims += [config.output_dim]

        self._layer_names: List[str] = []
        for index in range(config.num_layers):
            is_last = index == config.num_layers - 1
            if config.backbone == "gcn":
                layer: Module = GCNLayer(dims[index], dims[index + 1], rng=rng)
            else:
                if is_last:
                    layer = GATLayer(
                        dims[index], dims[index + 1], num_heads=config.num_heads,
                        concat_heads=False, rng=rng,
                    )
                else:
                    # Hidden GAT layers concatenate heads; keep the overall
                    # hidden width equal to hidden_dim by splitting it.
                    per_head = max(1, dims[index + 1] // config.num_heads)
                    layer = GATLayer(
                        dims[index], per_head, num_heads=config.num_heads,
                        concat_heads=True, rng=rng,
                    )
                    dims[index + 1] = per_head * config.num_heads
            name = f"layer_{index}"
            self.add_module(name, layer)
            self._layer_names.append(name)
        self.dropout = Dropout(config.dropout, rng=rng)
        self.output_dim = dims[-1]

    def _apply_layer(
        self, layer: Module, hidden: Tensor, graph_input: GraphInput, activation=None
    ) -> Tensor:
        if isinstance(layer, GCNLayer):
            return layer(hidden, graph_input.adjacency, activation=activation)
        return layer(hidden, graph_input.edge_structure(), activation=activation)

    @property
    def final_layer(self) -> Module:
        """The last message-passing layer (foldable with pooling for GCN)."""
        return self._modules[self._layer_names[-1]]

    def forward_hidden(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Run every layer but the last (relu + dropout after each).

        The Lumos model uses this to take over the final layer itself when it
        can fold that layer's propagation with the mean-pool operator.
        """
        hidden = features
        for name in self._layer_names[:-1]:
            hidden = self._apply_layer(
                self._modules[name], hidden, graph_input, activation="relu"
            )
            hidden = self.dropout(hidden)
        return hidden

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Encode all nodes of the graph described by ``graph_input``."""
        hidden = self.forward_hidden(features, graph_input)
        return self._apply_layer(self.final_layer, hidden, graph_input)


class NodeClassifier(Module):
    """Encoder + linear READ-out for supervised node classification (Eq. 32)."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.encoder = GNNEncoder(in_features, config, rng=rng)
        self.head = Linear(self.encoder.output_dim, num_classes, rng=rng)

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Return class logits for every node."""
        return self.head(self.encoder(features, graph_input))

    def predict(self, features: Tensor, graph_input: GraphInput) -> np.ndarray:
        """Return the arg-max class prediction per node."""
        logits = self.forward(features, graph_input)
        return np.argmax(logits.data, axis=1)


class LinkPredictor(Module):
    """Encoder + inner-product decoder for link prediction (Eq. 4)."""

    def __init__(
        self,
        in_features: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.encoder = GNNEncoder(in_features, config, rng=rng)

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Return node embeddings."""
        return self.encoder(features, graph_input)

    def score_pairs(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        """Return logits (inner products) for the vertex ``pairs`` (shape (P, 2))."""
        pairs = np.asarray(pairs, dtype=np.int64)
        left = F.gather(embeddings, pairs[:, 0])
        right = F.gather(embeddings, pairs[:, 1])
        return (left * right).sum(axis=-1)

    def predict_proba(self, embeddings: Tensor, pairs: np.ndarray) -> np.ndarray:
        """Return edge-existence probabilities for ``pairs``."""
        return self.score_pairs(embeddings, pairs).sigmoid().data


def build_edge_index(adjacency: sp.spmatrix, add_self_loops: bool = True) -> np.ndarray:
    """Return a ``(2, E)`` directed edge index from a sparse adjacency."""
    coo = adjacency.tocoo()
    src = coo.col
    dst = coo.row
    if add_self_loops:
        n = adjacency.shape[0]
        src = np.concatenate([src, np.arange(n)])
        dst = np.concatenate([dst, np.arange(n)])
    return np.stack([src, dst]).astype(np.int64)
