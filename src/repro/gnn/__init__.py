"""GNN layers (GCN, GAT), encoders, task heads and pooling functions."""

from ..nn.edges import EdgeStructure
from .gat import GATLayer
from .gcn import GCNLayer
from .models import (
    EncoderConfig,
    GNNEncoder,
    GraphInput,
    LinkPredictor,
    NodeClassifier,
    build_edge_index,
)
from .pooling import POOLING_FUNCTIONS, get_pooling, max_pool, mean_pool, sum_pool

__all__ = [
    "GCNLayer",
    "GATLayer",
    "EdgeStructure",
    "EncoderConfig",
    "GraphInput",
    "GNNEncoder",
    "NodeClassifier",
    "LinkPredictor",
    "build_edge_index",
    "mean_pool",
    "sum_pool",
    "max_pool",
    "get_pooling",
    "POOLING_FUNCTIONS",
]
