"""Numpy-based neural network substrate (autograd, layers, optimizers).

This subpackage replaces the PyTorch dependency of the original Lumos
implementation.  It is intentionally small but complete for the needs of the
paper: dense/sparse linear algebra with reverse-mode autodiff, GNN-oriented
scatter/gather primitives, Glorot initialisation, dropout, Adam/SGD and the
supervised / unsupervised losses used in the evaluation.
"""

from . import functional
from . import init
from .backend import (
    OpsBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from .layers import MLP, Dropout, LeakyReLU, Linear, ReLU, Sigmoid, Tanh
from .loss import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    link_prediction_loss,
    mse_loss,
    nll_loss,
)
from .module import Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .tensor import Tensor, as_tensor, concat, no_grad, ones, stack, zeros

__all__ = [
    "functional",
    "init",
    "OpsBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "zeros",
    "ones",
    "no_grad",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "cross_entropy",
    "nll_loss",
    "binary_cross_entropy_with_logits",
    "link_prediction_loss",
    "mse_loss",
]
