"""The benchmark's four workloads: inputs from a seed, one job, its checks.

A job is one closed-loop request: the harness sends the next job only when
the previous one has returned.  Every job calls stable public entry points
only (the ``repro.eval.runner`` functions behind ``repro-figures``,
``LumosSystem`` methods and ``ProcessExecutor``), so refactors inside the
program cannot break the benchmark.

Graph size is held fixed across seeds.  The synthetic facebook-like
generator realises a seed-dependent number of edges (at 300 vertices the
edge count of two seeds can differ by 40%), and every job's cost scales
with it.  Each workload therefore states its vertex count and a target
edge count; the run seed deterministically picks, among the graph seeds
derived from it, the first whose graph lies within ``EDGE_TOLERANCE`` of
the target (or the closest one).  The seed varies the graph's content,
split, model initialisation and privacy noise, never its size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import LumosSystem, default_config_for
from repro.engine import ArtifactStore
from repro.eval.runner import (
    ExperimentScale,
    run_epsilon_sweep,
    run_supervised_comparison,
)
from repro.graph import load_dataset
from repro.runtime import ProcessExecutor

DATASET = "facebook"
EPSILONS = [0.5, 1.0, 2.0, 4.0]
EDGE_TOLERANCE = 0.03
SEED_CANDIDATES = 16

#: (name, unit) of a workload-specific quality metric.
Quality = Dict[str, Tuple[float, str]]


def pick_graph_seed(seed: int, num_nodes: int, target_edges: int) -> int:
    """Graph seed for run ``seed``: the first candidate near ``target_edges``.

    Candidates are ``seed * SEED_CANDIDATES + i``, so distinct run seeds
    never share a graph.  Deterministic in ``seed``.
    """
    best, best_gap = seed * SEED_CANDIDATES, None
    for offset in range(SEED_CANDIDATES):
        candidate = seed * SEED_CANDIDATES + offset
        edges = load_dataset(DATASET, seed=candidate, num_nodes=num_nodes).num_edges
        gap = abs(edges - target_edges) / target_edges
        if gap <= EDGE_TOLERANCE:
            return candidate
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


@dataclass
class Inputs:
    """Everything a job needs, built from the run seed during set-up."""

    graph_seed: int
    scale: ExperimentScale
    graph: Any = None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``job(inputs, stores)`` runs one request and returns its comparable
    result, appending every ``ArtifactStore`` it creates to ``stores`` so
    the traced run can read their hit/miss counters.  ``check`` returns the
    paper orderings a result violates; ``quality`` its quality metrics.
    """

    name: str
    why: str
    num_nodes: int
    target_edges: int
    epochs: int
    mcmc_iterations: int
    job: Callable[[Inputs, List[ArtifactStore]], Any]
    check: Callable[[Any], List[str]]
    quality: Callable[[Any], Quality]
    #: Builds the graph object itself (only jobs that take a graph need it).
    needs_graph: bool = False
    #: Serial computation the job's result must equal (the runtime
    #: determinism contract); ``None`` when the warm-up result is the only
    #: reference.
    reference: Optional[Callable[[Inputs], Any]] = None

    def pick_graph_seed(self, seed: int) -> int:
        return pick_graph_seed(seed, self.num_nodes, self.target_edges)

    def build_inputs(self, graph_seed: int) -> Inputs:
        inputs = Inputs(
            graph_seed=graph_seed,
            scale=ExperimentScale(
                num_nodes=self.num_nodes,
                epochs=self.epochs,
                mcmc_iterations=self.mcmc_iterations,
                seed=graph_seed,
            ),
        )
        if self.needs_graph:
            inputs.graph = load_dataset(DATASET, seed=graph_seed, num_nodes=self.num_nodes)
        return inputs


# --------------------------------------------------------------------------- #
# train-gat: one Fig. 3 cell with the GAT backbone
# --------------------------------------------------------------------------- #
def _train_gat_job(inputs: Inputs, stores: List[ArtifactStore]) -> Dict[str, float]:
    return run_supervised_comparison(DATASET, "gat", inputs.scale)


def _train_gat_check(result: Dict[str, float]) -> List[str]:
    if result["lumos"] > result["naive_fedgnn"]:
        return []
    return [
        f"Lumos accuracy {result['lumos']:.4f} does not beat "
        f"naive FedGNN {result['naive_fedgnn']:.4f}"
    ]


def _train_gat_quality(result: Dict[str, float]) -> Quality:
    return {"test_accuracy": (result["lumos"], "ratio")}


# --------------------------------------------------------------------------- #
# sweep / sweep-process: one Fig. 5 row, supervised then unsupervised
# --------------------------------------------------------------------------- #
def _sweep(inputs: Inputs, stores: List[ArtifactStore], executor) -> Tuple[dict, dict]:
    store = ArtifactStore()
    stores.append(store)
    return tuple(
        run_epsilon_sweep(
            DATASET, task, EPSILONS, backbone="gcn", scale=inputs.scale,
            store=store, executor=executor,
        )
        for task in ("supervised", "unsupervised")
    )


def _sweep_job(inputs: Inputs, stores: List[ArtifactStore]) -> Tuple[dict, dict]:
    return _sweep(inputs, stores, executor=None)


def _sweep_process_job(inputs: Inputs, stores: List[ArtifactStore]) -> Tuple[dict, dict]:
    return _sweep(inputs, stores, executor=ProcessExecutor(max_workers=os.cpu_count()))


def _sweep_reference(inputs: Inputs) -> Tuple[dict, dict]:
    return _sweep_job(inputs, [])


def _sweep_check(result: Tuple[dict, dict]) -> List[str]:
    return []


def _sweep_quality(result: Tuple[dict, dict]) -> Quality:
    supervised, unsupervised = result
    return {
        "test_accuracy": (float(np.mean(list(supervised.values()))), "ratio"),
        "test_auc": (float(np.mean(list(unsupervised.values()))), "ratio"),
    }


# --------------------------------------------------------------------------- #
# construct: one Fig. 8 row pair, Lumos with and without tree trimming
# --------------------------------------------------------------------------- #
def _construct_job(inputs: Inputs, stores: List[ArtifactStore]) -> Dict[str, Dict[str, float]]:
    """The calls ``run_system_cost`` makes, on a graph built once in set-up."""
    base = (
        default_config_for(DATASET)
        .with_mcmc_iterations(inputs.scale.mcmc_iterations)
        .with_epochs(inputs.scale.epochs)
        .with_backbone("gcn")
        .with_epsilon(2.0)
        .with_seed(inputs.graph_seed)
    )
    store = ArtifactStore()
    stores.append(store)
    results: Dict[str, Dict[str, float]] = {}
    for name, config in (("lumos", base), ("lumos_wo_tt", base.without_tree_trimming())):
        system = LumosSystem(inputs.graph, config, store=store)
        system.construct_trees()
        trainer = system.trainer()
        entry: Dict[str, float] = {}
        for task in ("supervised", "unsupervised"):
            profile = trainer.communication_profile(task)
            entry[f"{task}_rounds_per_device"] = float(profile["per_device_rounds"].mean())
            entry[f"{task}_epoch_time"] = trainer.simulated_epoch_time(task)
        entry["max_workload"] = float(system.workload_distribution().max())
        ledger = system.environment.ledger.summary(system.environment.num_devices)
        entry["messages_per_device"] = ledger["avg_messages_per_device"]
        entry["bytes_per_device"] = ledger["total_bytes"] / system.environment.num_devices
        results[name] = entry
    return results


def _construct_check(result: Dict[str, Dict[str, float]]) -> List[str]:
    trimmed, untrimmed = result["lumos"], result["lumos_wo_tt"]
    problems = []
    for key in ("max_workload", "supervised_rounds_per_device"):
        if not trimmed[key] < untrimmed[key]:
            problems.append(
                f"{key} with tree trimming ({trimmed[key]:.4f}) is not below "
                f"without it ({untrimmed[key]:.4f})"
            )
    return problems


def _construct_quality(result: Dict[str, Dict[str, float]]) -> Quality:
    return {
        "max_workload": (result["lumos"]["max_workload"], "nodes"),
        "rounds_per_device": (result["lumos"]["supervised_rounds_per_device"], "rounds"),
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="train-gat",
            why=(
                "Fig. 3 cell with GAT (Lumos + 3 baselines): GAT forward/backward "
                "dominate here and nowhere else"
            ),
            num_nodes=200, target_edges=1150, epochs=20, mcmc_iterations=100,
            job=_train_gat_job, check=_train_gat_check, quality=_train_gat_quality,
        ),
        Workload(
            name="sweep",
            why=(
                "Fig. 5 row, serial: stage-cache hits for 3 of 4 epsilons, LDP "
                "thresholding, GCN training for both tasks, no GAT"
            ),
            num_nodes=300, target_edges=1870, epochs=20, mcmc_iterations=100,
            job=_sweep_job, check=_sweep_check, quality=_sweep_quality,
        ),
        Workload(
            name="sweep-process",
            why=(
                "the sweep through ProcessExecutor: warm-up, fork, spill store, "
                "merge, BLAS oversubscription; sweep is its no-change twin"
            ),
            num_nodes=300, target_edges=1870, epochs=20, mcmc_iterations=100,
            job=_sweep_process_job, check=_sweep_check, quality=_sweep_quality,
            reference=_sweep_reference,
        ),
        Workload(
            name="construct",
            why=(
                "Fig. 8 row pair, 1500 devices: greedy/MCMC construction and "
                "tree-batch assembly dominate, largest working set, no training"
            ),
            num_nodes=1500, target_edges=10200, epochs=20, mcmc_iterations=500,
            job=_construct_job, check=_construct_check, quality=_construct_quality,
            needs_graph=True,
        ),
    )
}
