"""Per-layer timers for the traced run, installed around public functions.

The traced run wraps the program's public functions listed in ``LAYERS``
with timers owned by this file; the untraced run never imports it.  A
``.s`` metric is the time spent inside a layer's wrapped calls, counting
the outermost call only, so recursion and nesting within one layer never
double-count.  Time outside every wrapped call is ``unattributed.s``.

A target that no longer exists (a later change deleted or renamed it) is
skipped; a layer with no target left is reported as absent rather than
failing the run.  Forked runtime workers inherit the wrappers, but their
timings stay in the worker: the runtime layer is read from the
``RuntimeReport`` the scheduler returns instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    """A timed layer: its metric prefix, wrapped targets and result hook.

    ``targets`` are ``"module:Qualified.name"`` paths.  ``hook(recorder,
    result, args)`` reads counters off an outermost call's return value.
    ``moves`` names the end-to-end metric the layer should move, and where.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    hook: Optional[Callable] = None


class Recorder:
    """Accumulates one job's layer times and counts."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.epoch_ms: List[float] = []
        self.covered = 0.0
        self._depth: Dict[str, int] = defaultdict(int)
        self._active = 0
        self._cover_start = 0.0
        self._last_step: Optional[float] = None
        #: Spill directory -> bytes of ``.npz`` files published into it.
        self.spill_bytes: Dict[str, int] = {}

    def wrap(self, layer: Layer, function: Callable) -> Callable:
        @functools.wraps(function)
        def timed(*args, **kwargs):
            outer = self._depth[layer.name] == 0
            self._depth[layer.name] += 1
            if self._active == 0:
                self._cover_start = time.perf_counter()
            self._active += 1
            if outer and layer.name == "core.train":
                self._last_step = None
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._depth[layer.name] -= 1
                self._active -= 1
                if self._active == 0:
                    self.covered += ended - self._cover_start
                if outer:
                    self.seconds[layer.name] += ended - started
                    self.counts[f"{layer.name}.calls"] += 1
            if outer and layer.name == "nn.optim_step" and self._depth["core.train"]:
                self._epoch_boundary(ended)
            if outer and layer.hook is not None:
                layer.hook(self, result, args)
            return result

        return timed

    def _epoch_boundary(self, now: float) -> None:
        """An epoch is the interval between successive optimizer steps."""
        self.counts["core.train.epochs"] += 1
        if self._last_step is not None:
            self.epoch_ms.append((now - self._last_step) * 1e3)
        self._last_step = now


# --------------------------------------------------------------------------- #
# Result hooks
# --------------------------------------------------------------------------- #
def _mcmc_hook(recorder: Recorder, result, args) -> None:
    recorder.counts["core.mcmc.iterations"] += result.iterations
    recorder.counts["core.mcmc.accepted"] += result.accepted_transitions


def _construct_hook(recorder: Recorder, result, args) -> None:
    recorder.counts["crypto.comparisons"] += result.transcript.comparisons
    recorder.counts["crypto.ot_invocations"] += result.transcript.ot_invocations


def _ledger_hook(recorder: Recorder, summary: Optional[dict], args) -> None:
    """Add one Lumos deployment's ledger summary to the federation layer."""
    if summary:
        recorder.counts["federation.ledgers"] += 1
        recorder.counts["federation.messages"] += summary["device_to_device_messages"]
        recorder.counts["federation.bytes"] += summary["total_bytes"]


def _runtime_hook(recorder: Recorder, report, args) -> None:
    stats = report.stats
    executor = args[0]
    items = stats.get("items", 0)
    workers = min(executor.max_workers or os.cpu_count() or 1, max(items, 1))
    pool_wall = stats.get("wall_seconds", 0.0) - stats.get("warmup_seconds", 0.0)
    busy = sum(record.duration for record in report.records.values())
    store = stats.get("store", {})
    counts = recorder.counts
    counts["runtime.warmup.s"] += stats.get("warmup_seconds", 0.0)
    counts["runtime.item_busy.s"] += busy
    counts["runtime.capacity.s"] += workers * max(pool_wall, 0.0)
    counts["runtime.items"] += items
    counts["runtime.retries"] += stats.get("retries_used", 0)
    counts["runtime.crashes"] += stats.get("crashes", 0)
    counts["runtime.spill_writes"] += store.get("spill_writes", 0)
    counts["runtime.spill_loads"] += store.get("spill_loads", 0)
    for record in report.records.values():
        _ledger_hook(recorder, record.ledger_summary, ())


def _persist_hook(recorder: Recorder, published, args) -> None:
    directory = args[0].directory
    recorder.spill_bytes[str(directory)] = sum(
        path.stat().st_size for path in directory.glob("*.npz")
    )


TRAINING = "job_s_p50 on sweep and train-gat"
CONSTRUCT = "job_s_p50 and peak_rss_mb on construct"
RUNTIME = "job_s_p50 and job_cpu_s_p50 on sweep-process; zero elsewhere"

LAYERS: Tuple[Layer, ...] = (
    Layer("graph.load_dataset", ("repro.graph.datasets:load_dataset",),
          "job_s_p50 on sweep (~5%) and train-gat (~1%)"),
    *(
        Layer(f"engine.{stage}", (f"repro.engine.stages:{cls}.compute", f"repro.engine.stages:{cls}.replay"),
              "job_s_p50 on construct; hit ratio must not fall on sweep")
        for stage, cls in (
            ("partition", "PartitionStage"),
            ("construction", "TreeConstructionStage"),
            ("ldp_draws", "LDPDrawsStage"),
            ("ldp_init", "EmbeddingInitStage"),
            ("tree_batch", "TreeBatchStage"),
        )
    ),
    Layer("core.construct", ("repro.core.constructor:TreeConstructor.construct",),
          CONSTRUCT, hook=_construct_hook),
    Layer("core.greedy", ("repro.core.greedy:greedy_initialization",), CONSTRUCT),
    Layer("core.mcmc", ("repro.core.mcmc:MCMCBalancer.run",), CONSTRUCT, hook=_mcmc_hook),
    Layer("core.ldp_draw", ("repro.core.embedding_init:LDPEmbeddingInitializer.draw",),
          "job_s_p50 on construct (~40% with batch) and, less, sweep"),
    Layer("core.ldp_threshold", ("repro.core.embedding_init:LDPEmbeddingInitializer.threshold",),
          "job_s_p50 on construct and, less, sweep"),
    Layer("core.tree_batch", ("repro.core.trainer:TreeBatch.build",),
          "job_s_p50 on construct and, less, sweep"),
    Layer("core.train", (
        "repro.core.trainer:TreeBasedGNNTrainer.train_supervised",
        "repro.core.trainer:TreeBasedGNNTrainer.train_unsupervised",
        "repro.core.trainer:train_supervised_many",
    ), TRAINING),
    Layer("nn.forward", (
        "repro.nn.module:Module.__call__",
        "repro.core.trainer:LumosModel.logits",
        "repro.core.trainer:LumosModel.vertex_embeddings",
    ), "forward share of core.train.s"),
    Layer("nn.backward", ("repro.nn.tensor:Tensor.backward",), "backward share of core.train.s"),
    Layer("nn.optim_step", ("repro.nn.optim:Adam.step", "repro.nn.optim:SGD.step"),
          "optimizer share of core.train.s"),
    Layer("gnn.gat", ("repro.gnn.gat:GATLayer.forward",),
          "job_s_p50 on train-gat; no change elsewhere"),
    Layer("gnn.gcn", ("repro.gnn.gcn:GCNLayer.forward",), "job_s_p50 on sweep"),
    Layer("gnn.pool", (
        "repro.nn.functional:fused_pool_head",
        "repro.nn.functional:fused_folded_head",
        "repro.gnn.pooling:mean_pool",
        "repro.gnn.pooling:sum_pool",
        "repro.gnn.pooling:max_pool",
    ), TRAINING),
    Layer("baselines.centralized", (
        "repro.baselines.centralized:train_centralized_supervised",
        "repro.baselines.centralized:train_centralized_unsupervised",
    ), "job_s_p50 on train-gat"),
    Layer("baselines.lpgnn", ("repro.baselines.lpgnn:train_lpgnn_supervised",),
          "job_s_p50 on train-gat"),
    Layer("baselines.naive_fedgnn", (
        "repro.baselines.naive_fedgnn:train_naive_fedgnn_supervised",
        "repro.baselines.naive_fedgnn:train_naive_fedgnn_unsupervised",
    ), "job_s_p50 on train-gat"),
    Layer("runtime.execute", ("repro.runtime.executor:ProcessExecutor.execute",),
          RUNTIME, hook=_runtime_hook),
    Layer("runtime.persist", ("repro.engine.store:DiskSpillStore.persist",),
          RUNTIME, hook=_persist_hook),
    Layer("federation.ledger", ("repro.federation.network:CommunicationLedger.summary",),
          "explains rounds_per_device on construct", hook=_ledger_hook),
)


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #
class Installation:
    """Wrappers currently installed; ``remove()`` restores every original."""

    def __init__(self) -> None:
        self.restore: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def remove(self) -> None:
        for owner, attribute, original in reversed(self.restore):
            setattr(owner, attribute, original)
        self.restore.clear()


def _resolve(path: str):
    """``(owner, attribute)`` for a target path, or ``None`` if it is gone."""
    module_name, qualified = path.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = qualified.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # Only methods the class defines itself: wrapping an inherited one
        # would time every other subclass too.
        return (owner, attribute) if attribute in vars(owner) else None
    return (owner, attribute) if callable(getattr(owner, attribute, None)) else None


def install(recorder: Recorder, layers: Tuple[Layer, ...] = LAYERS) -> Installation:
    installation = Installation()
    for layer in layers:
        found = False
        for path in layer.targets:
            resolved = _resolve(path)
            if resolved is None:
                continue
            owner, attribute = resolved
            found = True
            if isinstance(owner, type):
                raw = vars(owner)[attribute]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(recorder.wrap(layer, raw.__func__))
                else:
                    wrapped = recorder.wrap(layer, raw)
                installation.restore.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; rebind each of those references.
            original = getattr(owner, attribute)
            wrapped = recorder.wrap(layer, original)
            for module in list(sys.modules.values()):
                if module is None or not module.__name__.startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        installation.restore.append((module, name, original))
                        setattr(module, name, wrapped)
        if not found:
            installation.absent.append(layer.name)
    return installation


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
ENGINE_STAGES = ("partition", "construction", "ldp_draws", "ldp_init", "tree_batch")

#: Every per-layer metric: name -> (unit, layer it belongs to).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "graph.load_dataset.s": ("s", "graph.load_dataset"),
    **{
        f"engine.{stage}.{suffix}": (unit, f"engine.{stage}")
        for stage in ENGINE_STAGES
        for suffix, unit in (("s", "s"), ("hits", "count"), ("misses", "count"))
    },
    "engine.hit_ratio": ("ratio", "engine.partition"),
    "core.construct.s": ("s", "core.construct"),
    "core.greedy.s": ("s", "core.greedy"),
    "core.mcmc.s": ("s", "core.mcmc"),
    "core.mcmc.iterations": ("count", "core.mcmc"),
    "core.mcmc.acceptance": ("ratio", "core.mcmc"),
    "crypto.comparisons": ("count", "core.construct"),
    "crypto.ot_invocations": ("count", "core.construct"),
    "core.ldp_draw.s": ("s", "core.ldp_draw"),
    "core.ldp_threshold.s": ("s", "core.ldp_threshold"),
    "core.tree_batch.s": ("s", "core.tree_batch"),
    "core.train.s": ("s", "core.train"),
    "core.train.epochs": ("count", "core.train"),
    "core.epoch_ms_p50": ("ms", "core.train"),
    "core.epoch_ms_p90": ("ms", "core.train"),
    "core.epoch_samples": ("count", "core.train"),
    "nn.forward.s": ("s", "nn.forward"),
    "nn.backward.s": ("s", "nn.backward"),
    "nn.optim_step.s": ("s", "nn.optim_step"),
    "gnn.gat.s": ("s", "gnn.gat"),
    "gnn.gat.calls": ("count", "gnn.gat"),
    "gnn.gcn.s": ("s", "gnn.gcn"),
    "gnn.gcn.calls": ("count", "gnn.gcn"),
    "gnn.pool.s": ("s", "gnn.pool"),
    "baselines.centralized.s": ("s", "baselines.centralized"),
    "baselines.lpgnn.s": ("s", "baselines.lpgnn"),
    "baselines.naive_fedgnn.s": ("s", "baselines.naive_fedgnn"),
    "runtime.execute.s": ("s", "runtime.execute"),
    "runtime.warmup.s": ("s", "runtime.execute"),
    "runtime.item_busy.s": ("s", "runtime.execute"),
    "runtime.idle_frac": ("ratio", "runtime.execute"),
    "runtime.items": ("count", "runtime.execute"),
    "runtime.retries": ("count", "runtime.execute"),
    "runtime.crashes": ("count", "runtime.execute"),
    "runtime.spill_writes": ("count", "runtime.execute"),
    "runtime.spill_loads": ("count", "runtime.execute"),
    "runtime.spill_bytes": ("bytes", "runtime.persist"),
    "federation.messages_per_device": ("count", "federation.ledger"),
    "federation.bytes_per_device": ("bytes", "federation.ledger"),
    "memory.rss_growth_mb_per_job": ("MB", ""),
    "unattributed.s": ("s", ""),
    "trace_overhead": ("ratio", ""),
    "traced_job_s_p50": ("s", ""),
}


def job_metrics(
    recorder: Recorder,
    wall: float,
    engine: Dict[str, Dict[str, int]],
    num_devices: int,
) -> Dict[str, float]:
    """One traced job's per-layer values (epoch samples are kept apart)."""
    seconds, counts = recorder.seconds, recorder.counts
    values: Dict[str, float] = {}
    for name, (unit, layer) in PER_LAYER.items():
        if name.endswith(".s") and name[:-2] == layer:
            values[name] = seconds.get(layer, 0.0)
    for stage in ENGINE_STAGES:
        values[f"engine.{stage}.hits"] = engine.get(stage, {}).get("hits", 0)
        values[f"engine.{stage}.misses"] = engine.get(stage, {}).get("misses", 0)
    hits = sum(values[f"engine.{stage}.hits"] for stage in ENGINE_STAGES)
    lookups = hits + sum(values[f"engine.{stage}.misses"] for stage in ENGINE_STAGES)
    values["engine.hit_ratio"] = hits / lookups if lookups else 0.0
    iterations = counts.get("core.mcmc.iterations", 0)
    values["core.mcmc.iterations"] = iterations
    values["core.mcmc.acceptance"] = (
        counts.get("core.mcmc.accepted", 0) / iterations if iterations else 0.0
    )
    for name in ("crypto.comparisons", "crypto.ot_invocations", "core.train.epochs",
                 "gnn.gat.calls", "gnn.gcn.calls", "runtime.warmup.s",
                 "runtime.item_busy.s", "runtime.items", "runtime.retries",
                 "runtime.crashes", "runtime.spill_writes", "runtime.spill_loads"):
        values[name] = counts.get(name, 0)
    values["runtime.spill_bytes"] = sum(recorder.spill_bytes.values())
    capacity = counts.get("runtime.capacity.s", 0.0)
    values["runtime.idle_frac"] = (
        1.0 - counts["runtime.item_busy.s"] / capacity if capacity else 0.0
    )
    ledgers = counts.get("federation.ledgers", 0)
    per_device = ledgers * num_devices
    values["federation.messages_per_device"] = (
        counts.get("federation.messages", 0) / per_device if per_device else 0.0
    )
    values["federation.bytes_per_device"] = (
        counts.get("federation.bytes", 0) / per_device if per_device else 0.0
    )
    values["unattributed.s"] = wall - recorder.covered
    return values


def summarize(
    jobs: List[Dict[str, float]],
    epoch_ms: List[float],
    traced_walls: List[float],
    untraced_p50: float,
    rss_mb: List[float],
) -> Dict[str, float]:
    """Per-job means over the traced jobs, plus epoch, overhead and memory rows.

    ``rss_mb`` is the resident set size after each traced job.
    """
    summary = {name: statistics.fmean(job[name] for job in jobs) for name in jobs[0]}
    ordered = sorted(epoch_ms)
    summary["core.epoch_samples"] = len(ordered)
    summary["core.epoch_ms_p50"] = statistics.median(ordered) if ordered else 0.0
    summary["core.epoch_ms_p90"] = (
        statistics.quantiles(ordered, n=10)[-1] if len(ordered) >= 2 else
        (ordered[0] if ordered else 0.0)
    )
    traced_p50 = statistics.median(traced_walls)
    summary["traced_job_s_p50"] = traced_p50
    summary["trace_overhead"] = traced_p50 / untraced_p50
    summary["memory.rss_growth_mb_per_job"] = (
        (rss_mb[-1] - rss_mb[0]) / (len(rss_mb) - 1) if len(rss_mb) > 1 else 0.0
    )
    return {name: summary[name] for name in PER_LAYER}
