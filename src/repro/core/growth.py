"""Tree-growth rules and the checkpoint-cut protocol of both induction drivers.

The batch driver (:mod:`repro.core.induction`: Figure 2's level loop over
presorted attribute lists) and the streaming driver
(:mod:`repro.streaming.induction`: an epoch loop over mergeable sketches)
differ only in the split statistics their ranks keep.  Everything that
decides the *shape* of the tree is defined once, here:

* when a node stops growing (:func:`terminal_nodes`) and when its best
  candidate is taken (:func:`accepted_splits`);
* the label a leaf carries (:func:`new_leaf`) and the node a winning
  candidate becomes (:func:`split_node`, :func:`attach`);
* the digests a checkpoint cut is stamped with (:func:`schema_fingerprint`,
  :func:`config_fingerprint`) and the cut protocol around them
  (:func:`save_cut`, :func:`open_cut`, :func:`restore_rank_extras`).
"""

from __future__ import annotations

import pickle

import numpy as np

from ..datagen.schema import Dataset, Schema
from ..runtime import Communicator
from ..runtime.checkpoint import CheckpointError, LevelCheckpointer, \
    LoadedCheckpoint
from ..runtime.tracing.events import payload_digest
from ..tree.model import CategoricalSplit, ContinuousSplit, Leaf, TreeNode
from .config import InductionConfig
from .criteria import impurity

__all__ = [
    "check_trainable",
    "schema_fingerprint",
    "config_fingerprint",
    "terminal_nodes",
    "accepted_splits",
    "new_leaf",
    "split_node",
    "attach",
    "save_cut",
    "open_cut",
    "restore_rank_extras",
]


def check_trainable(dataset: Dataset, verb: str) -> None:
    """Refuse a dataset no tree can be grown from."""
    if dataset.n_records == 0:
        raise ValueError(f"cannot {verb} a tree from an empty dataset")
    if len(dataset.schema) == 0:
        raise ValueError("dataset has no attributes")


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


def schema_fingerprint(schema: Schema) -> str:
    """Content digest of the tree-shaping dataset shape (same digest
    family as the collective tracer, so it is stable across processes)."""
    return payload_digest([
        int(schema.n_classes),
        [(spec.name, bool(spec.is_continuous), int(spec.n_values))
         for spec in schema],
    ])


def config_fingerprint(config: InductionConfig, extras: list) -> str:
    """Digest of the knobs that shape the induced tree.

    The base list holds the knobs every driver obeys; ``extras`` appends
    the driver's own (the resolved split mode for batch, the resolved
    stream knobs for streaming).  Communication-scheduling knobs (fusion,
    batching, backend) are left out: they never change the tree, so they
    are free to differ between the original run and a resume.
    """
    return payload_digest([
        config.max_depth, config.min_split_records,
        float(config.min_improvement), config.criterion,
        config.categorical_binary_subsets, config.subset_exhaustive_limit,
        *extras,
    ])


# ----------------------------------------------------------------------
# growth rules
# ----------------------------------------------------------------------


def terminal_nodes(totals: np.ndarray, depth: np.ndarray,
                   config: InductionConfig) -> np.ndarray:
    """(m,) mask of the nodes that become leaves without a split search:
    pure, under ``min_split_records``, or at ``max_depth``.  ``totals``
    is the (m, c) global class counts, ``depth`` the (m,) node depths."""
    n = totals.sum(axis=1)
    out = (totals.max(axis=1) == n) | (n < config.min_split_records)
    if config.max_depth is not None:
        out |= depth >= config.max_depth
    return out


def accepted_splits(totals: np.ndarray, best: np.ndarray,
                    config: InductionConfig) -> np.ndarray:
    """(m,) mask of the nodes whose best ``[score, attr, third]``
    candidate exists and improves on the node's impurity by at least
    ``min_improvement``."""
    parent_imp = impurity(totals, config.criterion)
    return np.isfinite(best[:, 0]) & (
        parent_imp - best[:, 0] >= config.min_improvement)


def new_leaf(counts: np.ndarray, depth: int,
             parent: TreeNode | None) -> Leaf:
    """Leaf labelled with its majority class.  An empty node (a
    categorical value with no records at this node, or a lossy sketch's
    empty child) has all-zero counts, where argmax would always say
    class 0: it inherits its parent's majority instead."""
    counts = np.array(counts, dtype=np.int64)
    n = int(counts.sum())
    majority_of = counts if n or parent is None else parent.class_counts
    return Leaf(label=int(np.argmax(majority_of)), n_records=n,
                class_counts=counts, depth=depth)


def split_node(schema: Schema, best: np.ndarray, totals: np.ndarray,
               depth: int, layout: tuple | None = None) -> TreeNode:
    """The split node a winning ``[score, attr, third]`` candidate
    becomes, its child slots still empty.  Continuous splits take the
    threshold from ``best[2]``; categorical splits need ``layout``, the
    ``(value_to_child, n_children, default_child)`` triple of
    :func:`~repro.core.splits.categorical_children_layout`."""
    attr = int(best[1])
    counts = np.array(totals, dtype=np.int64)
    n = int(counts.sum())
    if schema[attr].is_continuous:
        return ContinuousSplit(
            attr_index=attr, threshold=float(best[2]), n_records=n,
            class_counts=counts, depth=depth, children=[None, None],
        )
    v2c, n_children, default = layout
    return CategoricalSplit(
        attr_index=attr, value_to_child=np.asarray(v2c, dtype=np.int32),
        n_records=n, class_counts=counts, depth=depth,
        children=[None] * n_children, default_child=default,
    )


def attach(root_holder: list, parent: TreeNode | None, slot: int,
           node: TreeNode) -> None:
    """Hang ``node`` in ``parent``'s child ``slot`` (the root if none)."""
    if parent is None:
        root_holder[0] = node
    else:
        parent.children[slot] = node


# ----------------------------------------------------------------------
# checkpoint cuts
# ----------------------------------------------------------------------


def save_cut(comm: Communicator, ckpt: LevelCheckpointer, level: int,
             algo: str, schema: Schema, config_fp: str,
             rank_payload: dict, shared_payload: dict, meta: dict) -> None:
    """Write one cut (collective): the driver's payloads under the
    ``algo``/schema/config header, plus this rank's tracker and RNG."""
    perf = comm.perf
    try:
        pickle.dumps(perf)
    except Exception:
        perf = None
    ckpt.save(
        comm, level,
        {**rank_payload, "perf": perf, "rng": np.random.get_state()},
        {"algo": algo, "schema": schema_fingerprint(schema),
         "config": config_fp, **shared_payload},
        meta={"algo": algo, **meta},
    )


def open_cut(source: str, algo: str, schema: Schema,
             config_fp: str) -> tuple[LoadedCheckpoint, dict]:
    """Load the cut at ``source`` and check its header against this
    run; returns ``(loaded, shared_payload)``.

    Raises :class:`~repro.runtime.checkpoint.CheckpointError` when the
    cut was written by another driver, for another schema or under other
    tree-shaping settings: resuming it would graft a differently grown
    subtree onto the partial tree.
    """
    loaded = LoadedCheckpoint.open(source)
    shared = loaded.shared_payload()
    if shared.get("algo") != algo:
        raise CheckpointError(
            f"checkpoint {loaded.manifest_path!r} holds a "
            f"{shared.get('algo')!r} cut; this driver resumes only "
            f"{algo!r} cuts"
        )
    if shared["schema"] != schema_fingerprint(schema):
        raise CheckpointError(
            "checkpoint schema does not match the dataset's; resume needs "
            "the same record schema"
        )
    if shared["config"] != config_fp:
        raise CheckpointError(
            "checkpoint was written under different tree-shaping settings; "
            "resume with the original InductionConfig"
        )
    return loaded, shared


def restore_rank_extras(comm: Communicator, loaded: LoadedCheckpoint,
                        payloads: list) -> None:
    """Restore the tracker clock/counters and RNG this rank saved.  Only
    an equal-size resume restores them: on p → p′ they mean nothing per
    rank."""
    if loaded.n_ranks != comm.size:
        return
    payload = payloads[comm.rank]
    perf = payload.get("perf")
    if perf is not None and type(perf).__name__ == type(comm.perf).__name__:
        try:
            vars(comm.perf).update(vars(perf))
        except TypeError:
            pass
    rng = payload.get("rng")
    if rng is not None:
        np.random.set_state(rng)
