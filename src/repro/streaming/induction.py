"""Epoch-loop streaming induction (the chunked-ingest workload).

Records arrive in per-epoch chunks instead of being presorted up front
(pdsCART, arXiv:2505.11780; stream-split estimators, arXiv:2403.19867).
Each rank retains the records it has ingested, routes every new chunk
down the current tree to the *frontier* (the open leaves), and maintains
one mergeable quantile sketch per (frontier node, attribute) — see
:mod:`repro.streaming.sketch`.  The batch driver's level-synchronous
loop becomes an epoch loop::

    do while (records remain in the stream)
        Stream.ingest   — route this epoch's chunk, update local sketches
        Stream.sketch   — globalize sketches + class totals (one fused
                          allreduce batch under the SKETCH_MERGE operator)
        Stream.grow     — split frontier nodes whose sketches have seen
                          enough mass; reopen closed leaves whose class
                          distribution shifted
        checkpoint cut  — every epoch boundary is a sealed resume point
    end do
    finalize            — grow the frontier to completion under the batch
                          termination rules

All tree-shaping state after the Stream.sketch reductions is global, so
every rank builds an identical tree — exactly the batch driver's
replication argument.  With ``stream_grow_records == 0`` (the default:
growth only at finalize) and lossless sketches, the streamed tree is
**bit-identical** to batch ScalParC's on the same record prefix; the
differential suite pins this with ``structurally_equal``.

Which nodes stop, which splits are taken, how leaves are labelled and
how cuts are stamped and checked are the batch driver's own rules,
shared through :mod:`repro.core.growth`; this module keeps only the
frontier registry, the sketches, ingest and reopening.
"""

from __future__ import annotations

import numpy as np

from ..core.config import InductionConfig
from ..core.criteria import best_categorical_split
from ..core.growth import (
    accepted_splits,
    attach,
    check_trainable,
    config_fingerprint,
    new_leaf,
    open_cut,
    restore_rank_extras,
    save_cut,
    split_node,
    terminal_nodes,
)
from ..core.kernels import split_scores
from ..core.phases import STREAM_GROW, STREAM_INGEST, STREAM_SKETCH, \
    timed_phase
from ..core.splits import BEST_SPLIT, NO_CANDIDATE, candidate_beats, \
    categorical_children_layout, decode_mask, encode_mask, pack_candidates
from ..datagen.schema import Dataset, Schema
from ..runtime import Communicator
from ..runtime.checkpoint import (
    CheckpointConfig,
    LevelCheckpointer,
    resolve_checkpoint,
)
from ..runtime.reduction import SUM
from ..runtime.tracing import tag_level
from ..tree.model import DecisionTree, Leaf, TreeNode
from .sketch import SKETCH_MERGE, build_sketch, empty_sketch, \
    merge_sketches, sketch_entries, sketch_from_entries
from .source import ChunkSource

__all__ = ["stream_induce_worker"]

#: manifest tag identifying streaming-induction checkpoints
_CKPT_ALGO = "scalparc-streaming"


def _shape_extras(config: InductionConfig) -> list:
    """The streaming driver's own tree-shaping knobs for the cut's config
    fingerprint: the resolved stream knobs.

    The streaming schedule itself shapes the tree whenever growth is
    eager or sketches compress, so the resolved chunk/sketch/grow/reopen
    knobs all join the digest — a resume under different streaming
    settings must fail loudly.
    """
    return [
        config.resolved_stream_chunk_records(),
        config.resolved_sketch_size(),
        config.resolved_stream_grow_records(),
        float(config.resolved_stream_reopen_delta()),
    ]


# ----------------------------------------------------------------------
# frontier registry
# ----------------------------------------------------------------------
# The tree under construction is always complete and valid: every
# frontier position is materialized as a Leaf.  ``entries[fid]``
# describes leaf fid (open = may still grow; closed = terminal unless a
# distribution shift reopens it); retained records carry their fid in
# ``node_of``.  Entries of nodes that have split keep their row (so fids
# stay stable) with ``leaf=None``.


def _new_entry(leaf: Leaf, parent: TreeNode | None, slot: int,
               depth: int, open_: bool) -> dict:
    return {"leaf": leaf, "parent": parent, "slot": slot, "depth": depth,
            "open": open_, "closed_dist": None}


def _sync_leaf(leaf: Leaf, totals: np.ndarray) -> None:
    """Refresh a frontier leaf from fresh global totals; a leaf that has
    seen no records keeps the label it was created with."""
    n = int(totals.sum())
    if n > 0:
        leaf.label = int(np.argmax(totals))
    leaf.n_records = n
    leaf.class_counts = totals.astype(np.int64)


def _route_to_frontier(root: TreeNode, entries: list,
                       columns: list, n: int) -> np.ndarray:
    """fid of the frontier leaf each of the ``n`` records lands in."""
    leaf_fid = {id(e["leaf"]): fid for fid, e in enumerate(entries)
                if e["leaf"] is not None}
    out = np.empty(n, dtype=np.int64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(n))]
    while stack:
        node, pos = stack.pop()
        if node.is_leaf:
            out[pos] = leaf_fid[id(node)]
            continue
        child = node.route(columns[node.attr_index][pos])
        for ci in range(len(node.children)):
            sub = pos[child == ci]
            if len(sub):
                stack.append((node.children[ci], sub))
    return out


# ----------------------------------------------------------------------
# collective state: globalize counts + sketches in one fused batch
# ----------------------------------------------------------------------


def _transport_capacity(n: int, full: int) -> int:
    """Rows a node with *n* global records needs on the wire: the next
    power of two covering ``n`` (bucketing keeps the number of distinct
    stack shapes — hence fused reduces per round — logarithmic), clamped
    to ``[8, full]``.  A node holds at most ``n`` distinct values per
    attribute, so trimming the padded sketch to this bound is lossless.
    """
    cap = 8
    while cap < min(max(n, 1), full):
        cap <<= 1
    return min(cap, full)


def _globalize(comm: Communicator, entries: list, local_counts: list,
               sketches: dict, n_attrs: int, capacity: int,
               with_sketches: bool = True, tight: bool = True):
    """One fused rendezvous globalizing the whole frontier: per-entry
    class totals (SUM) and every open (node, attribute) sketch
    (SKETCH_MERGE).  Returns ``(global_counts, global_sketches)``.

    ``with_sketches=False`` reduces only the class totals — the cheap
    epoch heartbeat when no growth can happen this round (finalize-only
    mode mid-stream), where shipping frontier sketches would buy nothing.

    ``tight=True`` trims each open node's sketch stack to its
    :func:`_transport_capacity` before the reduce — ``leaf.n_records``
    is a *global* total (set from prior reductions) so every rank
    derives the same grouping, and deep frontier nodes (few records,
    mostly-NaN padding) stop paying full-capacity freight.  Callers must
    pass ``tight=False`` when records were ingested since the counts
    were last refreshed (the first round of a mid-stream grow pass):
    a stale bound could force compression the full capacity would not.
    """
    open_fids = [fid for fid, e in enumerate(entries) if e["open"]]
    counts_stack = np.stack(local_counts)
    groups: dict[int, list[int]] = {}
    if with_sketches and open_fids:
        for fid in open_fids:
            cap = _transport_capacity(entries[fid]["leaf"].n_records,
                                      capacity) if tight else capacity
            groups.setdefault(cap, []).append(fid)
    with comm.fused() as batch:
        fut_counts = batch.allreduce(counts_stack, SUM)
        fut_groups = []
        for cap in sorted(groups):
            fids = groups[cap]
            sk_stack = np.stack([sketches[fid][a][:cap]
                                 for fid in fids
                                 for a in range(n_attrs)])
            fut_groups.append((fids, batch.allreduce(sk_stack, SKETCH_MERGE)))
    g_counts = fut_counts.result()
    g_sk: dict[int, list[np.ndarray]] = {}
    for fids, fut in fut_groups:
        stack = fut.result()
        for j, fid in enumerate(fids):
            g_sk[fid] = [stack[j * n_attrs + a] for a in range(n_attrs)]
    return g_counts, g_sk


# ----------------------------------------------------------------------
# split scoring from global sketches (batch-exact semantics)
# ----------------------------------------------------------------------


def _category_matrix(sketch: np.ndarray, n_values: int,
                     n_classes: int) -> np.ndarray:
    """A categorical attribute's (n_values, c) count matrix, read off its
    global sketch (one row per occurring value code)."""
    rows = sketch_entries(sketch)
    matrix = np.zeros((n_values, n_classes), dtype=np.int64)
    matrix[np.rint(rows[:, 0]).astype(np.int64)] = \
        np.rint(rows[:, 1:]).astype(np.int64)
    return matrix


def _best_from_sketches(node_sketches: list, totals: np.ndarray,
                        schema: Schema, config: InductionConfig) -> np.ndarray:
    """Best ``[score, attr, third]`` candidate split of one node, scored
    from its global sketches.

    Reproduces the batch FindSplit semantics exactly when the sketches
    are lossless: continuous candidates are the distinct values with a
    strictly smaller predecessor, the threshold is the value itself, the
    left partition counts everything strictly below it; candidates are
    ordered by the canonical (score, attribute, threshold) key.
    """
    best = np.array(NO_CANDIDATE, dtype=np.float64)
    totals_f = totals.astype(np.float64)
    for attr, spec in enumerate(schema):
        if spec.is_continuous:
            rows = sketch_entries(node_sketches[attr])
            if len(rows) < 2:
                continue
            left = np.cumsum(rows[:, 1:], axis=0)[:-1]
            thr = rows[1:, 0]
            scores = split_scores(left, totals_f, config.criterion)
            smin = scores.min()
            tie = np.flatnonzero(scores == smin)
            j = tie[np.argmin(thr[tie])]
            cand = np.array([scores[j], float(attr), thr[j]])
        else:
            score, mask = best_categorical_split(
                _category_matrix(node_sketches[attr], spec.n_values,
                                 len(totals)),
                config.criterion,
                binary_subsets=config.categorical_binary_subsets,
                exhaustive_limit=config.subset_exhaustive_limit,
            )
            third = encode_mask(mask) if mask is not None else 0.0
            cand = np.array([score, float(attr), third])
        if np.isfinite(cand[0]) and candidate_beats(cand, best):
            best = cand
    return best


# ----------------------------------------------------------------------
# frontier mutation
# ----------------------------------------------------------------------


def _close_leaf(entry: dict, totals: np.ndarray) -> None:
    _sync_leaf(entry["leaf"], totals)
    n = int(totals.sum())
    if n > 0:
        entry["closed_dist"] = totals.astype(np.float64) / n
    entry["open"] = False


def _child_sketches(state: "_StreamState", idx: np.ndarray,
                    child_of: np.ndarray, n_children: int,
                    wanted: list) -> list:
    """Local sketches for the surviving children of one split.

    Equivalent to :func:`~repro.streaming.sketch.build_sketch` per
    (child, attribute) pair, but grouped into one lexsort/reduceat pass
    per attribute — a deep finalize round splits hundreds of nodes, so
    per-child ``np.unique`` calls would dominate the whole pass.
    """
    labels = state.labels[idx]
    cap = state.capacity
    out: list = [[None] * state.n_attrs if w else None for w in wanted]
    for a in range(state.n_attrs):
        vals = state.columns[a][idx].astype(np.float64, copy=False)
        if len(vals):
            order = np.lexsort((vals, child_of))
            c_s, v_s, l_s = child_of[order], vals[order], labels[order]
            new = np.concatenate([
                [True], (c_s[1:] != c_s[:-1]) | (v_s[1:] != v_s[:-1])])
            gid = np.cumsum(new) - 1
            counts = np.zeros((int(gid[-1]) + 1, state.n_classes),
                              dtype=np.float64)
            np.add.at(counts, (gid, l_s), 1.0)
            starts = np.flatnonzero(new)
            uvals, uchild = v_s[starts], c_s[starts]
        else:
            uvals = np.empty(0, dtype=np.float64)
            uchild = np.empty(0, dtype=np.int64)
            counts = np.empty((0, state.n_classes), dtype=np.float64)
        for ci in range(n_children):
            if not wanted[ci]:
                continue
            sel = uchild == ci
            entries = np.concatenate([uvals[sel][:, None], counts[sel]],
                                     axis=1)
            out[ci][a] = sketch_from_entries(entries, cap)
    return out


def _split_entry(fid: int, best: np.ndarray, totals: np.ndarray,
                 node_sketches: list, state: "_StreamState",
                 config: InductionConfig, finalize: bool) -> None:
    """Replace leaf ``fid`` with the split node of candidate ``best``;
    re-route its retained records; register its children as new frontier
    leaves with sketches rebuilt from the exact retained data.

    Child class counts come from the global sketches (every rank derives
    the same), so any rank can apply a candidate another rank scored.
    During finalize the child totals are final, so a child the batch
    rules would close next round (pure, under-mass, at the depth cap)
    closes *now* — identical labels and reopen state, but it never pays
    sketch construction or transport."""
    entry = state.entries[fid]
    attr = int(best[1])
    spec = state.schema[attr]
    depth = entry["depth"]
    layout = None
    if spec.is_continuous:
        rows = sketch_entries(node_sketches[attr])
        below = rows[:, 0] < float(best[2])
        left = np.rint(rows[below, 1:].sum(axis=0)).astype(np.int64)
        child_counts = np.stack([left, totals.astype(np.int64) - left])
    else:
        matrix = _category_matrix(node_sketches[attr], spec.n_values,
                                  state.n_classes)
        # the third slot is the encode_mask subset code (0.0: multiway)
        mask = decode_mask(best[2], spec.n_values) \
            if config.categorical_binary_subsets and best[2] != 0.0 \
            else None
        layout = categorical_children_layout(matrix, mask)
        child_counts = np.stack([
            matrix[layout[0] == ci].sum(axis=0).astype(np.int64)
            for ci in range(layout[1])
        ])
    node = split_node(state.schema, best, totals, depth, layout)
    n_children = len(node.children)
    attach(state.root_holder, entry["parent"], entry["slot"], node)
    entry["leaf"] = None
    entry["open"] = False
    entry["closed_dist"] = None
    state.sketches.pop(fid, None)

    idx = np.flatnonzero(state.node_of == fid)
    child_of = node.route(state.columns[attr][idx]) if len(idx) \
        else np.empty(0, dtype=np.int64)
    base = len(state.entries)
    state.node_of[idx] = base + child_of
    local_cc = np.zeros((n_children, state.n_classes), dtype=np.int64)
    np.add.at(local_cc, (child_of, state.labels[idx]), 1)
    # an empty child (possible only with lossy sketches) closes
    # immediately, inheriting the parent majority like the batch path; a
    # finalize child the termination rules would close next round closes
    # now, with the same label and reopen distribution
    empty = child_counts.sum(axis=1) == 0
    closing = empty | (finalize & terminal_nodes(
        child_counts, np.full(n_children, depth + 1), config))
    for ci in range(n_children):
        leaf = new_leaf(child_counts[ci], depth + 1, node)
        node.children[ci] = leaf
        state.entries.append(
            _new_entry(leaf, node, ci, depth + 1, open_=not closing[ci]))
        if closing[ci] and not empty[ci]:
            state.entries[-1]["closed_dist"] = \
                child_counts[ci].astype(np.float64) / leaf.n_records
        state.local_counts.append(local_cc[ci].copy())
    wanted = (~closing).tolist()
    if any(wanted):
        sketches = _child_sketches(state, idx, child_of, n_children, wanted)
        for ci in range(n_children):
            if wanted[ci]:
                state.sketches[base + ci] = sketches[ci]


class _StreamState:
    """One rank's streaming-fit state (retained records + frontier)."""

    def __init__(self, schema: Schema, capacity: int):
        self.schema = schema
        self.n_attrs = len(schema)
        self.n_classes = schema.n_classes
        self.capacity = capacity
        root_leaf = new_leaf(np.zeros(self.n_classes), 0, None)
        self.root_holder: list[TreeNode] = [root_leaf]
        self.entries: list[dict] = [_new_entry(root_leaf, None, 0, 0, True)]
        self.local_counts: list[np.ndarray] = [
            np.zeros(self.n_classes, dtype=np.int64)]
        self.columns: list[np.ndarray] = [
            np.empty(0, dtype=(np.float64 if spec.is_continuous
                               else np.int32))
            for spec in schema
        ]
        self.labels: np.ndarray = np.empty(0, dtype=np.int64)
        self.node_of: np.ndarray = np.empty(0, dtype=np.int64)
        self.sketches: dict[int, list[np.ndarray]] = {
            0: [empty_sketch(capacity, self.n_classes)
                for _ in range(self.n_attrs)]
        }

    def node_sketches(self, fid: int) -> list[np.ndarray]:
        """Deterministically rebuild frontier node ``fid``'s local
        sketches from the retained records (resume, reopen)."""
        idx = np.flatnonzero(self.node_of == fid)
        return [build_sketch(self.columns[a][idx], self.labels[idx],
                             self.n_classes, self.capacity)
                for a in range(self.n_attrs)]

    def ingest(self, block: Dataset) -> None:
        """Route one epoch block into the frontier, extending the
        retained set, per-entry local counts and open-node sketches."""
        n_new = block.n_records
        if n_new == 0:
            return
        fids = _route_to_frontier(self.root_holder[0], self.entries,
                                  block.columns, n_new)
        labels = block.labels.astype(np.int64)
        add = np.zeros((len(self.entries), self.n_classes), dtype=np.int64)
        np.add.at(add, (fids, labels), 1)
        for fid in np.flatnonzero(add.sum(axis=1)):
            self.local_counts[fid] = self.local_counts[fid] + add[fid]
        for fid in np.unique(fids):
            fid = int(fid)
            if fid not in self.sketches:
                continue        # closed leaf: rebuilt on reopen
            sel = fids == fid
            self.sketches[fid] = [
                merge_sketches(
                    self.sketches[fid][a],
                    build_sketch(block.columns[a][sel], labels[sel],
                                 self.n_classes, self.capacity))
                for a in range(self.n_attrs)
            ]
        base = len(self.labels)
        for a in range(self.n_attrs):
            self.columns[a] = np.concatenate(
                [self.columns[a], block.columns[a]])
        self.labels = np.concatenate([self.labels, labels])
        self.node_of = np.concatenate([self.node_of, fids])
        assert len(self.node_of) == base + n_new


def _refresh_frontier(state: _StreamState, g_counts: np.ndarray,
                      reopen_delta: float) -> None:
    """Sync leaf labels/counts with the fresh global totals; reopen
    closed leaves whose class distribution drifted past the threshold."""
    for fid, entry in enumerate(state.entries):
        leaf = entry["leaf"]
        if leaf is None:
            continue
        totals = g_counts[fid]
        n = int(totals.sum())
        if entry["open"]:
            _sync_leaf(leaf, totals)
        elif entry["closed_dist"] is not None and n > 0:
            dist = totals.astype(np.float64) / n
            shift = 0.5 * float(np.abs(dist - entry["closed_dist"]).sum())
            if shift > reopen_delta:
                entry["open"] = True
                entry["closed_dist"] = None
                _sync_leaf(leaf, totals)
                state.sketches[fid] = state.node_sketches(fid)


def _grow_rounds(comm: Communicator, state: _StreamState,
                 config: InductionConfig, *, finalize: bool,
                 grow_threshold: int, reopen_delta: float) -> None:
    """Globalize, then split every qualifying frontier node; repeat on
    the fresh children until a round makes no split.

    ``finalize`` applies the batch driver's growth rules
    (:mod:`repro.core.growth`: purity, minimum records, depth cap,
    minimum improvement) and closes failing nodes.  Mid-stream
    (``finalize=False``) only nodes whose global mass reached
    ``grow_threshold`` are examined, and a node that fails stays open
    for future chunks.
    """
    growing = finalize or grow_threshold > 0
    # at finalize every leaf's global count is current (the last epoch
    # heartbeat refreshed it); mid-stream the first round follows an
    # ingest, so its counts are stale and the transport stays untrimmed
    tight = finalize
    while True:
        with timed_phase(comm, STREAM_SKETCH):
            g_counts, g_sk = _globalize(
                comm, state.entries, state.local_counts, state.sketches,
                state.n_attrs, state.capacity, with_sketches=growing,
                tight=tight)
        tight = True    # refresh below re-syncs every count; no ingest
        with timed_phase(comm, STREAM_GROW):
            _refresh_frontier(state, g_counts, reopen_delta)
            if not growing:
                # finalize-only growth: the epoch heartbeat reduces just
                # the class totals (leaf refresh + reopen checks); the
                # frontier sketches stay local until end of stream
                return
            # reopened this round: no global sketch yet, grows next round
            fids = [fid for fid, e in enumerate(state.entries)
                    if e["open"] and fid in g_sk]
            if not finalize:
                floor = max(grow_threshold, config.min_split_records)
                fids = [fid for fid in fids
                        if int(g_counts[fid].sum()) >= floor]
            if not fids:
                return
            depth = np.array([state.entries[fid]["depth"] for fid in fids],
                             dtype=np.int64)
            terminal = terminal_nodes(g_counts[fids], depth, config)
            for fid in np.asarray(fids)[terminal]:
                _close_leaf(state.entries[fid], g_counts[fid])
            to_score = [fid for fid, t in zip(fids, terminal) if not t]
            if not to_score:
                return
            # scoring reads only globalized state, so each rank scores a
            # round-robin share of the frontier and one BEST_SPLIT
            # allreduce shares the winners — replicating the scoring
            # loop on every rank would serialize it p times over
            cand = pack_candidates(len(to_score))
            for j, fid in enumerate(to_score):
                if j % comm.size == comm.rank:
                    cand[j] = _best_from_sketches(
                        g_sk[fid], g_counts[fid], state.schema, config)
            cand = comm.allreduce(cand, BEST_SPLIT)
            ok = accepted_splits(g_counts[to_score], cand, config)
            for j, fid in enumerate(to_score):
                if ok[j]:
                    _split_entry(fid, cand[j], g_counts[fid], g_sk[fid],
                                 state, config, finalize)
                elif finalize:
                    _close_leaf(state.entries[fid], g_counts[fid])
            if not ok.any():
                return


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def _save_cut(comm: Communicator, ckpt: LevelCheckpointer, epoch: int,
              state: _StreamState, cursor: int, n_seen: int,
              config: InductionConfig) -> None:
    rank_payload = {
        "columns": [col.copy() for col in state.columns],
        "labels": state.labels.copy(),
        "node_of": state.node_of.copy(),
        "local_counts": [c.copy() for c in state.local_counts],
    }
    shared_payload = {
        "tree": (state.root_holder[0], state.entries),
        "cursor": int(cursor),
        "n_seen": int(n_seen),
    }
    save_cut(comm, ckpt, epoch, _CKPT_ALGO, state.schema,
             config_fingerprint(config, _shape_extras(config)),
             rank_payload, shared_payload,
             meta={"epoch": epoch, "cursor": int(cursor),
                   "n_seen": int(n_seen)})


def _resume_cut(comm: Communicator, source: str, schema: Schema,
                config: InductionConfig, capacity: int):
    """Reload a streaming cut: ``(state, epoch, cursor, n_seen)``.

    Works on the original world size or any other — retained records are
    re-blocked contiguously in old-rank order, and sketches are rebuilt
    deterministically from the exact retained data either way.
    """
    loaded, shared = open_cut(source, _CKPT_ALGO, schema,
                              config_fingerprint(config,
                                                 _shape_extras(config)))
    state = _StreamState(schema, capacity)
    root, entries = shared["tree"]
    state.root_holder[0] = root
    state.entries = entries

    payloads = loaded.all_rank_payloads()
    restore_rank_extras(comm, loaded, payloads)
    if loaded.n_ranks == comm.size:
        mine = payloads[comm.rank]
        state.columns = [np.asarray(col) for col in mine["columns"]]
        state.labels = np.asarray(mine["labels"])
        state.node_of = np.asarray(mine["node_of"])
        state.local_counts = [np.asarray(c) for c in mine["local_counts"]]
    else:
        all_labels = np.concatenate([p["labels"] for p in payloads])
        all_node_of = np.concatenate([p["node_of"] for p in payloads])
        n_ret = len(all_labels)
        blk = -(-n_ret // comm.size) if n_ret else 0
        lo = min(comm.rank * blk, n_ret)
        hi = min((comm.rank + 1) * blk, n_ret)
        state.columns = [
            np.concatenate([p["columns"][a] for p in payloads])[lo:hi]
            for a in range(state.n_attrs)
        ]
        state.labels = all_labels[lo:hi]
        state.node_of = all_node_of[lo:hi]
        counts = np.zeros((len(entries), state.n_classes), dtype=np.int64)
        if hi > lo:
            np.add.at(counts, (state.node_of, state.labels), 1)
        state.local_counts = [counts[fid] for fid in range(len(entries))]
    state.sketches = {fid: state.node_sketches(fid)
                      for fid, entry in enumerate(entries) if entry["open"]}
    return state, loaded.level, int(shared["cursor"]), int(shared["n_seen"])


# ----------------------------------------------------------------------
# the SPMD worker
# ----------------------------------------------------------------------


def stream_induce_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
    checkpoint: CheckpointConfig | str | None = None,
    max_epochs: int | None = None,
    finalize: bool = True,
    fresh_cursor: bool = False,
) -> DecisionTree:
    """SPMD worker: induce a tree from ``dataset`` consumed as a stream.

    ``max_epochs`` caps how many chunks this call ingests (a capped call
    skips finalize growth — the tree stays a refinable frontier for the
    next resume).  ``finalize=False`` likewise leaves the frontier open
    (the ``partial_fit`` mode).  ``fresh_cursor=True`` treats ``dataset``
    as a brand-new stream segment appended to a resumed tree (cursor
    restarts at 0) instead of a continuation of the checkpointed stream.
    """
    config = config or InductionConfig()
    check_trainable(dataset, "stream-induce")
    schema = dataset.schema
    chunk_records = config.resolved_stream_chunk_records()
    capacity = config.resolved_sketch_size()
    grow_threshold = config.resolved_stream_grow_records()
    reopen_delta = config.resolved_stream_reopen_delta()

    ckpt_cfg = resolve_checkpoint(checkpoint)
    ckpt = LevelCheckpointer(ckpt_cfg) if ckpt_cfg is not None else None
    resume_src = ckpt_cfg.resume_source() if ckpt_cfg is not None else None

    if resume_src is not None:
        state, epoch, cursor, n_seen = _resume_cut(
            comm, resume_src, schema, config, capacity)
        if fresh_cursor:
            cursor = 0
    else:
        state = _StreamState(schema, capacity)
        epoch, cursor, n_seen = 0, 0, 0

    source = ChunkSource(dataset, chunk_records)
    epochs_run = 0
    last_saved_epoch = epoch if resume_src is not None else None
    while cursor < source.n_records and (
            max_epochs is None or epochs_run < max_epochs):
        tag_level(comm, epoch)
        block = source.rank_block(cursor, comm.rank, comm.size)
        with timed_phase(comm, STREAM_INGEST):
            state.ingest(block)
        hi = min(cursor + chunk_records, source.n_records)
        n_seen += hi - cursor
        cursor = hi
        _grow_rounds(comm, state, config, finalize=False,
                     grow_threshold=grow_threshold,
                     reopen_delta=reopen_delta)
        epoch += 1
        epochs_run += 1
        comm.perf.mark_level(epoch - 1)
        if ckpt is not None and ckpt.should_save(epoch - 1):
            _save_cut(comm, ckpt, epoch, state, cursor, n_seen, config)
            last_saved_epoch = epoch

    finalized = False
    if finalize and cursor >= source.n_records:
        tag_level(comm, epoch)
        _grow_rounds(comm, state, config, finalize=True,
                     grow_threshold=grow_threshold,
                     reopen_delta=reopen_delta)
        finalized = True

    if ckpt is not None:
        if finalized or last_saved_epoch != epoch:
            # off-cadence tail epoch (or a finalized frontier): cut it
            # anyway so no ingested work is ever lost
            _save_cut(comm, ckpt, epoch, state, cursor, n_seen, config)
        ckpt.finalize(comm)
    return DecisionTree(schema=schema, root=state.root_holder[0])
