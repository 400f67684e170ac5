"""SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996) — the paper's other
ancestor, reimplemented.

§1 positions ScalParC against both SLIQ and SPRINT.  SLIQ's design:

* continuous attribute lists of (value, record id) are presorted **once**
  and — unlike SPRINT — are **never reorganized**: every tree level scans
  the full lists in sorted order;
* a memory-resident **class list** maps every record id to its (class
  label, current leaf); the scan looks up each entry's leaf through it
  and accumulates per-leaf count matrices on the fly;
* the splitting phase is just a class-list update (no data movement).

Its two famous properties fall out directly: the class list is an O(N)
in-memory structure (the scalability wall SPRINT then removed), and every
level re-reads *all* attribute lists even when most leaves are settled.
Both are measured by :class:`SliqStats`.

Sharing this repo's split kernels and canonical candidate order, SLIQ's
trees are bit-identical to the serial reference's — so the three-way
lineage (SLIQ → SPRINT → ScalParC) is comparable purely on cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import InductionConfig
from ..core.criteria import best_categorical_split, split_score_from_left
from ..core.growth import (
    accepted_splits,
    attach,
    check_trainable,
    new_leaf,
    split_node,
    terminal_nodes,
)
from ..core.splits import (
    candidate_beats,
    categorical_children_layout,
    encode_mask,
    pack_candidates,
)
from ..datagen.schema import Dataset
from ..tree.model import ContinuousSplit, DecisionTree, TreeNode

__all__ = ["SliqClassifier", "SliqStats"]


@dataclass
class SliqStats:
    """Measured cost profile of one SLIQ run."""

    #: bytes of the memory-resident class list (label + leaf per record)
    class_list_bytes: int = 0
    #: total attribute-list entries read across all level scans — SLIQ
    #: re-reads every list fully at every level
    entries_scanned: int = 0
    #: number of tree levels processed
    levels: int = 0
    #: per-level count of still-active (non-settled) records
    active_per_level: list = field(default_factory=list)


class SliqClassifier:
    """Serial SLIQ with exact shared split semantics."""

    def __init__(self, config: InductionConfig | None = None):
        self.config = config or InductionConfig()

    def fit(self, dataset: Dataset) -> tuple[DecisionTree, SliqStats]:
        """Induce the decision tree; returns (tree, cost profile)."""
        check_trainable(dataset, "induce")
        config = self.config
        schema = dataset.schema
        n = dataset.n_records
        n_classes = schema.n_classes
        stats = SliqStats()

        # presort once: (sorted values, rids) per continuous attribute;
        # categorical lists stay in record order
        sorted_lists: list[tuple[np.ndarray, np.ndarray]] = []
        for a, spec in enumerate(schema):
            col = dataset.columns[a]
            rids = np.arange(n, dtype=np.int64)
            if spec.is_continuous:
                order = np.lexsort((rids, col))
                sorted_lists.append((col[order].astype(np.float64),
                                     rids[order]))
            else:
                sorted_lists.append((col.astype(np.int64), rids))

        # the class list: label + current leaf of every record (resident)
        klass = dataset.labels.astype(np.int64)
        leaf_of = np.zeros(n, dtype=np.int64)  # all records start at root
        stats.class_list_bytes = int(klass.nbytes + leaf_of.nbytes)

        root_holder: list[TreeNode | None] = [None]
        # pending[k] = (parent, slot, depth) of active leaf k
        pending: list[tuple[TreeNode | None, int, int]] = [(None, 0, 0)]

        while pending:
            m = len(pending)
            stats.levels += 1
            live = leaf_of >= 0
            stats.active_per_level.append(int(np.count_nonzero(live)))

            totals = np.bincount(
                leaf_of[live] * n_classes + klass[live],
                minlength=m * n_classes,
            ).reshape(m, n_classes)
            depth_of = np.array([d for (_, _, d) in pending], dtype=np.int64)
            terminal = terminal_nodes(totals, depth_of, config)

            best = pack_candidates(m)
            cat_state: dict[tuple[int, int], tuple] = {}
            if not terminal.all():
                best, cat_state = self._find_splits(
                    sorted_lists, schema, klass, leaf_of, totals, ~terminal,
                    config, stats,
                )
            split_ok = ~terminal & accepted_splits(totals, best, config)

            # build nodes; assign next-level leaf ids
            child_base = np.zeros(m, dtype=np.int64)
            winner_attr = np.full(m, -1, dtype=np.int64)
            threshold = np.full(m, np.nan)
            layouts: dict[int, np.ndarray] = {}
            new_pending: list[tuple[TreeNode | None, int, int]] = []
            n_next = 0
            for k in range(m):
                parent, slot, depth = pending[k]
                if not split_ok[k]:
                    attach(root_holder, parent, slot,
                           new_leaf(totals[k], depth, parent))
                    continue
                attr = int(best[k, 1])
                layout = None
                if not schema[attr].is_continuous:
                    layout = categorical_children_layout(*cat_state[(attr, k)])
                node = split_node(schema, best[k], totals[k], depth, layout)
                attach(root_holder, parent, slot, node)
                winner_attr[k] = attr
                child_base[k] = n_next
                if isinstance(node, ContinuousSplit):
                    threshold[k] = node.threshold
                else:
                    layouts[k] = node.value_to_child.astype(np.int64)
                n_children = len(node.children)
                for c in range(n_children):
                    new_pending.append((node, c, depth + 1))
                n_next += n_children

            # the SLIQ splitting phase: pure class-list update
            next_leaf = np.full(n, -1, dtype=np.int64)
            for k in np.nonzero(split_ok)[0]:
                attr = winner_attr[k]
                values, rids = sorted_lists[attr]
                mine = live.copy()
                mine &= leaf_of == k
                in_node = mine[rids]
                if schema[attr].is_continuous:
                    child = (values[in_node] >= threshold[k]).astype(np.int64)
                else:
                    child = layouts[k][values[in_node]]
                next_leaf[rids[in_node]] = child_base[k] + child
            leaf_of = next_leaf
            pending = new_pending

        assert root_holder[0] is not None
        return DecisionTree(schema=schema, root=root_holder[0]), stats

    # ------------------------------------------------------------------

    def _find_splits(self, sorted_lists, schema, klass, leaf_of, totals,
                     candidate_nodes, config, stats):
        """One full scan of every attribute list (the SLIQ level scan)."""
        m = len(totals)
        best = pack_candidates(m)
        cat_state: dict[tuple[int, int], tuple] = {}

        for a, spec in enumerate(schema):
            values, rids = sorted_lists[a]
            stats.entries_scanned += len(values)  # SLIQ reads everything
            nodes = leaf_of[rids]
            live = nodes >= 0
            if spec.is_continuous:
                rows = self._scan_continuous(
                    values[live], nodes[live], klass[rids[live]],
                    totals, candidate_nodes, a, config,
                )
            else:
                rows = self._scan_categorical(
                    values[live], nodes[live], klass[rids[live]],
                    spec.n_values, totals, candidate_nodes, a, config,
                    cat_state,
                )
            take = candidate_beats(rows, best)
            best = np.where(take[:, None], rows, best)
        return best, cat_state

    @staticmethod
    def _scan_categorical(codes, nodes, labels, n_values, totals,
                          candidate_nodes, attr_index, config, cat_state):
        """Per-node best categorical candidate from one list scan; each
        node's (count matrix, subset mask) goes into
        ``cat_state[(attr_index, node)]`` for its child layout."""
        m, n_classes = totals.shape
        rows = pack_candidates(m)
        matrix = np.bincount(
            (nodes * n_values + codes) * n_classes + labels,
            minlength=m * n_values * n_classes,
        ).reshape(m, n_values, n_classes)
        for k in np.nonzero(candidate_nodes)[0]:
            score, mask = best_categorical_split(
                matrix[k], config.criterion,
                binary_subsets=config.categorical_binary_subsets,
                exhaustive_limit=config.subset_exhaustive_limit,
            )
            if np.isfinite(score):
                code = encode_mask(mask) if mask is not None else 0.0
                rows[k] = (score, float(attr_index), code)
                cat_state[(attr_index, int(k))] = (matrix[k], mask)
        return rows

    @staticmethod
    def _scan_continuous(values, nodes, labels, totals, candidate_nodes,
                         attr_index, config):
        """Per-node best (score, threshold) from one sorted-list scan."""
        m, n_classes = totals.shape
        out = pack_candidates(m)
        n_live = len(values)
        if n_live == 0:
            return out
        # group by node (stable keeps sorted value order inside each node)
        perm = np.argsort(nodes, kind="stable")
        v = values[perm]
        lab = labels[perm]
        node_sorted = nodes[perm]
        # exclusive per-class cumulative counts within node segments
        excl = np.empty((n_live, n_classes), dtype=np.int64)
        for j in range(n_classes):
            onehot = lab == j
            cum = np.cumsum(onehot)
            excl[:, j] = cum - onehot
        starts = np.concatenate(([True], node_sorted[1:] != node_sorted[:-1]))
        seg_start_idx = np.nonzero(starts)[0]
        seg_of = np.cumsum(starts) - 1
        seg_base = excl[seg_start_idx]
        left = excl - seg_base[seg_of]
        valid = np.concatenate(([False], v[1:] > v[:-1])) & ~starts
        valid &= candidate_nodes[node_sorted]
        if not valid.any():
            return out
        v_nodes = node_sorted[valid]
        v_thr = v[valid]
        scores = split_score_from_left(left[valid], totals[v_nodes],
                                       config.criterion)
        order = np.lexsort((v_thr, scores, v_nodes))
        first = np.unique(v_nodes[order], return_index=True)[1]
        pick = order[first]
        winners = v_nodes[order][first]
        out[winners, 0] = scores[pick]
        out[winners, 1] = float(attr_index)
        out[winners, 2] = v_thr[pick]
        return out
