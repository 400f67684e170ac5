"""Ablations of the design choices DESIGN.md §6 calls out.

* **Per-level vs per-node communication** (§3.1): ScalParC batches all
  splitting-phase communication per tree level; issuing it per node
  multiplies the number of collectives by the node count, and the latency
  term explodes deep in the tree where nodes are many and small.
* **Multiway vs binary-subset categorical splits** (footnote 1): subset
  splits cost more at split time but fragment the data less.
* **Gini vs entropy** (extension): same machinery, different index.
* **Latency batching** (extension): ``fused_collectives`` defaults on —
  it strictly reduces the number of engine rendezvous without changing
  the tree.  Turning it off reproduces the historical per-attribute
  FindSplit schedule.
"""

from __future__ import annotations

from conftest import SCALE, dataset_factory, emit

from repro import ScalParC, accuracy
from repro.analysis import format_table
from repro.core import InductionConfig
from repro.datagen import paper_dataset

N = int(10_000 * SCALE)
P = 8


def test_per_level_vs_per_node_communication(benchmark):
    # 2% label noise forces a bushy tree — many nodes per level, which is
    # exactly where per-node communication latency explodes (§3.1)
    ds = paper_dataset(N, "F2", seed=1, perturbation=0.02)
    per_level_cfg = InductionConfig(max_depth=8)
    per_node_cfg = InductionConfig(max_depth=8, per_node_communication=True)

    level = ScalParC(P, config=per_level_cfg).fit(ds)
    benchmark.pedantic(
        lambda: ScalParC(P, config=per_node_cfg).fit(ds),
        rounds=1, iterations=1,
    )
    node = ScalParC(P, config=per_node_cfg).fit(ds)

    assert node.tree.structurally_equal(level.tree)
    lc = sum(level.stats.collective_counts.values())
    nc = sum(node.stats.collective_counts.values())
    rows = [
        ["per-level (paper)", lc, f"{level.stats.parallel_time:.3f}",
         f"{level.stats.comm_time_max:.3f}"],
        ["per-node (ablated)", nc, f"{node.stats.parallel_time:.3f}",
         f"{node.stats.comm_time_max:.3f}"],
    ]
    text = format_table(
        ["variant", "collective steps", "modeled T_p (s)", "comm time (s)"],
        rows,
        title=f"§3.1 ablation: communication batching (N={N}, p={P}, "
              "depth≤8, 2% noise, identical trees)",
    )
    emit("ablation_per_node_comm", text)

    # per-node communication needs many times more collective steps and
    # pays for it in modeled runtime
    assert nc > 3 * lc
    assert node.stats.parallel_time > 1.5 * level.stats.parallel_time


def test_latency_batching_ablations(benchmark):
    ds = paper_dataset(N, "F2", seed=1)
    variants = [
        ("fused (default)", InductionConfig(max_depth=8)),
        ("no fused collectives",
         InductionConfig(max_depth=8, fused_collectives=False)),
    ]

    benchmark.pedantic(
        lambda: ScalParC(P, config=variants[0][1]).fit(ds),
        rounds=1, iterations=1,
    )

    runs = [(name, ScalParC(P, config=cfg).fit(ds))
            for name, cfg in variants]
    rows = [
        [name, sum(r.stats.collective_counts.values()),
         f"{r.stats.parallel_time:.3f}"]
        for name, r in runs
    ]
    text = format_table(
        ["variant", "collective steps", "modeled T_p (s)"], rows,
        title=f"Latency-batching ablation: fused collectives "
              f"(N={N}, p={P}, identical trees)",
    )
    emit("ablation_latency_batching", text, data={
        "n": N, "p": P,
        "rows": [
            {"variant": name,
             "collective_steps": sum(r.stats.collective_counts.values()),
             "modeled_parallel_time_s": r.stats.parallel_time}
            for name, r in runs
        ],
    })

    # fusion may not change the tree, and it strictly cuts rendezvous
    (_, fused), (_, unfused) = runs
    assert unfused.tree.structurally_equal(fused.tree)
    assert sum(unfused.stats.collective_counts.values()) \
        > sum(fused.stats.collective_counts.values())


def test_multiway_vs_subset_categorical(benchmark):
    # F3's concept is categorical (elevel bands); 2% noise additionally
    # provokes spurious splits on the 20-valued `car` attribute, where the
    # multiway form fragments hardest
    train = paper_dataset(N, "F3", seed=1, perturbation=0.02)
    test = paper_dataset(max(N // 4, 1000), "F3", seed=99)

    multi = ScalParC(P).fit(train)
    benchmark.pedantic(
        lambda: ScalParC(
            P, config=InductionConfig(categorical_binary_subsets=True)
        ).fit(train),
        rounds=1, iterations=1,
    )
    subset = ScalParC(
        P, config=InductionConfig(categorical_binary_subsets=True)
    ).fit(train)

    rows = []
    for name, r in (("multiway (paper)", multi), ("binary subsets", subset)):
        rows.append([
            name, r.tree.n_nodes, r.tree.n_leaves, r.tree.depth,
            f"{accuracy(r.tree, train):.4f}", f"{accuracy(r.tree, test):.4f}",
        ])
    text = format_table(
        ["categorical splits", "nodes", "leaves", "depth",
         "train acc", "test acc"],
        rows,
        title=f"Footnote-1 ablation: categorical split form "
              f"(Quest F3 + 2% noise, N={N})",
    )
    emit("ablation_categorical", text)

    # subset splits fragment less on high-arity attributes (car: 20 values)
    assert subset.tree.n_leaves < multi.tree.n_leaves
    assert accuracy(subset.tree, test) > accuracy(multi.tree, test) - 0.02


def test_gini_vs_entropy(benchmark):
    train = paper_dataset(N, "F6", seed=2)
    test = paper_dataset(max(N // 4, 1000), "F6", seed=98)

    gini = ScalParC(P).fit(train)
    benchmark.pedantic(
        lambda: ScalParC(
            P, config=InductionConfig(criterion="entropy")
        ).fit(train),
        rounds=1, iterations=1,
    )
    entropy = ScalParC(
        P, config=InductionConfig(criterion="entropy")
    ).fit(train)

    rows = []
    for name, r in (("gini (paper)", gini), ("entropy", entropy)):
        rows.append([
            name, r.tree.n_nodes, r.tree.depth,
            f"{accuracy(r.tree, test):.4f}",
            f"{r.stats.parallel_time:.3f}",
        ])
    text = format_table(
        ["criterion", "nodes", "depth", "test acc", "modeled T_p (s)"],
        rows,
        title=f"Criterion ablation (Quest F6, N={N})",
    )
    emit("ablation_criterion", text)

    # both criteria must learn the concept comparably well
    assert accuracy(gini.tree, test) > 0.85
    assert accuracy(entropy.tree, test) > 0.85
