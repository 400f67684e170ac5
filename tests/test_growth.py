"""The growth rules and cut protocol both induction drivers share.

* checkpoint cuts are validated in one place, identically for the batch
  and the streaming driver: a cut from the other driver, another schema,
  or other tree-shaping settings is refused; a scheduling-only knob
  change still resumes to the same tree;
* continuous columns must not hold NaN (every driver's comparisons would
  route it differently from the serial reference); ±inf is an ordinary
  value;
* untrainable datasets (no records, no attributes) are refused by every
  driver and baseline;
* an empty child takes its parent's majority label;
* the subset-mask codec round-trips.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.baselines import (
    SliqClassifier,
    SprintClassifier,
    VerticalSliqClassifier,
    induce_serial,
)
from repro.core import InductionConfig, ScalParC
from repro.core.growth import new_leaf
from repro.core.splits import decode_mask, encode_mask
from repro.datagen import Dataset, generate_quest, load_csv, save_csv
from repro.runtime import CheckpointConfig, CheckpointError, SpmdWorkerError

from tests.conftest import assert_trees_equal

LOSSLESS = {"sketch_size": 8192, "stream_chunk_records": 300}


def _fit(driver: str, ds: Dataset, cfg: InductionConfig,
         ckpt: str | None = None, resume: bool | str = False, p: int = 2):
    """Fit with ``driver``; a fresh checkpointed streaming fit stops
    after its first epoch so a resume has real work left."""
    clf = ScalParC(p, cfg, machine=None)
    checkpoint = None if ckpt is None \
        else CheckpointConfig(dir=ckpt, resume=resume, keep=0)
    if driver == "batch":
        return clf.fit(ds, checkpoint=checkpoint)
    max_epochs = 1 if ckpt is not None and resume is False else None
    return clf.fit_stream(ds, checkpoint=checkpoint, max_epochs=max_epochs)


def _refusal(excinfo) -> str:
    """The CheckpointError a refused resume raised (on any rank)."""
    exc = excinfo.value
    errors = exc.failures.values() if isinstance(exc, SpmdWorkerError) \
        else [exc]
    hits = [e for e in errors if isinstance(e, CheckpointError)]
    assert hits, f"expected a CheckpointError, got {exc!r}"
    return str(hits[0])


def _base(driver: str) -> InductionConfig:
    return InductionConfig(**LOSSLESS) if driver == "stream" \
        else InductionConfig()


#: one change per knob of each driver's config fingerprint (the shared
#: base list, then the driver's own extras)
_BASE_KNOBS = [
    {"max_depth": 3},
    {"min_split_records": 50},
    {"min_improvement": 0.01},
    {"criterion": "entropy"},
    {"categorical_binary_subsets": True},
    {"subset_exhaustive_limit": 2},
]
_KNOB_CASES = (
    [("batch", k) for k in _BASE_KNOBS + [
        {"split_mode": "histogram"},
        {"split_mode": "histogram", "n_bins": 16},
        {"split_mode": "voted", "n_bins": 8, "vote_top_k": 2},
    ]]
    + [("stream", k) for k in _BASE_KNOBS + [
        {"stream_chunk_records": 200},
        {"sketch_size": 64},
        {"stream_grow_records": 100},
        {"stream_reopen_delta": 0.2},
    ]]
)


def _case_id(case) -> str:
    driver, knobs = case
    return driver + "-" + "-".join(f"{k}={v}" for k, v in knobs.items())


@pytest.mark.parametrize("case", [
    # --- cut from the other driver -------------------------------------
    ("batch", "stream-cut"),
    ("stream", "batch-cut"),
    # --- schema mismatch -------------------------------------------------
    ("batch", "schema"),
    ("stream", "schema"),
    # --- every tree-shaping knob ----------------------------------------
    *_KNOB_CASES,
], ids=lambda c: _case_id(c) if isinstance(c[1], dict) else "-".join(c))
def test_cut_validation_refuses_mismatched_resume(tmp_path, case):
    driver, change = case
    ds = generate_quest(600, "F2", seed=4)
    ckpt = str(tmp_path / "cut")
    cfg = _base(driver)
    resume_ds = ds
    if change == "stream-cut":
        _fit("stream", ds, _base("stream"), ckpt)
        expect = "scalparc-streaming"
    elif change == "batch-cut":
        _fit("batch", ds, _base("batch"), ckpt)
        expect = "scalparc-induction"
    elif change == "schema":
        _fit(driver, ds, cfg, ckpt)
        names = [spec.name for spec in ds.schema]
        resume_ds = Dataset(schema=ds.schema.select(names[:-1]),
                            columns=ds.columns[:-1], labels=ds.labels)
        expect = "schema"
    else:
        _fit(driver, ds, cfg, ckpt)
        cfg = dataclasses.replace(cfg, **change)
        expect = "tree-shaping settings"
    with pytest.raises((SpmdWorkerError, CheckpointError)) as excinfo:
        _fit(driver, resume_ds, cfg, ckpt, resume=True)
    assert expect in _refusal(excinfo)


@pytest.mark.parametrize("driver", ["batch", "stream"])
def test_scheduling_knob_change_still_resumes(tmp_path, driver):
    """``fused_collectives`` reorders messages, never the tree: a cut
    taken fused resumes unfused (on another world size, too) to the
    uninterrupted run's tree."""
    ds = generate_quest(600, "F2", seed=4)
    cfg = _base(driver)
    one_shot = _fit(driver, ds, cfg)
    ckpt = str(tmp_path / "cut")
    _fit(driver, ds, cfg, ckpt)
    # batch: rewind to an early level cut; stream: the first epoch's cut
    resume = os.path.join(ckpt, "level-0002", "manifest.json") \
        if driver == "batch" else True
    unfused = dataclasses.replace(cfg, fused_collectives=False)
    resumed = _fit(driver, ds, unfused, ckpt, resume=resume, p=3)
    assert_trees_equal(one_shot.tree.root, resumed.tree.root,
                       f"{driver} resume with fused_collectives flipped")


def test_lossless_stream_matches_batch_with_subset_splits():
    """Binary-subset categorical winners travel between ranks as packed
    ``encode_mask`` codes; the streaming driver decodes them into the
    same split nodes the batch driver builds."""
    ds = generate_quest(3000, "F7", seed=3)
    cfg = InductionConfig(categorical_binary_subsets=True, **LOSSLESS)
    batch = ScalParC(3, cfg, machine=None).fit(ds)
    stream = ScalParC(3, cfg, machine=None).fit_stream(ds)
    assert_trees_equal(batch.tree.root, stream.tree.root,
                       "streaming vs batch with binary subsets")


#: a one-call fit of every driver and baseline, and the error it raises
#: on an untrainable dataset (SPMD workers refuse it on their ranks)
_UNTRAINABLE_FITS = {
    "batch": (lambda ds: _fit("batch", ds, _base("batch")), SpmdWorkerError),
    "stream": (lambda ds: _fit("stream", ds, _base("stream")),
               SpmdWorkerError),
    "sliq": (lambda ds: SliqClassifier().fit(ds), ValueError),
    "sliq-r": (lambda ds: VerticalSliqClassifier(2, machine=None).fit(ds),
               SpmdWorkerError),
    "sprint": (lambda ds: SprintClassifier().fit(ds), ValueError),
}


@pytest.mark.parametrize("driver", list(_UNTRAINABLE_FITS))
def test_untrainable_dataset_is_refused(driver):
    fit, error = _UNTRAINABLE_FITS[driver]
    ds = generate_quest(10, "F2", seed=0)
    no_attributes = Dataset(schema=ds.schema.select([]), columns=[],
                            labels=ds.labels)
    for bad, reason in ((ds.take(np.arange(0)), "empty dataset"),
                        (no_attributes, "no attributes")):
        with pytest.raises(error, match=reason):
            fit(bad)


def test_empty_leaf_inherits_parent_majority():
    parent = new_leaf(np.array([3, 9, 1]), 0, None)
    assert new_leaf(np.array([4, 0, 2]), 1, parent).label == 0
    empty = new_leaf(np.zeros(3, dtype=np.int64), 1, parent)
    assert (empty.label, empty.n_records) == (1, 0)


# ----------------------------------------------------------------------
# non-finite continuous values
# ----------------------------------------------------------------------


def _with_first_continuous(ds: Dataset, fill: np.ndarray) -> Dataset:
    """``ds`` with every 7th value of its first continuous column
    replaced by the cycled ``fill`` values."""
    attr = ds.schema.continuous_indices[0]
    col = ds.columns[attr].copy()
    idx = np.arange(0, ds.n_records, 7)
    col[idx] = np.resize(fill, len(idx))
    columns = list(ds.columns)
    columns[attr] = col
    return Dataset(schema=ds.schema, columns=columns, labels=ds.labels)


def test_dataset_rejects_nan_in_continuous_column():
    ds = generate_quest(2000, "F2", seed=0)
    name = ds.schema[ds.schema.continuous_indices[0]].name
    with pytest.raises(ValueError, match=f"{name!r}.*NaN"):
        _with_first_continuous(ds, np.array([np.nan]))


def test_csv_loader_rejects_nan(tmp_path):
    ds = generate_quest(30, "F2", seed=0)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[ds.schema.continuous_indices[0]] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="NaN"):
        load_csv(path, ds.schema)


@pytest.mark.parametrize("p", [1, 2])
def test_infinite_values_are_accepted_and_match_serial(p):
    ds = _with_first_continuous(generate_quest(2000, "F2", seed=0),
                                np.array([np.inf, -np.inf]))
    golden = induce_serial(ds)
    tree = ScalParC(p, machine=None).fit(ds).tree
    assert tree.structurally_equal(golden)


# ----------------------------------------------------------------------
# subset-mask codec
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_values", [1, 5, 52])
def test_decode_mask_inverts_encode_mask(n_values):
    rng = np.random.default_rng(n_values)
    for _ in range(20):
        mask = rng.random(n_values) < 0.5
        np.testing.assert_array_equal(
            decode_mask(encode_mask(mask), n_values), mask)
