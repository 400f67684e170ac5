"""Phase-attribution accounting (Figure 2's phase names on the clock)."""

from __future__ import annotations

import pytest

from repro import ScalParC, paper_dataset
from repro.core.phases import (
    ALL_PHASES,
    FINDSPLIT1,
    FINDSPLIT2,
    PERFORMSPLIT1,
    PERFORMSPLIT2,
    PRESORT,
    timed_phase,
)
from repro.perfmodel import CRAY_T3D, RankTracker


def test_timed_phase_attributes_clock_delta():
    t = RankTracker(0, CRAY_T3D)
    with timed_phase(t, "work"):
        t.add_compute("scan", 1000)
    assert t.phase_seconds["work"] == pytest.approx(
        1000 * CRAY_T3D.cost_of("scan")
    )


def test_timed_phase_nested_double_counts_inner():
    t = RankTracker(0, CRAY_T3D)
    with timed_phase(t, "outer"):
        with timed_phase(t, "inner"):
            t.add_compute("scan", 100)
    assert t.phase_seconds["outer"] == t.phase_seconds["inner"]


def test_timed_phase_records_on_exception():
    t = RankTracker(0, CRAY_T3D)
    with pytest.raises(RuntimeError):
        with timed_phase(t, "broken"):
            t.add_compute("scan", 50)
            raise RuntimeError
    assert t.phase_seconds["broken"] > 0


def test_timed_phase_noop_on_null_perf():
    from repro.runtime.communicator import NullPerf

    perf = NullPerf()
    with timed_phase(perf, "x"):
        pass  # must not raise


@pytest.fixture(scope="module")
def fit_stats():
    return ScalParC(6).fit(paper_dataset(3000, "F2", seed=0)).stats


def test_all_phases_present(fit_stats):
    for phase in ALL_PHASES:
        assert phase in fit_stats.phase_seconds, f"missing {phase}"
        assert fit_stats.phase_seconds[phase] > 0


def test_phases_cover_most_of_runtime(fit_stats):
    covered = sum(fit_stats.phase_seconds.values())
    assert covered > 0.8 * fit_stats.parallel_time
    # and don't wildly over-count (max-over-ranks introduces slight excess)
    assert covered < 1.3 * fit_stats.parallel_time


def test_presort_measured_once(fit_stats):
    # presort happens before level 0 and is a minority of a deep induction
    assert fit_stats.phase_seconds[PRESORT] < fit_stats.parallel_time


def test_phase_names_are_the_figure2_set():
    assert set(ALL_PHASES) == {
        PRESORT, FINDSPLIT1, FINDSPLIT2, PERFORMSPLIT1, PERFORMSPLIT2
    }


@pytest.mark.parametrize("config", [
    {},
    {"fused_collectives": False},
    {"split_mode": "histogram"},
], ids=["fused", "unfused", "histogram"])
def test_subset_search_runs_in_findsplit2(monkeypatch, config):
    """The coordinator's categorical scoring is FindSplitII work (§4):
    at every subset search of a traced F7 fit, the calling rank's
    collective tracer is tagged FindSplitII."""
    import sys

    from repro.core import InductionConfig, criteria
    from repro.runtime import TraceCollector

    search = criteria.best_binary_subset
    seen: list[str | None] = []

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            tracer = getattr(frame.f_locals.get("comm"), "_tracer", None)
            if tracer is not None:
                seen.append(tracer.phase)
                break
            frame = frame.f_back
        else:
            seen.append("no traced caller")
        return search(*args, **kwargs)

    monkeypatch.setattr(criteria, "best_binary_subset", recording)
    ScalParC(2, config=InductionConfig(categorical_binary_subsets=True,
                                       **config),
             machine=None, backend="thread").fit(
        paper_dataset(1500, "F7", seed=3), trace=TraceCollector()
    )
    assert seen
    assert set(seen) == {FINDSPLIT2}
