"""Typed environment-variable parsing (the shared env_int/env_float).

A malformed integer in a knob like ``REPRO_SPMD_TIMEOUT`` used to
surface as a bare ``ValueError: invalid literal for int()`` with no hint
of *which* variable was bad.  The shared helpers raise
:class:`EnvVarError` naming the variable and the offending value, and
every runtime knob resolver routes through them.
"""

from __future__ import annotations

import pytest

from repro.runtime.engines.base import TIMEOUT_ENV, resolve_timeout
from repro.runtime.engines.tcp import HB_ENV, resolve_hb_interval
from repro.runtime.envutil import EnvVarError, env_float, env_int
from repro.runtime.framing import MAX_FRAME_ENV, resolve_max_frame


def test_env_int_default_when_unset_or_blank(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_int("REPRO_TEST_KNOB", 7) == 7
    assert env_int("REPRO_TEST_KNOB") is None
    monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
    assert env_int("REPRO_TEST_KNOB", 7) == 7


def test_env_int_parses_and_strips(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", " 42 ")
    assert env_int("REPRO_TEST_KNOB") == 42
    monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
    assert env_int("REPRO_TEST_KNOB") == -3


def test_env_float_parses(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
    assert env_float("REPRO_TEST_KNOB") == 2.5
    monkeypatch.delenv("REPRO_TEST_KNOB")
    assert env_float("REPRO_TEST_KNOB", 0.25) == 0.25


@pytest.mark.parametrize("raw", ["abc", "1.5x", "--", "0x10"])
def test_env_int_names_variable_and_value(monkeypatch, raw):
    monkeypatch.setenv("REPRO_TEST_KNOB", raw)
    with pytest.raises(EnvVarError) as err:
        env_int("REPRO_TEST_KNOB")
    assert "REPRO_TEST_KNOB" in str(err.value)
    assert repr(raw) in str(err.value)
    assert isinstance(err.value, ValueError)    # stays catchable as before


def test_env_float_names_variable_and_value(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
    with pytest.raises(EnvVarError, match="REPRO_TEST_KNOB.*'fast'"):
        env_float("REPRO_TEST_KNOB")


# -- every knob resolver routes through the helpers --------------------


def test_timeout_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(TIMEOUT_ENV, "soon")
    with pytest.raises(EnvVarError, match=TIMEOUT_ENV):
        resolve_timeout(None)


def test_max_frame_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(MAX_FRAME_ENV, "big")
    with pytest.raises(EnvVarError, match=MAX_FRAME_ENV):
        resolve_max_frame(None)


def test_heartbeat_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(HB_ENV, "never")
    with pytest.raises(EnvVarError, match=HB_ENV):
        resolve_hb_interval()

