"""Configuration: every key is read by the package, bad values are rejected."""

import dataclasses
import re
from pathlib import Path

import pytest

import genimm
from genimm.config import Config


def test_every_config_key_is_read_outside_config():
    package = Path(genimm.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8")
                       for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Config)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []


def test_trace_coarse_factor_must_be_at_least_one():
    with pytest.raises(ValueError, match="trace_coarse_factor"):
        Config(trace_coarse_factor=0)


@pytest.mark.parametrize("key, value", [
    ("double_seed_rings", 0), ("pair_seed_radius", 0.0),
    ("pair_seed_radius", -0.08), ("min_preimage_separation", 0.0),
    ("double_trace_step", -5e-3), ("fd_step", 0.0), ("trace_step", 0.0)])
def test_double_curve_keys_must_be_positive(key, value):
    with pytest.raises(ValueError, match=key):
        Config(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("degree_grid", 0), ("curve_points", 2), ("apex_retries", 0)])
def test_count_keys_below_their_least_value_are_rejected(key, value):
    # an empty box grid would read as degree 0 and Hopf 0, fewer than 3
    # curve points make no closed polyline, and no direction or apex
    # gives no count
    with pytest.raises(ValueError, match=key):
        Config(**{key: value})
