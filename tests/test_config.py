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


@pytest.mark.parametrize("value", [0.0, -0.1, 0.5, 0.6])
def test_integer_rounding_margin_must_lie_below_one_half(value):
    # at a margin of 1/2 or more every sum is within the margin of an
    # integer, so gauss_link would round a bad sum without a word
    with pytest.raises(ValueError, match="integer_rounding_margin"):
        Config(integer_rounding_margin=value)


def test_integer_rounding_margin_inside_the_interval_is_accepted():
    assert Config(integer_rounding_margin=0.49).integer_rounding_margin == 0.49


@pytest.mark.parametrize("key", [
    "newton_tol", "trace_corrector_tol", "trace_closure_tol",
    "min_image_separation", "jacobian_min_det", "push_distance"])
@pytest.mark.parametrize("value", [0.0, -1e-6])
def test_tolerances_must_be_positive(key, value):
    with pytest.raises(ValueError, match=key):
        Config(**{key: value})


@pytest.mark.parametrize("key", ["newton_max_iter", "trace_max_steps"])
@pytest.mark.parametrize("value", [0, -1])
def test_iteration_caps_must_be_at_least_one(key, value):
    # no Newton step or tracer step would leave every solve unconverged
    with pytest.raises(ValueError, match=key):
        Config(**{key: value})


@pytest.mark.parametrize("value", [-1, 1.5, "7", True])
def test_seed_must_be_a_non_negative_integer(value):
    # numpy's generators reject a negative seed deep inside an engine
    with pytest.raises(ValueError, match="seed"):
        Config(seed=value)

