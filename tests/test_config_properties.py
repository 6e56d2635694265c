"""Property tests of the config format: for every mode, a config of the keys
that mode reads round-trips through ``render_config``/``parse_config``, and
any other key is rejected.  ``simulate`` reads every key."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spfc.config import KEYS, MODES, ConfigError, parse_config, render_config


def _reals(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw).map(repr)


@st.composite
def _schedules(draw):
    """Segments of whole numbers of steps, so every drawn schedule is valid."""
    t_end, parts = 0.0, []
    for dt, steps in draw(st.lists(st.tuples(st.sampled_from([0.01, 0.05, 0.1, 0.25]),
                                             st.integers(1, 40)), min_size=1, max_size=3)):
        t_end += steps * dt
        parts.append(f"{dt!r}:{t_end!r}")
    return ", ".join(parts)


_point = _reals(0.0, 1.0, exclude_max=True)  # inside every box, whose edge is >= 1

# text of a valid value for each key
VALUES = {
    "grid.n": st.integers(3, 512).map(str),
    "grid.length": _reals(1.0, 1e3),
    "model.epsilon": _reals(0.0, 1.0, exclude_min=True, exclude_max=True),
    "model.A": _reals(0.0, 10.0),
    "model.scheme": st.sampled_from(["bdf2_es_1", "bdf2_es_2"]),
    "schedule": _schedules(),
    "output_dir": st.from_regex(r"[a-z0-9_./-]{1,12}", fullmatch=True),
    "seed": st.integers(0, 2**63).map(str),
    "snapshot_times": st.lists(_reals(0.0, 1e4), max_size=4).map(",".join),
    "init.amplitude": _reals(0.0, 1.0),
    "init.sites": st.lists(st.tuples(_point, _point, _reals(-10.0, 10.0)), max_size=3).map(
        lambda sites: "; ".join(":".join(site) for site in sites)
    ),
    "init.site_profile": st.sampled_from(["node", "gaussian"]),
    "solver.tol": _reals(1e-14, 0.5),
}


def test_every_key_has_a_strategy():
    assert set(VALUES) == set(KEYS) - {"mode"}


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_mode_keys_round_trip(mode, data):
    readable = sorted(k for k, key in KEYS.items() if mode in key.modes and k != "mode")
    chosen = data.draw(st.lists(st.sampled_from(readable), unique=True))
    if mode == "simulate" and "schedule" not in chosen:
        chosen.append("schedule")
    values = {k: data.draw(VALUES[k]) for k in chosen}
    if "snapshot_times" in values:  # valid only up to the schedule's end
        t_end = float(values["schedule"].rpartition(":")[2])
        values["snapshot_times"] = data.draw(st.lists(_reals(0.0, t_end), max_size=4).map(",".join))
    text = f"mode = {mode}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg = parse_config(text)
    again = parse_config(render_config(cfg))
    assert render_config(again) == render_config(cfg)
    assert again.pattern.grid() == cfg.pattern.grid()
    assert again.pattern.params() == cfg.pattern.params()
    assert again.tol == cfg.tol
    assert (again.output_dir, again.snapshot_times) == (cfg.output_dir, cfg.snapshot_times)


def test_simulate_reads_every_key():
    assert [k for k, spec in KEYS.items() if "simulate" not in spec.modes] == []


@pytest.mark.parametrize("mode", [m for m in MODES if m != "simulate"])
@given(data=st.data())
def test_keys_outside_the_mode_are_rejected(mode, data):
    key = data.draw(st.sampled_from(sorted(k for k, spec in KEYS.items() if mode not in spec.modes)))
    with pytest.raises(ConfigError, match=rf"'{key}' .*not read in mode '{mode}'"):
        parse_config(f"mode = {mode}\n{key} = {data.draw(VALUES[key])}\n")
