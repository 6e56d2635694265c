"""Run configuration: the line-oriented ``key = value`` format, parsed
straight into the objects a run uses.

Format
------
UTF-8 text, one ``key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Keys use dotted section prefixes.  Unknown keys are
errors (typo protection), and so is a key the run's mode does not read.
Numbers must be finite.  Each key sets a field of :class:`RunConfig` or of
its ``pattern`` (:class:`spfc.harness.PatternConfig`, whose constructor holds
the range checks); ``solver.tol`` sets ``RunConfig.tol``, range-checked as it
is parsed (:func:`spfc.psd.check_tol`).
The keys, their defaults and the modes that read them (*sim* is
``simulate``, *conv* is ``conv_space`` and ``conv_time``):

====================  =======================  ===============================  ============
key                   default                  meaning / constraints            read by
====================  =======================  ===============================  ============
mode                  (from CLI subcommand)    simulate | conv_space | ...      all
output_dir            out                      created if missing               all
grid.n                256                      points per axis, >= 3; a field   sim
                                               numpy can index
grid.length           100.0                    box edge length > 0, with        sim
                                               (2 pi/L)^2, L^2, h^2 in range
model.epsilon         0.5                      in (0, 1)                        sim, conv
model.A               epsilon^2 / 16           regularization, >= 0             sim, conv
model.scheme          bdf2_es_1                bdf2_es_1 | bdf2_es_2            sim, conv
schedule              (required for simulate)  comma list of dt:t_end; whole    sim
                                               steps of dt > 0 (dt^2 finite),
                                               t_end rising
seed                  0                        RNG seed, >= 0                   sim
snapshot_times        1,10,20,40,100,200       comma list of reals from 0 to    sim
                      (those in the schedule)  the schedule's end, or empty
init.amplitude        0.05                     uniform noise amplitude, >= 0    sim
init.sites            (empty)                  x:y:magnitude; ... inside box    sim
init.site_profile     node                     node | gaussian                  sim
solver.tol            1e-9                     in (0, 1); the floor that ends   sim
                                               every solve (``spfc.psd``)
====================  =======================  ===============================  ============
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .harness import DEFAULT_SNAPSHOT_TIMES, PatternConfig
from .model import Scheme
from .psd import TOL, check_tol

__all__ = ["RunConfig", "ConfigError", "KEYS", "parse_config", "render_config"]

MODES = ("simulate", "conv_space", "conv_time", "verify")


class ConfigError(ValueError):
    """Invalid configuration; names the offending key and source line."""

    def __init__(self, key: str, line: object, message: str):
        self.key = key
        self.line = line
        super().__init__(f"config key {key!r} (line {line}): {message}")


@dataclass
class RunConfig:
    """A parsed run: its mode, the problem it runs, its solver's floor and
    its output."""

    mode: str
    pattern: PatternConfig = field(default_factory=PatternConfig)
    tol: float = TOL
    output_dir: str = "out"
    snapshot_times: tuple = DEFAULT_SNAPSHOT_TIMES


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {raw!r}")
        return raw

    return parse


def _list(sep: str, form: str) -> Callable[[str], tuple]:
    """Parser of a ``sep``-separated list of ``form`` (``"dt:t_end"``) items."""

    def item(part: str):
        bits = part.split(":")
        if len(bits) != form.count(":") + 1:
            raise ValueError(f"{part!r} is not {form}")
        numbers = tuple(map(_number, bits))
        return numbers if len(numbers) > 1 else numbers[0]

    return lambda raw: tuple(item(p.strip()) for p in raw.split(sep) if p.strip())


def _joined(sep: str) -> Callable[[tuple], str]:
    return lambda items: sep.join(
        ":".join(map(repr, item)) if isinstance(item, tuple) else repr(item) for item in items
    )


class Key(NamedTuple):
    """A config key: the field it sets (``"pattern.n"``), its parser, the modes
    that read it, and how :func:`render_config` writes it (``value``, ``text``)."""

    name: str
    path: str
    parse: Callable[[str], object]
    modes: tuple
    text: Callable[[object], str] = str
    value: Optional[Callable[[RunConfig], object]] = None


_SIM = ("simulate",)
_MODEL = ("simulate", "conv_space", "conv_time")

# in the order render_config writes them
KEYS = {
    key.name: key
    for key in (
        Key("mode", "mode", _choice(*MODES), MODES),
        Key("grid.n", "pattern.n", _integer, _SIM),
        Key("grid.length", "pattern.length", _number, _SIM),
        Key("model.epsilon", "pattern.epsilon", _number, _MODEL),
        Key("model.A", "pattern.reg_a", _number, _MODEL,
            value=lambda cfg: cfg.pattern.params().reg_a),
        Key("model.scheme", "pattern.scheme", Scheme, _MODEL, text=attrgetter("value")),
        Key("schedule", "pattern.dt_schedule", _list(",", "dt:t_end"), _SIM, text=_joined(", ")),
        Key("output_dir", "output_dir", str, MODES),
        Key("seed", "pattern.seed", _integer, _SIM),
        Key("snapshot_times", "snapshot_times", _list(",", "a time"), _SIM,
            text=lambda times: "" if times == DEFAULT_SNAPSHOT_TIMES else _joined(",")(times)),
        Key("init.amplitude", "pattern.amplitude", _number, _SIM),
        Key("init.sites", "pattern.sites", _list(";", "x:y:magnitude"), _SIM,
            text=_joined("; ")),
        Key("init.site_profile", "pattern.site_profile", str, _SIM),
        Key("solver.tol", "tol", lambda raw: check_tol(_number(raw)), _SIM),
    )
}


def parse_config(
    text: str, mode: Optional[str] = None, overrides: tuple = ()
) -> RunConfig:
    """Parse (and fully validate) a configuration.

    ``mode`` supplies the subcommand default; a ``mode`` key in the text must
    agree with it.  ``overrides`` are ``key=value`` strings applied after the
    file (their "line" in error messages is the override itself).
    """
    assignments: list[tuple[str, str, object]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(stripped, lineno, "expected key = value")
        key, _, value = stripped.partition("=")
        assignments.append((key.strip(), value.strip(), lineno))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "--set", "expected key=value")
        key, _, value = item.partition("=")
        assignments.append((key.strip(), value.strip(), f"--set {item}"))

    fields: dict = {"": {}, "pattern": {}}
    origin = {}  # key -> where it was last set
    for key, value, line in assignments:
        spec = KEYS.get(key)
        if spec is None:
            raise ConfigError(key, line, "unknown key")
        try:
            parsed = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(key, line, str(exc)) from None
        if key == "mode" and mode is not None and parsed != mode:
            raise ConfigError(key, line, f"mode {parsed!r} conflicts with subcommand {mode!r}")
        owner, _, name = spec.path.rpartition(".")
        fields[owner][name] = parsed
        origin[key] = line
    run_mode = fields[""].setdefault("mode", mode)
    if not run_mode:
        raise ConfigError("mode", "(missing)", "mode is required")
    for key, line in origin.items():
        if run_mode not in KEYS[key].modes:
            raise ConfigError(key, line, f"not read in mode {run_mode!r}")
    if run_mode == "simulate" and "schedule" not in origin:
        raise ConfigError("schedule", "(missing)", "simulate needs a schedule")
    try:
        pattern = PatternConfig(**fields["pattern"])
    except ValueError as exc:
        # the constructor names the offending field first
        path = "pattern." + re.match(r"\w*", str(exc)).group()
        key = next((k for k in origin if KEYS[k].path == path), path)
        raise ConfigError(key, origin.get(key, "(default)"), str(exc)) from None
    t_end = pattern.dt_schedule[-1][1]
    for t in fields[""].get("snapshot_times", ()):
        if not 0.0 <= t <= t_end + 1e-9:
            where = "before the start at 0" if t < 0.0 else f"after the schedule ends at {t_end!r}"
            raise ConfigError("snapshot_times", origin["snapshot_times"], f"{t!r} is {where}")
    return RunConfig(**fields[""], pattern=pattern)


def render_config(cfg: RunConfig) -> str:
    """Canonical serialization of a resolved configuration: the keys its mode
    reads (round-trips through :func:`parse_config`).  An empty list left at
    its default is left out, and so are the default snapshot times, which a
    run filters to its schedule."""
    default = RunConfig(cfg.mode)
    lines = []
    for key in KEYS.values():
        if cfg.mode not in key.modes:
            continue
        get = key.value or attrgetter(key.path)
        text = key.text(get(cfg))
        if text or get(cfg) != get(default):
            lines.append(f"{key.name} = {text}")
    return "\n".join(lines) + "\n"
