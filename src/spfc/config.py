"""Run configuration: the line-oriented ``key = value`` format and its
validated in-memory form.

Format
------
UTF-8 text, one ``key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Keys use dotted section prefixes.  Unknown keys are
errors (typo protection).  The full key table with defaults:

======================  =========================  ==============================
key                     default                    meaning / constraints
======================  =========================  ==============================
mode                    (from CLI subcommand)      simulate | conv_space | conv_time | verify
grid.dim                2                          2 or 3
grid.n                  256                        points per axis, >= 3
grid.length             100.0                      box edge length, > 0
model.epsilon           0.5                        in (0, 1)
model.A                 epsilon^2 / 16             regularization, >= 0
model.scheme            bdf2_es_1                  bdf2_es_1 | bdf2_es_2
schedule                (required for simulate)    comma list of dt:t_end segments
output_dir              out                        created if missing
seed                    0                          64-bit RNG seed
snapshot_times          1,10,20,40,100,200         comma list of reals (may be empty)
profile                 full                       full | ci
init.amplitude          0.05                       uniform noise amplitude
init.sites              (empty)                    semicolon list of x:y:magnitude
init.site_profile       node                       node | gaussian
init.history            copy                       copy | ghost
solver.tol              1e-9                       in (0, 1)
solver.max_iter         200                        >= 1
solver.residual_norm    l2                         l2 | hm1
======================  =========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Scheme

__all__ = ["RunConfig", "ConfigError", "parse_config", "render_config"]

MODES = ("simulate", "conv_space", "conv_time", "verify")
DEFAULT_SNAPSHOTS = (1.0, 10.0, 20.0, 40.0, 100.0, 200.0)


class ConfigError(ValueError):
    """Invalid configuration; names the offending key and source line."""

    def __init__(self, key: str, line: object, message: str):
        self.key = key
        self.line = line
        super().__init__(f"config key {key!r} (line {line}): {message}")


@dataclass
class RunConfig:
    mode: str
    grid_dim: int = 2
    grid_n: int = 256
    grid_length: float = 100.0
    epsilon: float = 0.5
    reg_a: Optional[float] = None
    scheme: Scheme = Scheme.BDF2_ES_1
    schedule: tuple = ()
    output_dir: str = "out"
    seed: int = 0
    snapshot_times: tuple = DEFAULT_SNAPSHOTS
    profile: str = "full"
    amplitude: float = 0.05
    sites: tuple = ()
    site_profile: str = "node"
    history: str = "copy"
    solver_tol: float = 1e-9
    solver_max_iter: int = 200
    solver_residual_norm: str = "l2"

    @property
    def reg_a_value(self) -> float:
        return self.epsilon**2 / 16.0 if self.reg_a is None else self.reg_a


def _parse_float(raw: str, key: str, line: object) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, line, f"expected a number, got {raw!r}") from None


def _parse_int(raw: str, key: str, line: object) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(key, line, f"expected an integer, got {raw!r}") from None


def _parse_schedule(raw: str, key: str, line: object) -> tuple:
    segments = []
    for part in filter(None, (p.strip() for p in raw.split(","))):
        bits = part.split(":")
        if len(bits) != 2:
            raise ConfigError(key, line, f"segment {part!r} is not dt:t_end")
        dt = _parse_float(bits[0], key, line)
        t_end = _parse_float(bits[1], key, line)
        if dt <= 0:
            raise ConfigError(key, line, f"dt must be positive, got {dt}")
        segments.append((dt, t_end))
    if any(b[1] <= a[1] for a, b in zip(segments, segments[1:])):
        raise ConfigError(key, line, "segment end times must increase")
    return tuple(segments)


def _parse_sites(raw: str, key: str, line: object) -> tuple:
    sites = []
    for part in filter(None, (p.strip() for p in raw.split(";"))):
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(key, line, f"site {part!r} is not x:y:magnitude")
        sites.append(tuple(_parse_float(b, key, line) for b in bits))
    return tuple(sites)


def _parse_floats(raw: str, key: str, line: object) -> tuple:
    return tuple(
        _parse_float(p.strip(), key, line)
        for p in raw.split(",")
        if p.strip()
    )


def _parse_choice(raw: str, key: str, line: object, choices: tuple) -> str:
    if raw not in choices:
        raise ConfigError(key, line, f"must be one of {', '.join(choices)}, got {raw!r}")
    return raw


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

    cfg = RunConfig(mode=mode or "")
    seen_schedule = False
    for key, value, line in assignments:
        if key == "mode":
            m = _parse_choice(value, key, line, MODES)
            if mode is not None and m != mode:
                raise ConfigError(key, line, f"mode {m!r} conflicts with subcommand {mode!r}")
            cfg.mode = m
        elif key == "grid.dim":
            cfg.grid_dim = _parse_int(value, key, line)
            if cfg.grid_dim not in (2, 3):
                raise ConfigError(key, line, f"dim must be 2 or 3, got {cfg.grid_dim}")
        elif key == "grid.n":
            cfg.grid_n = _parse_int(value, key, line)
            if cfg.grid_n < 3:
                raise ConfigError(key, line, f"n must be at least 3, got {cfg.grid_n}")
        elif key == "grid.length":
            cfg.grid_length = _parse_float(value, key, line)
            if cfg.grid_length <= 0:
                raise ConfigError(key, line, "length must be positive")
        elif key == "model.epsilon":
            cfg.epsilon = _parse_float(value, key, line)
            if not 0.0 < cfg.epsilon < 1.0:
                raise ConfigError(key, line, f"epsilon must lie in (0, 1), got {cfg.epsilon}")
        elif key == "model.A":
            cfg.reg_a = _parse_float(value, key, line)
            if cfg.reg_a < 0:
                raise ConfigError(key, line, "A must be nonnegative")
        elif key == "model.scheme":
            name = _parse_choice(value, key, line, tuple(s.value for s in Scheme))
            cfg.scheme = Scheme(name)
        elif key == "schedule":
            cfg.schedule = _parse_schedule(value, key, line)
            seen_schedule = True
        elif key == "output_dir":
            cfg.output_dir = value
        elif key == "seed":
            cfg.seed = _parse_int(value, key, line)
        elif key == "snapshot_times":
            cfg.snapshot_times = _parse_floats(value, key, line)
        elif key == "profile":
            cfg.profile = _parse_choice(value, key, line, ("full", "ci"))
        elif key == "init.amplitude":
            cfg.amplitude = _parse_float(value, key, line)
            if cfg.amplitude < 0:
                raise ConfigError(key, line, "amplitude must be nonnegative")
        elif key == "init.sites":
            cfg.sites = _parse_sites(value, key, line)
        elif key == "init.site_profile":
            cfg.site_profile = _parse_choice(value, key, line, ("node", "gaussian"))
        elif key == "init.history":
            cfg.history = _parse_choice(value, key, line, ("copy", "ghost"))
        elif key == "solver.tol":
            cfg.solver_tol = _parse_float(value, key, line)
            if not 0.0 < cfg.solver_tol < 1.0:
                raise ConfigError(key, line, "tol must lie in (0, 1)")
        elif key == "solver.max_iter":
            cfg.solver_max_iter = _parse_int(value, key, line)
            if cfg.solver_max_iter < 1:
                raise ConfigError(key, line, "max_iter must be >= 1")
        elif key == "solver.residual_norm":
            cfg.solver_residual_norm = _parse_choice(value, key, line, ("l2", "hm1"))
        else:
            raise ConfigError(key, line, "unknown key")

    if not cfg.mode:
        raise ConfigError("mode", "(missing)", "mode is required")
    if cfg.mode == "simulate" and not seen_schedule:
        raise ConfigError("schedule", "(missing)", "simulate needs a schedule")
    for x, y, _ in cfg.sites:
        if not (0 <= x < cfg.grid_length and 0 <= y < cfg.grid_length):
            raise ConfigError("init.sites", "(validated)", f"site ({x}, {y}) outside the box")
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Canonical serialization of a resolved configuration (round-trips
    through :func:`parse_config`)."""
    lines = [
        f"mode = {cfg.mode}",
        f"grid.dim = {cfg.grid_dim}",
        f"grid.n = {cfg.grid_n}",
        f"grid.length = {cfg.grid_length!r}",
        f"model.epsilon = {cfg.epsilon!r}",
        f"model.A = {cfg.reg_a_value!r}",
        f"model.scheme = {cfg.scheme.value}",
    ]
    if cfg.schedule:
        lines.append("schedule = " + ", ".join(f"{dt!r}:{te!r}" for dt, te in cfg.schedule))
    lines += [
        f"output_dir = {cfg.output_dir}",
        f"seed = {cfg.seed}",
        "snapshot_times = " + ",".join(repr(t) for t in cfg.snapshot_times),
        f"profile = {cfg.profile}",
        f"init.amplitude = {cfg.amplitude!r}",
    ]
    if cfg.sites:
        lines.append(
            "init.sites = " + "; ".join(f"{x!r}:{y!r}:{m!r}" for x, y, m in cfg.sites)
        )
    lines += [
        f"init.site_profile = {cfg.site_profile}",
        f"init.history = {cfg.history}",
        f"solver.tol = {cfg.solver_tol!r}",
        f"solver.max_iter = {cfg.solver_max_iter}",
        f"solver.residual_norm = {cfg.solver_residual_norm}",
    ]
    return "\n".join(lines) + "\n"
