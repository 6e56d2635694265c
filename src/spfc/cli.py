"""Command-line front end.

Subcommands: ``simulate`` (pattern run through a dt schedule), ``conv-space``
and ``conv-time`` (manufactured-solution convergence studies), ``verify``
(property-check battery).  All outputs land under the configured
``output_dir`` together with a copy of the fully resolved configuration, so
any run can be reproduced from its own output directory.

Exit codes: 0 success, 2 configuration/usage error, 3 solver or verification
failure, or a field too large to allocate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .config import ConfigError, RunConfig, parse_config, render_config
from .harness import (
    CLAIMS,
    CONV_DT,
    CONV_STEPS,
    CONV_T,
    pattern_experiment,
    spatial_convergence_study,
    temporal_convergence_study,
    verify_suite,
)
from .snapshots import ENERGY_HEADER, SnapshotMeta, energy_row, snapshot_path, write_snapshot
from .stepper import StepFailureError

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spfc",
        description="Pseudo-spectral square phase field crystal solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("simulate", _run_simulate, "run a pattern-formation schedule"),
        ("conv-space", _run_conv_space, "spatial convergence study (manufactured solution)"),
        ("conv-time", _run_conv_time, "temporal convergence study (manufactured solution)"),
        ("verify", _run_verify, "run the property-check battery"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    mode = args.command.replace("-", "_")
    if args.config is None:
        if mode == "simulate":
            raise ConfigError("--config", "(cli)", "simulate requires a config file")
        text = ""
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("--config", "(cli)", f"{args.config} is not UTF-8 text: {exc}") from None
    return parse_config(text, mode=mode, overrides=tuple(args.overrides))


def _prepare_output(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))
    return cfg.output_dir


def _run_simulate(cfg: RunConfig) -> int:
    out = _prepare_output(cfg)
    pattern = cfg.pattern
    params = pattern.params()

    def snapshot_sink(state) -> None:
        meta = SnapshotMeta(
            dim=2,
            n=pattern.n,
            length=pattern.length,
            time=state.time,
            step=state.step_index,
            scheme=params.scheme.value,
            epsilon=params.epsilon,
            reg_a=params.reg_a,
            seed=pattern.seed,
        )
        write_snapshot(state.phi_curr, meta, snapshot_path(out, state.step_index))

    # running values of the streamed rows, for the summary line
    seen = {"drift": 0.0, "max_h2": 0.0}

    def log_row(record) -> None:
        log.write(energy_row(record))
        drift = abs(record.mass - seen.setdefault("mass0", record.mass))
        seen.update(E=record.E, drift=max(seen["drift"], drift),
                    max_h2=max(seen["max_h2"], record.h2_norm))

    # line-buffered: every row is flushed, so a failed or killed run leaves its log
    path = os.path.join(out, "energy.csv")
    with open(path, "w", buffering=1, encoding="utf-8", newline="\n") as log:
        log.write(ENERGY_HEADER)
        final = pattern_experiment(
            pattern,
            energy_sink=log_row,
            snapshot_sink=snapshot_sink,
            snapshot_times=cfg.snapshot_times,
            tol=cfg.tol,
        )
    phi = final.phi_curr.values
    print(
        f"simulate: t = {final.time:g} in {final.step_index} steps, "
        f"E = {seen['E']:.6g}, phi in [{phi.min():.4g}, {phi.max():.4g}], "
        f"mass drift {seen['drift']:.3e}, max H2 {seen['max_h2']:.6g}"
    )
    print(f"outputs in {out}")
    return EXIT_OK


def _report(lines, path) -> None:
    text = "\n".join(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


def _write_rows(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("resolution,dt,error_l2,error_h3_seminorm\n")
        for r in rows:
            fh.write(f"{r.resolution},{r.dt!r},{r.error_l2!r},{r.error_h3_seminorm!r}\n")


def _run_conv_space(cfg: RunConfig) -> int:
    out = _prepare_output(cfg)
    n_list = CLAIMS["spatial_accuracy"].size
    rows = spatial_convergence_study(n_list, CONV_DT, cfg.pattern.params(), CONV_T)
    _write_rows(rows, os.path.join(out, "convergence_space.csv"))
    lines = [f"N={r.resolution:3d}  error_l2={r.error_l2:.6e}" for r in rows]
    ratio = rows[-1].error_l2 / rows[0].error_l2 if rows[0].error_l2 > 0 else float("nan")
    lines.append(f"error({rows[-1].resolution}) / error({rows[0].resolution}) = {ratio:.3e}")
    _report(lines, os.path.join(out, "report.txt"))
    return EXIT_OK


def _run_conv_time(cfg: RunConfig) -> int:
    out = _prepare_output(cfg)
    n_fixed = CLAIMS["temporal_order"].size
    rows, order = temporal_convergence_study(CONV_STEPS, n_fixed, cfg.pattern.params(), CONV_T)
    _write_rows(rows, os.path.join(out, "convergence_time.csv"))
    lines = [f"N_k={r.resolution:4d}  dt={r.dt:.3e}  error_l2={r.error_l2:.6e}" for r in rows]
    lines.append(f"fitted order = {order:.4f}  (N = {n_fixed}, scheme {cfg.pattern.scheme.value})")
    _report(lines, os.path.join(out, "report.txt"))
    return EXIT_OK


def _run_verify(cfg: RunConfig) -> int:
    out = _prepare_output(cfg)
    report = verify_suite()
    _report([report.format()], os.path.join(out, "verify_report.txt"))
    return EXIT_OK if report.all_passed else EXIT_SOLVER


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _load_config(args)
        return args.run(cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
