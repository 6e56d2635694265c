"""spfc benchmark: BDF2 step throughput and latency, with a traced per-module split.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload pattern2d --seed 7 --seconds 30 --trace 0

Workloads (set-up in ``workloads.py``), each run single-process with one
compute thread:

* ``pattern2d``: ``harness.pattern_experiment`` on the criterion-5 problem
  (``Grid(2, 256, 100)``, one nucleation site), snapshots written at the
  default snapshot times inside the run.  One episode marches 50 steps.
* ``pattern3d``: ``stepper.initial_state`` + ``stepper.run`` on
  ``Grid(3, 64, 25)`` with the same constants.  One episode marches 10 steps.
* ``conv_space``: ``harness.spatial_convergence_study`` as in
  ``spfc conv-space`` (12 800 solves).  One episode is the whole study.

An untraced run (``--trace 0``) repeats identical episodes (same seed) while
another one fits in ``--seconds`` (at least one) and reports the end-to-end
metrics, as medians over episodes or steps.  ``setup_s`` is the median over
fresh processes (``setup_probe.py``), one before each episode and at least
five.  A traced run (``--trace 1``)
alternates untraced and traced episodes (``spans.Tracer`` installed) in pairs
the same way, at least two pairs; ``conv_space`` episodes then stop at
t = 0.04.  Every traced episode must give identical FFT, diagnostics-FFT and
PSD-iteration counts.

Every run checks its outputs at the acceptance tolerances: per step, mass
drift, modified-energy uptick and solver convergence; ``conv_space``'s error
table; snapshots read back bit-identical; and once per invocation (untimed)
that ``spfc simulate`` writes the same ``energy.csv``, byte for byte, as the
library path.  The last stdout line is one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import workloads  # first: pins the thread count and imports spfc from ./src
from workloads import CLI_STEPS, DT

import numpy as np
from spfc import cli, harness, snapshots, stepper

import spans
from spans import CALLS, FFT_BYTES, FFT_N, FFT_S, FIELDS, SELF, TOTAL

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # minimum setup_s samples; one is taken before each episode
TRACED_PAIRS = 2  # minimum (untraced, traced) episode pairs in a traced run
MASS_TOL = 1e-11  # drift <= MASS_TOL * (1 + |m0|)
EMOD_TOL = 1e-9  # relative per-step E_mod uptick
CONV_RATIO_TOL = 1e-6  # error(20) / error(6)
CONV_SATURATION = 1e-9

STEP_SPAN = "stepper.step"
SOLVE_SPAN = "psd.psd_solve"


@dataclass
class Episode:
    """One measured unit of work and what its checks found."""

    steps: int  # BDF2 steps (= PSD solves) attempted
    march_s: float = 0.0  # wall time of the marching phase
    step_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    failed: int = 0  # steps that broke a per-step check
    ok: bool = True  # completed, and its final output checks passed
    # compact arrays, so peak_rss_mb does not grow with the episode count
    iterations: array = field(default_factory=lambda: array("i"))
    contraction: array = field(default_factory=lambda: array("d"))
    records: list = field(default_factory=list)
    mb_written: float = 0.0

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.march_s


def _solve_summary(ep: Episode, stats) -> bool:
    ep.iterations.append(stats.iterations)
    ep.contraction.extend(stats.contraction_ratios)
    return stats.converged


def _fail(ep: Episode) -> Episode:
    traceback.print_exc()
    ep.ok = False
    return ep


# ----------------------------------------------------------------------
# episodes
# ----------------------------------------------------------------------
def _march(steps: int, marching_call: Callable) -> Episode:
    """Run a pattern march; time it by its energy records (one per step,
    emitted after the step's diagnostics row) and check every step."""
    ep = Episode(steps)
    stamps, records, converged = [], ep.records, []

    def on_record(rec) -> None:
        stamps.append(perf_counter())
        records.append(rec)

    def on_stats(stats) -> None:
        converged.append(_solve_summary(ep, stats))

    try:
        marching_call(on_record, on_stats)
    except Exception:
        return _fail(ep)
    ep.ok = len(records) == steps + 1 and len(converged) == steps
    if not ep.ok:
        return ep
    ep.step_ms = np.diff(stamps) * 1e3
    ep.march_s = stamps[-1] - stamps[0]
    m0 = records[0].mass
    for k in range(1, len(records)):
        prev, rec = records[k - 1], records[k]
        drift = abs(rec.mass - m0) > MASS_TOL * (1.0 + abs(m0))
        uptick = (rec.E_mod - prev.E_mod) / max(abs(prev.E_mod), 1e-300) > EMOD_TOL
        ep.failed += drift or uptick or not converged[k - 1]
    return ep


def pattern2d_episode(seed: int, workdir: Path) -> Episode:
    cfg = workloads.pattern2d_config(seed, workloads.PATTERN2D_STEPS)
    written = []

    def on_snapshot(state) -> None:
        meta = snapshots.SnapshotMeta(
            dim=2,
            n=cfg.n,
            length=cfg.length,
            time=state.time,
            step=state.step_index,
            scheme=cfg.scheme.value,
            epsilon=cfg.epsilon,
            reg_a=cfg.reg_a,
            seed=cfg.seed,
        )
        path = snapshots.snapshot_path(workdir, state.step_index)
        snapshots.write_snapshot(state.phi_curr, meta, path)
        written.append((path, state.phi_curr.values.copy(), meta))

    ep = _march(
        workloads.PATTERN2D_STEPS,
        lambda on_record, on_stats: harness.pattern_experiment(
            cfg, energy_sink=on_record, snapshot_sink=on_snapshot, stats_sink=on_stats
        ),
    )
    ep.ok = ep.ok and len(written) > 0
    for path, values, meta in written:
        back, back_meta = snapshots.read_snapshot(path)
        ep.ok = ep.ok and back.values.tobytes() == values.tobytes() and back_meta == meta
        ep.mb_written += os.path.getsize(path) / 1e6
        os.remove(path)
    return ep


def pattern3d_episode(seed: int) -> Episode:
    steps = workloads.PATTERN3D_STEPS
    state0 = stepper.initial_state(
        workloads.pattern3d_field(workloads.pattern3d_grid(), seed)
    )
    return _march(
        steps,
        lambda on_record, on_stats: stepper.run(
            [(DT, steps * DT)],
            state0,
            workloads.pattern_params(),
            energy_sink=on_record,
            stats_sink=on_stats,
        ),
    )


def conv_table_ok(rows) -> bool:
    """Acceptance criterion 2: error(20)/error(6) < 1e-6, and errors fall
    monotonically until they saturate below 1e-9."""
    errors = [r.error_l2 for r in rows]
    saturated = [e < CONV_SATURATION for e in errors]
    if not any(saturated):
        return False
    first = saturated.index(True)
    monotone = all(errors[i + 1] < errors[i] for i in range(first))
    return errors[-1] / errors[0] < CONV_RATIO_TOL and monotone


def conv_episode(t_final: float) -> Episode:
    """The study, with a check on every solve.  ``spatial_convergence_study``
    discards the solver's stats, so its ``psd_solve`` binding is wrapped for the
    episode; the wrapper also stamps the end of each step."""
    ep = Episode(len(workloads.CONV_N) * round(t_final / workloads.CONV_DT))
    stamps, mass0 = [], {}
    solve = harness.psd_solve

    def checked_solve(phi_guess, ctx, f=None, cfg=None):
        phi_new, stats = solve(phi_guess, ctx, f, cfg)
        stamps.append(perf_counter())
        m0 = mass0.setdefault(ctx.grid, float(ctx.phi_k.values.mean()))
        drift = abs(float(phi_new.values.mean()) - m0) > MASS_TOL * (1.0 + abs(m0))
        ep.failed += drift or not _solve_summary(ep, stats)
        return phi_new, stats

    harness.psd_solve = checked_solve
    try:
        t0 = perf_counter()
        rows = harness.spatial_convergence_study(
            list(workloads.CONV_N), workloads.CONV_DT, workloads.conv_params(), t_final
        )
        ep.march_s = perf_counter() - t0
    except Exception:
        return _fail(ep)
    finally:
        harness.psd_solve = solve
    ep.step_ms = np.diff(stamps) * 1e3
    ep.ok = len(stamps) == ep.steps and conv_table_ok(rows)
    return ep


def episode_runner(name: str, seed: int, workdir: Path, traced: bool) -> Callable[[], Episode]:
    if name == "pattern2d":
        return lambda: pattern2d_episode(seed, workdir)
    if name == "pattern3d":
        return lambda: pattern3d_episode(seed)
    t_final = workloads.CONV_T_TRACED if traced else workloads.CONV_T
    return lambda: conv_episode(t_final)


def repeat(run_unit: Callable[[], bool], seconds: float, minimum: int) -> None:
    """Call ``run_unit`` (False on failure) while the next call is expected to
    end within ``seconds``, and at least ``minimum`` times.  The machine's speed
    drifts over tens of seconds, so runs are made of many short units and
    report medians over them."""
    t_start = perf_counter()
    for n in itertools.count(1):
        t0 = perf_counter()
        ok = run_unit()
        last = perf_counter() - t0
        if not ok or (n >= minimum and perf_counter() - t_start + last > seconds):
            return


# ----------------------------------------------------------------------
# untimed checks
# ----------------------------------------------------------------------
def setup_seconds(name: str, seed: int) -> float:
    """One ``setup_s`` sample: process start to the marching call, in a fresh
    process."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=workloads.ROOT,
    )
    return float(out.stdout.split()[-1]) - t0


def cli_cross_check(seed: int, workdir: Path, records: list) -> bool:
    """``spfc simulate`` on the pattern2d config for CLI_STEPS steps must write
    the energy log that ``write_energy_log`` makes of the library's records."""
    if len(records) < CLI_STEPS + 1:
        records = []
        harness.pattern_experiment(
            workloads.pattern2d_config(seed, CLI_STEPS), energy_sink=records.append
        )
    out_dir = workdir / "cli"
    config = workdir / "cli.cfg"
    x, y, mag = workloads.SITE
    config.write_text(
        "\n".join(
            [
                "grid.n = 256",
                "grid.length = 100.0",
                f"model.epsilon = {workloads.EPSILON!r}",
                f"model.A = {workloads.REG_A!r}",
                f"schedule = {DT!r}:{CLI_STEPS * DT!r}",
                f"seed = {seed}",
                f"init.amplitude = {workloads.AMPLITUDE!r}",
                f"init.sites = {x!r}:{y!r}:{mag!r}",
                "snapshot_times =",
                f"output_dir = {out_dir}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config)])
    library_log = workdir / "library_energy.csv"
    snapshots.write_energy_log(records[: CLI_STEPS + 1], library_log)
    cli_log = out_dir / "energy.csv"
    return code == 0 and cli_log.read_bytes() == library_log.read_bytes()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(episodes: list[Episode], setup: list[float], rss_mb: float) -> dict:
    p50, p90 = np.percentile(np.concatenate([ep.step_ms for ep in episodes]), [50, 90])
    return {
        "steps_per_s": (statistics.median(ep.steps_per_s for ep in episodes), "1/s"),
        "step_ms.p50": (float(p50), "ms"),
        "step_ms.p90": (float(p90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _window(name: str) -> str:
    """The marching call whose inclusive counts make the per-step figures."""
    return "harness.spatial_convergence_study" if name == "conv_space" else "stepper.run"


def exact_counts(name: str, part: dict, ep: Episode) -> tuple[int, int, int]:
    """(FFTs in the march, FFTs in diagnostics rows, PSD iterations)."""
    agg, pairs = part["agg"], part["pairs"]
    fft = agg.get(_window(name), [0] * 7)[FFT_N]
    step_fft = agg.get(STEP_SPAN, [0] * 7)[FFT_N]
    record_fft = step_fft - pairs.get((STEP_SPAN, SOLVE_SPAN), [0.0, 0])[1]
    return fft, record_fft, sum(ep.iterations)


def per_layer(
    name: str, merged: dict, traced: list[Episode], untraced: list[Episode]
) -> tuple[dict, dict]:
    """(metrics, details).  ``metrics`` are the BENCHMARK.json per-layer
    metrics, defined on every workload, so no time in them is a structural zero.
    ``details`` are the workload-specific splits, present only where their span
    ran; they are printed, not put in the result line."""
    agg, pairs = merged["agg"], merged["pairs"]

    def a(span: str, slot: int) -> float:
        return agg.get(span, [0] * 7)[slot]

    steps = sum(ep.steps for ep in traced)
    solves = a(SOLVE_SPAN, CALLS)
    window = _window(name)
    in_solve = pairs.get((STEP_SPAN, SOLVE_SPAN), [0.0, 0])
    iterations = [i for ep in traced for i in ep.iterations]
    contraction = [c for ep in traced for c in ep.contraction]
    slowdown = statistics.median(
        t.steps_per_s / u.steps_per_s for t, u in zip(traced, untraced)
    )
    ms = 1e3
    objective = "model.StepOperator.objective_value"
    metrics = {
        "grid.fft_per_step": (a(window, FFT_N) / steps, "count"),
        "grid.fft_ms_per_step": (a(window, FFT_S) * ms / steps, "ms"),
        "grid.fft_mb_per_step": (a(window, FFT_BYTES) / 1e6 / steps, "MB"),
        "spectral.fields_per_step": (a(window, FIELDS) / steps, "count"),
        "model.nonlinear_hat_ms_per_step": (
            a("model.StepOperator.nonlinear_hat", TOTAL) * ms / steps, "ms"),
        "model.line_coefficients_ms_per_step": (
            a("model.StepOperator.line_coefficients", TOTAL) * ms / steps, "ms"),
        "model.operator_init_ms_per_step": (
            a("model.StepOperator.__init__", TOTAL) * ms / steps, "ms"),
        "model.objective_calls_per_step": (a(objective, CALLS) / steps, "count"),
        "psd.iters_per_solve": (sum(iterations) / len(iterations), "count"),
        "psd.contraction.p50": (statistics.median(contraction), "ratio"),
        "psd.solve_ms.p50": (statistics.median(merged["durations"][SOLVE_SPAN]) * ms, "ms"),
        "psd.self_ms_per_solve": (a(SOLVE_SPAN, SELF) * ms / solves, "ms"),
        "psd.cubic_ms_per_solve": (a("psd.solve_cubic_monotone", TOTAL) * ms / solves, "ms"),
        "march.outside_solve_ms_per_step": (
            (a(window, TOTAL) - a(SOLVE_SPAN, TOTAL)) * ms / steps, "ms"),
        "stepper.record_fft_per_step": ((a(STEP_SPAN, FFT_N) - in_solve[1]) / steps, "count"),
        "snapshots.mb_written": (sum(ep.mb_written for ep in traced) / len(traced), "MB"),
        "trace.overhead_frac": (1.0 - slowdown, "frac"),
    }
    details = {}
    if a(objective, CALLS):
        details["model.objective_ms_per_step"] = (a(objective, TOTAL) * ms / steps, "ms")
    source = "model.ManufacturedSolution.spatial_source"
    if a(source, CALLS):
        details["model.source_ms_per_step"] = (a(source, TOTAL) * ms / steps, "ms")
    if a(STEP_SPAN, CALLS):
        details["stepper.record_ms_per_step"] = (
            (a(STEP_SPAN, TOTAL) - in_solve[0]) * ms / steps, "ms")
    if a("harness.random_init", CALLS):
        details["harness.random_init_ms"] = (
            a("harness.random_init", TOTAL) * ms / a("harness.random_init", CALLS), "ms")
    if a("snapshots.write_snapshot", CALLS):
        details["snapshots.write_ms"] = (
            a("snapshots.write_snapshot", TOTAL) * ms / len(traced), "ms")
    return metrics, details


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed

    workdir = workloads.ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run_episode = episode_runner(name, seed, workdir, traced=bool(args.trace))
        untraced, traced, parts, notes = [], [], [], []
        if args.trace:
            tracer = spans.Tracer(keep_durations=(SOLVE_SPAN,))

            def pair() -> bool:
                untraced.append(run_episode())
                with tracer:
                    traced.append(run_episode())
                parts.append(tracer.take())
                return untraced[-1].ok and traced[-1].ok

            repeat(pair, args.seconds, TRACED_PAIRS)
            counts = [exact_counts(name, p, ep) for p, ep in zip(parts, traced)]
            repeatable = all(c == counts[0] for c in counts)
            notes.append(
                f"exact counts per traced episode (FFTs, diagnostics FFTs, PSD "
                f"iterations): {counts[0]} x {len(counts)} -> "
                f"{'identical' if repeatable else f'DIFFER: {counts}'}"
            )
        else:
            setup = []

            def single() -> bool:
                # interleaved, so the median samples the whole run
                setup.append(setup_seconds(name, seed))
                untraced.append(run_episode())
                return untraced[-1].ok

            repeat(single, args.seconds, 1)
            while len(setup) < SETUP_PROBES:
                setup.append(setup_seconds(name, seed))
            repeatable = True
        episodes = untraced + traced
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        own_records = episodes[0].records if name == "pattern2d" else []
        cli_ok = cli_cross_check(seed, workdir, own_records)
        notes.append(f"CLI cross-check ({CLI_STEPS} steps, energy.csv byte for byte): "
                     f"{'pass' if cli_ok else 'FAIL'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(ep.steps for ep in episodes)
    completed = all(ep.ok for ep in episodes)
    correct = cli_ok and repeatable and completed
    failed = sum(ep.failed for ep in episodes) if correct else attempted
    correct = correct and failed == 0
    metrics, details = {}, {}
    if completed:
        if args.trace:
            metrics, details = per_layer(name, spans.merge(parts), traced, untraced)
        else:
            metrics = end_to_end(untraced, setup, rss_mb)

    step_samples = sum(len(ep.step_ms) for ep in episodes)
    iterations = [i for ep in episodes for i in ep.iterations]
    print(f"# spfc benchmark: workload {name}, seed {seed}, trace {args.trace}, "
          f"{len(episodes)} episodes, {attempted} steps, "
          f"{sum(iterations) / max(len(iterations), 1):.4f} PSD iterations per solve")
    print(f"# steps_per_s by episode: "
          f"{' '.join(f'{ep.steps_per_s:.4g}' for ep in episodes if ep.march_s > 0)}")
    for note in notes:
        print(f"# {note}")
    for key, (value, unit) in {**metrics, **details}.items():
        print(f"{name:<10} {key:<36} {value:>14.6g} {unit}")
    if not args.trace:
        beyond = step_samples - int(np.ceil(0.9 * step_samples))
        print(f"# samples: steps_per_s over {len(episodes)} episodes; step_ms over "
              f"{step_samples} steps, {beyond} beyond p90"
              f"{'' if beyond >= 10 else ' (fewer than ten: p90 is indicative only)'}; "
              f"setup_s over {len(setup)} processes")
    else:
        print("# grid.fft_mb_per_step and snapshots.mb_written are computed from "
              "array and file sizes; the last "
              f"{len(details)} lines apply to this workload only")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} steps)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
