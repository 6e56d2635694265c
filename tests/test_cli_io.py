"""Tests for configuration parsing, the bit-exact file formats and the
command-line entry point."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spfc
from conftest import random_field
from spfc import Field, Grid, Scheme, energy, ModelParams, PsdConfig
from spfc.cli import main
from spfc.config import MODES, ConfigError, parse_config, render_config
from spfc.harness import DEFAULT_SNAPSHOT_TIMES
from spfc.snapshots import (
    SnapshotError,
    SnapshotMeta,
    read_snapshot,
    write_energy_log,
    write_snapshot,
)
from spfc.stepper import EnergyRecord


MINIMAL = "mode = simulate\nschedule = 0.05:1.0\n"


def parse_energy_log(path) -> list[EnergyRecord]:
    """The rows of an energy log, parsed with ``csv`` and ``float``."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["step", "time", "E", "E_mod", "mass", "h2_norm", "psd_iters", "residual"]
    return [EnergyRecord(int(r[0]), *map(float, r[1:6]), int(r[6]), float(r[7])) for r in rows]


class TestParseConfig:
    def test_minimal_simulate_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "simulate"
        assert cfg.pattern.n == 256 and cfg.pattern.length == 100.0
        params = cfg.pattern.params()
        assert params.epsilon == 0.5
        assert params.reg_a == pytest.approx(0.5**2 / 16.0)
        assert params.stable_guarantee
        assert cfg.pattern.dt_schedule == ((0.05, 1.0),)
        assert cfg.solver == PsdConfig()
        assert cfg.snapshot_times == DEFAULT_SNAPSHOT_TIMES == (1.0, 10.0, 20.0, 40.0, 100.0, 200.0)

    def test_paper_parameters_are_stable(self):
        cfg = parse_config("mode = conv_space\nmodel.A = 0.25\nmodel.epsilon = 0.025\n")
        # 0.25 >= 0.025^2 / 16
        assert cfg.pattern.params().stable_guarantee

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(MINIMAL + "grid.n = 2\n")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"grid.m.*line 3"):
            parse_config(MINIMAL + "grid.m = 12\n")

    def test_epsilon_constraint(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(MINIMAL + "model.epsilon = 1.5\n")

    def test_type_mismatch_reports_key(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(MINIMAL + "grid.n = twelve\n")

    def test_schedule_validation(self):
        with pytest.raises(ConfigError, match="dt:t_end"):
            parse_config("mode = simulate\nschedule = 0.05\n")
        with pytest.raises(ConfigError, match="increase"):
            parse_config("mode = simulate\nschedule = 0.05:2.0, 0.1:1.0\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("schedule = 0.3:1.0", "schedule"),  # not a whole number of steps
            ("schedule = 0.05:0.0", "schedule"),
            ("schedule = ", "schedule"),
            ("seed = -1", "seed"),
            ("init.amplitude = -0.1", "init.amplitude"),
            ("init.history = copy", "init.history"),  # removed keys are unknown
            ("init.site_profile = box", "init.site_profile"),
            ("solver.residual_norm = l2", "solver.residual_norm"),
            ("model.A = -1", "model.A"),
        ],
    )
    def test_constructor_check_names_key_and_line(self, line, key):
        # each of these used to parse, then fail or be ignored once the run started
        text = f"mode = simulate\n{line}\n"
        if key != "schedule":
            text += "schedule = 0.05:1.0\n"
        with pytest.raises(ConfigError, match=rf"'{key}' \(line 2\)"):
            parse_config(text)

    def test_simulate_requires_schedule(self):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config("mode = simulate\n")

    def test_mode_conflict_with_subcommand(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("mode = verify\n", mode="simulate")

    def test_overrides_and_sites(self):
        cfg = parse_config(
            MINIMAL + "init.sites = 25:25:10; 75:75:10\n",
            overrides=("model.scheme=bdf2_es_2", "seed=7"),
        )
        assert cfg.pattern.scheme is Scheme.BDF2_ES_2
        assert cfg.pattern.seed == 7
        assert cfg.pattern.sites == ((25.0, 25.0, 10.0), (75.0, 75.0, 10.0))

    def test_override_error_names_override(self):
        with pytest.raises(ConfigError, match=r"--set"):
            parse_config(MINIMAL, overrides=("model.epsilon=2",))

    def test_site_outside_box(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(MINIMAL + "init.sites = 200:50:10\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# header\n\nmode = verify  # trailing\n")
        assert cfg.mode == "verify"

    def test_render_round_trips(self):
        cfg = parse_config(
            MINIMAL + "init.sites = 50:50:10\nmodel.epsilon = 0.3\nseed = 11\n"
        )
        again = parse_config(render_config(cfg))
        # rendering resolves defaulted values (A in particular), so compare
        # the canonical forms
        assert render_config(again) == render_config(cfg)
        assert again.pattern.params() == cfg.pattern.params()
        assert again.pattern.sites == cfg.pattern.sites


class TestSnapshotFormat:
    def test_bitwise_round_trip(self, tmp_path, rng):
        grid = Grid(dim=2, n=16, length=100.0)
        f = random_field(grid, rng)
        meta = SnapshotMeta(
            dim=2, n=16, length=100.0, time=9000.0, step=180000,
            scheme="bdf2_es_1", epsilon=0.5, reg_a=0.015625, seed=42,
        )
        path = tmp_path / "f.spfc"
        write_snapshot(f, meta, path)
        g, meta2 = read_snapshot(path)
        assert np.array_equal(g.values, f.values)
        assert meta2 == meta
        assert meta2.time == 9000.0

    def test_three_dimensional_round_trip(self, tmp_path, rng):
        grid = Grid(dim=3, n=8, length=1.0)
        f = Field(grid, rng.standard_normal(grid.shape))
        meta = SnapshotMeta(
            dim=3, n=8, length=1.0, time=0.125, step=3,
            scheme="bdf2_es_2", epsilon=0.3, reg_a=0.25, seed=0,
        )
        path = tmp_path / "f3.spfc"
        write_snapshot(f, meta, path)
        g, _ = read_snapshot(path)
        assert np.array_equal(g.values, f.values)

    def test_truncated_payload_detected(self, tmp_path, rng):
        grid = Grid(dim=2, n=8, length=1.0)
        meta = SnapshotMeta(
            dim=2, n=8, length=1.0, time=0.0, step=0,
            scheme="bdf2_es_1", epsilon=0.5, reg_a=0.1, seed=0,
        )
        path = tmp_path / "t.spfc"
        write_snapshot(random_field(grid, rng), meta, path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "bad.spfc"
        path.write_bytes(b"notasnapshot version=1\n" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_version_mismatch_detected(self, tmp_path, rng):
        grid = Grid(dim=2, n=8, length=1.0)
        meta = SnapshotMeta(
            dim=2, n=8, length=1.0, time=0.0, step=0,
            scheme="bdf2_es_1", epsilon=0.5, reg_a=0.1, seed=0,
        )
        path = tmp_path / "v.spfc"
        write_snapshot(random_field(grid, rng), meta, path)
        text = path.read_bytes()
        path.write_bytes(text.replace(b"version=1", b"version=9", 1))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    @staticmethod
    def _file(payload=np.zeros(64), tail=b"", **fields):
        values = {"n": "8", "length": "1.0", "time": "0.0", "step": "0", "scheme": "bdf2_es_1",
                  "epsilon": "0.5", "A": "0.1", "seed": "0"} | fields
        header = "spfcfield version=1 dim=2 " + " ".join(f"{k}={v}" for k, v in values.items())
        return header.encode() + tail + b"\n" + np.asarray(payload, dtype="<f8").tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": "2", "payload": np.zeros(4)},  # too small for a Grid
            {"length": "nan"},
            {"length": "inf"},
            {"n": "-4", "payload": np.zeros(16)},  # n^dim * 8 bytes, n invalid
            {"payload": np.full(64, np.nan)},
            {"tail": b" \xff"},  # not UTF-8
            {"time": "nan"},
            {"time": "inf"},
            {"step": "-3"},
            {"scheme": "bogus"},
            {"epsilon": "7"},
            {"epsilon": "0.0"},
            {"A": "-1"},
            {"A": "nan"},
            {"seed": "-2"},
            {"length": "inf", "time": "nan", "step": "-3", "scheme": "bogus", "epsilon": "7",
             "A": "-1", "seed": "-2"},
        ],
        ids=["n=2", "length=nan", "length=inf", "n=-4", "nan-payload", "non-utf8", "time=nan",
             "time=inf", "step=-3", "scheme=bogus", "epsilon=7", "epsilon=0", "A=-1", "A=nan",
             "seed=-2", "all-bad"],
    )
    def test_malformed_file_raises_snapshot_error(self, tmp_path, kwargs):
        path = tmp_path / "m.spfc"
        path.write_bytes(self._file(**kwargs))
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        path.write_bytes(self._file())  # the same file, well formed
        assert read_snapshot(path)[1].n == 8

    def test_unterminated_header_raises(self, tmp_path):
        path = tmp_path / "u.spfc"
        path.write_bytes(self._file().split(b"\n")[0])
        with pytest.raises(SnapshotError, match="unterminated header"):
            read_snapshot(path)

    def _padded_header(self, tmp_path, size):
        """A well-formed file whose header line is ``size`` bytes before its newline."""
        path = tmp_path / "h.spfc"
        path.write_bytes(self._file(tail=b" " * (size - len(self._file().split(b"\n")[0]))))
        return path

    def test_4096_byte_header_reads(self, tmp_path):
        assert read_snapshot(self._padded_header(tmp_path, 4096))[1].n == 8

    def test_4097_byte_header_is_too_long(self, tmp_path):
        with pytest.raises(SnapshotError, match="header too long"):
            read_snapshot(self._padded_header(tmp_path, 4097))

    def test_metadata_field_mismatch_rejected_on_write(self, tmp_path, rng):
        grid = Grid(dim=2, n=8, length=1.0)
        meta = SnapshotMeta(
            dim=2, n=16, length=1.0, time=0.0, step=0,
            scheme="bdf2_es_1", epsilon=0.5, reg_a=0.1, seed=0,
        )
        with pytest.raises(SnapshotError, match="match"):
            write_snapshot(random_field(grid, rng), meta, tmp_path / "m.spfc")


class TestEnergyLog:
    def test_empty_log_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_energy_log([], path)
        assert path.read_text() == "step,time,E,E_mod,mass,h2_norm,psd_iters,residual\n"

    def test_constant_state_energy_column(self, tmp_path):
        grid = Grid(dim=2, n=16, length=2.0)
        params = ModelParams(epsilon=0.3, reg_a=0.2)
        c = 0.4
        e_value = energy(Field(grid, np.full(grid.shape, c)), params)
        assert e_value == pytest.approx(0.5 * params.a * c**2 * grid.volume, rel=1e-13)
        rec = EnergyRecord(0, 0.0, e_value, e_value, c, 0.0, 0, 0.0)
        path = tmp_path / "e.csv"
        write_energy_log([rec], path)
        back = parse_energy_log(path)
        assert back[0].E == e_value

    def test_round_trip_is_exact(self, tmp_path, rng):
        records = [
            EnergyRecord(
                step=i,
                time=0.05 * i,
                E=rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8)),
                E_mod=rng.standard_normal(),
                mass=rng.standard_normal() * 1e-13,
                h2_norm=abs(rng.standard_normal()),
                psd_iters=int(rng.integers(0, 40)),
                final_residual=abs(rng.standard_normal()) * 1e-11,
            )
            for i in range(20)
        ]
        path = tmp_path / "e.csv"
        write_energy_log(records, path)
        assert parse_energy_log(path) == records


class TestCli:
    CFG = (
        "mode = simulate\n"
        "grid.n = 32\n"
        "model.epsilon = 0.5\n"
        "schedule = 0.05:0.5\n"
        "seed = 7\n"
        "snapshot_times = 0.25,0.5\n"
        "init.sites = 50:50:10\n"
    )

    def _write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "run.cfg"
        path.write_text(self.CFG + extra)
        return str(path)

    def test_simulate_writes_outputs(self, tmp_path):
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "config.resolved").exists()
        assert (out / "energy.csv").exists()
        snaps = sorted(out.glob("snap_*.spfc"))
        assert len(snaps) == 2
        field, meta = read_snapshot(snaps[-1])
        assert meta.time == pytest.approx(0.5)
        assert field.grid.n == 32

    def test_simulate_summary_line_states_the_run(self, tmp_path, capsys):
        # the run ends at its last snapshot time, so that snapshot holds the final field
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        out = tmp_path / "out"
        records = parse_energy_log(out / "energy.csv")
        field, meta = read_snapshot(sorted(out.glob("snap_*.spfc"))[-1])
        assert (meta.step, meta.time) == (records[-1].step, records[-1].time) == (10, 0.5)
        drift = max(abs(r.mass - records[0].mass) for r in records)
        assert line == (
            f"simulate: t = {meta.time:g} in {meta.step} steps, E = {records[-1].E:.6g}, "
            f"phi in [{field.values.min():.4g}, {field.values.max():.4g}], "
            f"mass drift {drift:.3e}, max H2 {max(r.h2_norm for r in records):.6g}"
        )

    def test_rerun_from_resolved_config_is_bitwise(self, tmp_path):
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'a'}\n")
        assert main(["simulate", "--config", cfg]) == 0
        resolved = str(tmp_path / "a" / "config.resolved")
        assert main(["simulate", "--config", resolved,
                     "--set", f"output_dir={tmp_path / 'b'}"]) == 0
        log_a = (tmp_path / "a" / "energy.csv").read_bytes()
        log_b = (tmp_path / "b" / "energy.csv").read_bytes()
        assert log_a == log_b

    def test_verify_exit_zero_and_report(self, tmp_path, small_claims):
        out = tmp_path / "v"
        assert main(["verify", "--set", f"output_dir={out}"]) == 0
        assert "ALL CHECKS PASSED" in (out / "verify_report.txt").read_text()

    def test_verify_reads_the_claims_table(self, tmp_path, monkeypatch, small_claims):
        exact = small_claims["parseval_identity"]._replace(tol=0.0)
        monkeypatch.setitem(small_claims, "parseval_identity", exact)
        out = tmp_path / "v"
        assert main(["verify", "--set", f"output_dir={out}"]) == 3
        text = (out / "verify_report.txt").read_text()
        assert "FAIL  parseval_identity" in text and "CHECKS FAILED" in text

    def test_conv_space_writes_table(self, tmp_path, monkeypatch, small_claims):
        monkeypatch.setattr(spfc.cli, "CONV_DT", 1e-3)
        out = tmp_path / "cs"
        code = main(
            [
                "conv-space",
                "--set", "model.epsilon=0.025",
                "--set", "model.A=0.25",
                "--set", f"output_dir={out}",
            ]
        )
        assert code == 0
        table = (out / "convergence_space.csv").read_text().strip().splitlines()
        assert table[0] == "resolution,dt,error_l2,error_h3_seminorm"
        assert [row.split(",")[0] for row in table[1:]] == ["6", "8", "10", "12"]
        assert "error(12) / error(6) = " in (out / "report.txt").read_text()

    def test_conv_time_writes_table(self, tmp_path, monkeypatch, small_claims):
        monkeypatch.setattr(spfc.cli, "CONV_STEPS", (20, 40, 80))
        out = tmp_path / "ct"
        assert main(["conv-time", "--set", f"output_dir={out}"]) == 0
        table = (out / "convergence_time.csv").read_text().strip().splitlines()
        assert table[0] == "resolution,dt,error_l2,error_h3_seminorm"
        assert [row.split(",")[0] for row in table[1:]] == ["20", "40", "80"]
        assert "fitted order = " in (out / "report.txt").read_text()

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_config_error_exits_two(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        assert main(["simulate", "--config", cfg, "--set", "grid.n=2"]) == 2

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mode = simulate\n\xff\xfe\x00\x81\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config key '--config'" in capsys.readouterr().err

    def test_overflowing_schedule_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'big'}\n")
        assert main(["simulate", "--config", cfg, "--set", "schedule=0.05:1e308"]) == 2
        assert "config key 'schedule'" in capsys.readouterr().err
        assert not (tmp_path / "big").exists()

    def test_solver_failure_exits_three(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            # at n = 64 the node site is a stiff start: step 1 solves from the
            # copy to the floor, which one iteration cannot reach
            f"output_dir = {tmp_path / 'f'}\ngrid.n = 64\nsolver.max_iter = 1\nsolver.tol = 1e-13\n",
        )
        assert main(["simulate", "--config", cfg]) == 3
        # the log is streamed: the header and the t = 0 row survive the failure
        rows = (tmp_path / "f" / "energy.csv").read_text().splitlines()
        assert rows[0] == "step,time,E,E_mod,mass,h2_norm,psd_iters,residual"
        assert len(rows) == 2 and rows[1].startswith("0,0.0,")

    def test_stagnating_solve_exits_three_early(self, tmp_path, capsys):
        cfg = self._write_cfg(
            tmp_path, f"output_dir = {tmp_path / 's'}\ninit.amplitude = 1e6\n"
        )
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "fell less than 10x over 22 iterations at iteration" in err
        assert "did not converge" not in err

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("verify", "model.epsilon", "0.3"),
            ("conv_space", "grid.n", "64"),
            ("conv_time", "solver.tol", "1e-6"),
        ],
    )
    def test_key_outside_mode_exits_two(self, tmp_path, capsys, mode, key, value):
        text = "schedule = 0.05:0.5\n" if mode == "simulate" else ""
        with pytest.raises(ConfigError, match=rf"'{key}' \(line 2\).*{mode}"):
            parse_config(f"mode = {mode}\n{key} = {value}\n" + text)
        path = tmp_path / "run.cfg"
        path.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
        args = [mode.replace("_", "-"), "--config", str(path), "--set", f"{key}={value}"]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("profile", "full"), ("grid.dim", "2")])
    @pytest.mark.parametrize("mode", MODES)
    def test_removed_key_is_unknown(self, tmp_path, capsys, mode, key, value):
        # every earlier simulate config.resolved carries grid.dim = 2
        text = "schedule = 0.05:0.5\n" if mode == "simulate" else ""
        with pytest.raises(ConfigError, match=rf"'{key}' \(line 2\): unknown key"):
            parse_config(f"mode = {mode}\n{key} = {value}\n" + text)
        path = tmp_path / "run.cfg"
        path.write_text(f"{text}{key} = {value}\noutput_dir = {tmp_path / 'out'}\n")
        assert main([mode.replace("_", "-"), "--config", str(path)]) == 2
        line = 2 if text else 1
        assert f"config key {key!r} (line {line}): unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, form",
        [
            ("grid.n", "{}"),
            ("grid.length", "{}"),
            ("model.epsilon", "{}"),
            ("model.A", "{}"),
            ("schedule", "{}:0.5"),
            ("schedule", "0.05:{}"),
            ("seed", "{}"),
            ("snapshot_times", "0.25,{}"),
            ("init.amplitude", "{}"),
            ("init.sites", "50:{}:10"),
            ("solver.tol", "{}"),
            ("solver.max_iter", "{}"),
        ],
    )
    def test_nonfinite_number_exits_two(self, tmp_path, capsys, key, form, bad):
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'nan'}\n")
        assert main(["simulate", "--config", cfg, "--set", f"{key}={form.format(bad)}"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "nan").exists()

    @pytest.mark.parametrize(
        "mode, keys",
        [
            ("conv_space", ["mode", "model.epsilon", "model.A", "model.scheme", "output_dir"]),
            ("verify", ["mode", "output_dir"]),
        ],
    )
    def test_resolved_config_holds_the_mode_keys_only(self, mode, keys):
        text = render_config(parse_config("", mode=mode))
        assert [line.split(" = ")[0] for line in text.splitlines()] == keys

    def test_nonfinite_state_exits_three_without_traceback(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path, f"output_dir = {tmp_path / 'nf'}\ninit.amplitude = 1e150\n"
        )
        src = Path(spfc.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "spfc.cli", "simulate", "--config", cfg],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 3
        assert "solver failure: segment 0, step 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr  # the overflow is the solver's to report

    def test_snapshot_time_after_the_schedule_exits_two(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"'snapshot_times' \(line 3\).*5.0 is after"):
            parse_config("mode = simulate\nschedule = 0.05:0.5\nsnapshot_times = 0.25, 5\n")
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'late'}\n")
        assert main(["simulate", "--config", cfg, "--set", "snapshot_times=5"]) == 2
        assert "'snapshot_times' (line --set snapshot_times=5)" in capsys.readouterr().err
        assert not (tmp_path / "late").exists()

    def test_default_snapshot_times_follow_the_schedule(self, tmp_path):
        # the defaults (1 ... 200) are filtered to a 0.5-long schedule, and the
        # resolved config, which leaves them out, reruns
        path = tmp_path / "run.cfg"
        path.write_text(self.CFG.replace("snapshot_times = 0.25,0.5\n", "") + f"output_dir = {tmp_path / 'a'}\n")
        assert main(["simulate", "--config", str(path)]) == 0
        resolved = (tmp_path / "a" / "config.resolved").read_text()
        assert not [line for line in resolved.splitlines() if line.startswith("snapshot_times")]
        assert main(["simulate", "--config", str(tmp_path / "a" / "config.resolved"),
                     "--set", f"output_dir={tmp_path / 'b'}"]) == 0
        assert not list((tmp_path / "b").glob("snap_*.spfc"))

    @pytest.mark.parametrize(
        "key, value", [("init.history", "copy"), ("solver.residual_norm", "l2")])
    def test_removed_key_exits_two(self, tmp_path, capsys, key, value):
        cfg = self._write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n{key} = {value}\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert f"config key {key!r} (line 9): unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
