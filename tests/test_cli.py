from __future__ import annotations

import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thermorun import cli, model, steady
from thermorun.model import DimensionalParams
from thermorun.output import ManifestWriter

from conftest import time_limit


ROOT = Path(__file__).resolve().parents[1]


def run(args: list[str]) -> int:
    return cli.main(args)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestRates:
    def test_crossing_reported_near_operating_point(self, tmp_path):
        out = tmp_path / "r"
        code = run(["rates", "--preset", "mic-tank610", "--n", "2001",
                    "-o", str(out)])
        assert code == 0
        man = json.loads(read(out / "manifest.json"))
        crossings = man["summary"]["crossings_T_kelvin"]
        assert len(crossings) == 1
        assert 300.0 <= crossings[0] <= 308.0

    def test_row_count_matches_n(self, tmp_path):
        out = tmp_path / "r"
        assert run(["rates", "--preset", "mic-tank610", "--n", "321",
                    "-o", str(out)]) == 0
        lines = read(out / "rates.csv").strip().splitlines()
        assert len(lines) == 322  # header + n
        man = json.loads(read(out / "manifest.json"))
        assert man["outputs"][0]["rows"] == 321

    def test_reaction_off_crosses_at_ambient(self, tmp_path):
        out = tmp_path / "r"
        assert run(["rates", "--preset", "mic-tank610", "--sigma", "0",
                    "--T-window", "285:300", "-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        [cross] = man["summary"]["crossings_T_kelvin"]
        assert cross == pytest.approx(292.0, abs=0.1)


class TestSteadyBranch:
    def test_specials_contain_subcritical_hopf(self, tmp_path):
        out = tmp_path / "b"
        code = run(["steady-branch", "--preset", "mic-tank610",
                    "--Ta", "282:296", "-o", str(out)])
        assert code == 0
        specials = read(out / "specials.csv").strip().splitlines()
        assert len(specials) >= 2
        header = specials[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in specials[1:]]
        hopfs = [r for r in rows if r["kind"] == "hopf"]
        assert hopfs
        assert 288.5 <= float(hopfs[0]["param_T_kelvin"]) <= 291.5
        assert hopfs[0]["criticality"] == "subcritical"


class TestSimulate:
    def test_runaway_exit_code(self, tmp_path):
        code = run(["simulate", "--preset", "mic-tank610", "--Ta", "292",
                    "--fail-on-runaway", "-o", str(tmp_path / "s")])
        assert code == 4

    def test_no_runaway_below_onset(self, tmp_path):
        code = run(["simulate", "--preset", "mic-tank610", "--Ta", "286",
                    "--x0", "0.4", "--tau-end", "20",
                    "--fail-on-runaway", "-o", str(tmp_path / "s")])
        assert code == 0

    def test_trajectory_schema(self, tmp_path):
        out = tmp_path / "s"
        run(["simulate", "--preset", "mic-tank610", "--Ta", "292",
             "-o", str(out)])
        lines = read(out / "trajectory.csv").splitlines()
        assert lines[0] == "tau,x,u,T_kelvin,event"
        assert any(line.endswith(",boil") for line in lines[1:])

    def test_start_at_the_boiling_threshold(self, tmp_path):
        # --u0 is mic-tank610's u_boil: a runaway at tau = 0.
        argv = ["simulate", "--preset", "mic-tank610", "--Ta", "284",
                "--x0", "0.9", "--u0", "0.04053075", "--tau-end", "2"]
        out = tmp_path / "s"
        assert run(argv + ["-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        assert man["summary"]["runaway"]["tau"] == 0.0
        assert man["summary"]["tau_end_reached"] == 0.0
        lines = read(out / "trajectory.csv").splitlines()
        assert len(lines) == 2 and lines[1].endswith(",boil")
        assert run(argv + ["--fail-on-runaway", "-o", str(tmp_path / "f")]) == 4


class TestCalibrate:
    def test_sigma_echoed_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert run(["calibrate", "--preset", "mic-tank610",
                    "-o", str(out1)]) == 0
        assert run(["calibrate", "--preset", "mic-tank610",
                    "-o", str(out2)]) == 0
        man = json.loads(read(out1 / "manifest.json"))
        assert man["summary"]["sigma"] > 0
        assert read(out1 / "calibrated_params.json") == \
            read(out2 / "calibrated_params.json")


class TestLoci:
    def test_small_window_run(self, tmp_path):
        out = tmp_path / "l"
        code = run(["loci", "--preset", "mic-tank610",
                    "--Ta-window", "240:330", "--f-window", "0.5:50",
                    "--grid", "12x12", "-o", str(out)])
        assert code == 0
        man = json.loads(read(out / "manifest.json"))
        assert man["summary"]["hopf_points"] > 5
        assert man["summary"]["oscillatory_cells"] > 0
        assert (out / "region_map.csv").exists()
        assert (out / "hopf_locus.csv").exists()
        assert (out / "fold_locus.csv").exists()


class TestSpecialsKelvinColumn:
    """param_T_kelvin converts the continuation parameter, so it exists
    only when that parameter is the ambient temperature u_a."""

    def specials(self, tmp_path, active: str, prange: str) -> list[dict]:
        out = tmp_path / active
        assert run(["steady-branch", "--preset", "mic-tank610",
                    "--active", active, "--range", prange, "-o", str(out)]) == 0
        header, *lines = read(out / "specials.csv").strip().splitlines()
        assert lines
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    def test_absent_for_a_dimensionless_parameter(self, tmp_path):
        rows = self.specials(tmp_path, "f", "0.85:3.4")
        assert "param_T_kelvin" not in rows[0]
        assert "T_kelvin" in rows[0]          # the state's u is still a temperature

    def test_kept_for_the_ambient_temperature(self, tmp_path, mic):
        rows = self.specials(tmp_path, "u_a", "0.0366:0.0385")
        for row in rows:
            assert float(row["param_T_kelvin"]) == pytest.approx(
                float(row["param"]) * mic.temp_scale, rel=1e-12)


class TestCycleBranchCommand:
    def test_short_branch(self, tmp_path):
        out = tmp_path / "cb"
        code = run(["cycle-branch", "--preset", "mic-tank610",
                    "--Ta", "288:294", "--max-orbits", "6", "-o", str(out)])
        assert code == 0
        lines = read(out / "cycles.csv").strip().splitlines()
        assert lines[0].startswith("param,param_T_kelvin,period,amplitude")
        assert len(lines) >= 4
        assert ",unstable," in lines[1]


class TestManifest:
    def test_wall_time_covers_computation(self, tmp_path, monkeypatch):
        original = steady.continue_branch

        def slow_branch(*args, **kwargs):
            time.sleep(0.2)
            return original(*args, **kwargs)

        monkeypatch.setattr(steady, "continue_branch", slow_branch)
        out = tmp_path / "b"
        assert run(["steady-branch", "--preset", "mic-tank610",
                    "--Ta", "288:292", "-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        assert man["wall_time_s"] >= 0.2


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [["loci", "--jobs", "2"],
                                      ["loci", "--verify-slices", "3"],
                                      ["cycle-branch", "--ds0", "1e-3"]],
                             ids=["loci-jobs", "loci-verify-slices",
                                  "cycle-branch-ds0"])
    def test_are_unknown(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--preset", "mic-tank610", "-o", str(tmp_path / "r")])
        assert exc.value.code == 2


def failure_manifest(out: Path, code: int, prefix: str, capsys) -> dict:
    man = json.loads(read(out / "manifest.json"))
    assert man["status"] == "failed"
    assert man["exit_code"] == code
    assert man["error"].startswith(prefix)
    assert man["error"] == capsys.readouterr().err.strip()
    assert man["wall_time_s"] >= 0.0
    return man


class TestExitCodes:
    def test_no_hopf_in_range_is_convergence_failure(self, tmp_path, capsys,
                                                      mic):
        out = tmp_path / "cb"
        code = run(["cycle-branch", "--preset", "mic-tank610",
                    "--Ta", "283:286", "-o", str(out)])
        assert code == 3
        man = failure_manifest(out, 3, "convergence failure: ", capsys)
        assert man["command"] == "cycle-branch"
        assert "no Hopf point" in man["error"]
        # The failure manifest names the inputs the run resolved.
        assert man["resolved_params"] == json.loads(json.dumps(asdict(mic.model)))
        assert man["preset"] == "mic-tank610"

    def test_config_error_leaves_failure_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["rates", "-o", str(out)]) == 2
        failure_manifest(out, 2, "configuration error: ", capsys)

    @pytest.mark.parametrize("grid", ["40", "40x", "axb", "4x-3"])
    def test_malformed_loci_grid_is_a_config_error(self, tmp_path, capsys,
                                                   grid):
        out = tmp_path / "l"
        assert run(["loci", "--preset", "mic-tank610", "--grid", grid,
                    "-o", str(out)]) == 2
        man = failure_manifest(out, 2, "configuration error: grid: ", capsys)
        assert man["command"] == "loci"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["rates", "simulate", "calibrate"])
    @pytest.mark.parametrize("Ta", ["abc", "nan", "inf", "282:296"])
    def test_single_Ta_must_be_a_finite_number(self, tmp_path, capsys,
                                               command, Ta):
        out = tmp_path / "o"
        assert run([command, "--preset", "mic-tank610", "--Ta", Ta,
                    "-o", str(out)]) == 2
        man = failure_manifest(out, 2, "configuration error: Ta: ", capsys)
        assert man["command"] == command
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("max_orbits", ["1", "0", "-3"])
    def test_cycle_branch_needs_its_two_germ_orbits(self, tmp_path, capsys,
                                                    max_orbits):
        out = tmp_path / "cb"
        assert run(["cycle-branch", "--preset", "mic-tank610", "--Ta",
                    "282:296", "--max-orbits", max_orbits, "-o", str(out)]) == 2
        failure_manifest(out, 2, "configuration error: max_orbits: ", capsys)
        assert not list(out.glob("*.csv"))

    def test_cycle_branch_needs_ten_segments(self, tmp_path, capsys):
        out = tmp_path / "cb"
        assert run(["cycle-branch", "--preset", "mic-tank610", "--Ta",
                    "282:296", "--segments", "4", "--max-orbits", "3",
                    "-o", str(out)]) == 2
        failure_manifest(out, 2, "configuration error: m: ", capsys)
        assert not list(out.glob("*.csv"))

    # 283:286 K holds no Hopf point: the options are checked before the
    # steady walk that would find none.
    @pytest.mark.parametrize("flag, value, field", [
        ("--segments", "4", "m"), ("--max-orbits", "1", "max_orbits")])
    def test_cycle_branch_options_checked_before_the_steady_walk(
            self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "cb"
        assert run(["cycle-branch", "--preset", "mic-tank610", "--Ta",
                    "283:286", flag, value, "-o", str(out)]) == 2
        failure_manifest(out, 2, f"configuration error: {field}: ", capsys)

    @pytest.mark.parametrize("command, flag, lo, hi", [
        ("steady-branch", "--range", "0.036", "0.04"),
        ("loci", "--f-window", "0.5", "10")])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_range_bounds_must_be_finite(self, tmp_path, capsys, command,
                                         flag, lo, hi, bad):
        bounds = f"{lo}:{bad}" if bad == "inf" else f"{bad}:{hi}"
        out = tmp_path / "o"
        assert run([command, "--preset", "mic-tank610", f"{flag}={bounds}",
                    "-o", str(out)]) == 2
        man = failure_manifest(out, 2, "configuration error: range: ", capsys)
        assert man["command"] == command
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("window", ["-10:330", "0:330"])
    def test_nonpositive_ambient_window_is_a_config_error(self, tmp_path,
                                                          capsys, window):
        out = tmp_path / "l"
        assert run(["loci", "--preset", "mic-tank610", "--grid", "4x4",
                    f"--Ta-window={window}", "-o", str(out)]) == 2
        failure_manifest(out, 2, "configuration error: window: ", capsys)
        assert not list(out.glob("*.csv"))

    # Inputs no integration can run on, each a configuration error within
    # seconds: integrated, a NaN horizon would never return.
    @pytest.mark.parametrize("flag, field", [
        ("--tau-end=nan", "tau_end"), ("--tau-end=inf", "tau_end"),
        ("--x0=nan", "x0"), ("--u0=nan", "u0"),
        ("--x0=2", "x0"), ("--u0=-1", "u0"), ("--u0=inf", "u0"),
        ("--tol-rel=nan", "tol_rel"), ("--tol-abs=inf", "tol_abs"),
        ("--samples=1", "n_samples"), ("--samples=0", "n_samples"),
        ("--samples=-5", "n_samples")])
    def test_simulate_rejects_what_it_cannot_integrate(self, tmp_path, capsys,
                                                      flag, field):
        out = tmp_path / "s"
        with time_limit(20):
            code = run(["simulate", "--preset", "mic-tank610", "--Ta", "286",
                        flag, "-o", str(out)])
        assert code == 2
        man = failure_manifest(out, 2, f"configuration error: {field}: ", capsys)
        assert man["command"] == "simulate"
        assert not list(out.glob("*.csv"))

    # A first step of 0 would walk 3000 steps in place, past the range's
    # Hopf point.
    @pytest.mark.parametrize("ds0", ["0", "-1e-3", "nan", "inf"])
    def test_steady_branch_step_must_be_finite_and_positive(self, tmp_path,
                                                            capsys, ds0):
        out = tmp_path / "sb"
        with time_limit(20):
            code = run(["steady-branch", "--preset", "mic-tank610", "--Ta",
                        "282:296", f"--ds0={ds0}", "-o", str(out)])
        assert code == 2
        failure_manifest(out, 2, "configuration error: ds0: ", capsys)
        assert not list(out.glob("*.csv"))

    def test_unwritable_outdir_keeps_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert run(["rates", "-o", str(blocker)]) == 2
        assert read(blocker) == "not a directory"

    def test_success_manifest_has_no_failure_fields(self, tmp_path):
        out = tmp_path / "r"
        assert run(["rates", "--preset", "mic-tank610", "--n", "11",
                    "-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        assert not {"status", "exit_code", "error"} & set(man)


class TestConfigHandling:
    def test_both_preset_and_params_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "preset": "mic-tank610",
            "params": {"f": 1.7, "ell": 700.0, "eps": 10.0, "u_a": 0.0379},
        }))
        assert run(["rates", "--config", str(cfg),
                    "-o", str(tmp_path / "o")]) == 2

    def test_missing_parameters_rejected(self, tmp_path):
        assert run(["rates", "-o", str(tmp_path / "o")]) == 2

    def test_kelvin_without_scale_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "params": {"f": 1.7, "ell": 700.0, "eps": 10.0, "u_a": 0.0379,
                       "sigma": 1.0, "u_boil": 0.0406},
        }))
        assert run(["rates", "--config", str(cfg), "--Ta", "292",
                    "-o", str(tmp_path / "o")]) == 2

    def test_flag_overrides_config(self, tmp_path, mic):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(mic.to_config()))
        out = tmp_path / "o"
        assert run(["rates", "--config", str(cfg), "--sigma", "0",
                    "--T-window", "285:300", "-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        assert man["resolved_params"]["sigma"] == 0.0

    def test_dimensionless_only_schema(self, tmp_path, mic):
        cfg = tmp_path / "c.json"
        payload = mic.to_config()
        payload.pop("temp_scale_K")
        payload.pop("dimensional")
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run(["rates", "--config", str(cfg), "-o", str(out)]) == 0
        header = read(out / "rates.csv").splitlines()[0]
        assert header == "u,r_g,r_l"

    VALID = {"f": 1.7, "ell": 700.0, "eps": 10.0, "u_a": 0.0379}

    @pytest.mark.parametrize("payload, field", [
        ({"params": {"f": 1.7, "ell": 700}}, "params: "),
        ({"params": dict(VALID, foo=1.0)}, "params: "),
        ({"params": dict(VALID, f="fast")}, "params.f: "),
        ({"params": [1.7, 700.0]}, "params: "),
        ({"params": VALID, "bogus": 1}, "bogus: "),
        ({"dimensional": {"E": 64000.0}, "T_boil": 312.0}, "dimensional: "),
        ([VALID], "config: "),
        ("{not json", "config: "),
        (None, "config: "),                  # --config names a directory
        # A temperature scale must be finite and positive.
        ({"params": VALID, "temp_scale_K": math.nan}, "temp_scale_K: "),
        ({"params": VALID, "temp_scale_K": 0.0}, "temp_scale_K: "),
        ({"params": VALID, "temp_scale_K": -7697.86}, "temp_scale_K: "),
        ({"params": VALID, "temp_scale_K": math.inf}, "temp_scale_K: "),
    ])
    def test_malformed_config_leaves_failure_manifest(self, tmp_path, capsys,
                                                      payload, field):
        cfg = tmp_path / "c.json"
        if payload is None:
            cfg = tmp_path
        else:
            cfg.write_text(payload if isinstance(payload, str)
                           else json.dumps(payload))
        out = tmp_path / "o"
        assert run(["rates", "--config", str(cfg), "-o", str(out)]) == 2
        man = failure_manifest(out, 2, "configuration error: " + field, capsys)
        if field == "params: " and "foo" in str(payload):
            assert "foo" in man["error"]
        if field == "config: " and payload is None:
            assert str(tmp_path) in man["error"]

    @pytest.mark.parametrize("drop", [None, "params"])
    def test_conflicting_temp_scale_rejected(self, tmp_path, capsys, mic, drop):
        payload = dict(mic.to_config(), temp_scale_K=5000.0)
        if drop:
            payload.pop(drop)
            payload["T_boil"] = 312.0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run(["rates", "--config", str(cfg), "-o", str(out)]) == 2
        failure_manifest(out, 2, "configuration error: temp_scale_K: ", capsys)

    def test_calibrated_params_round_trip(self, tmp_path):
        cal, by_config, by_preset = (tmp_path / n for n in ("c", "r1", "r2"))
        assert run(["calibrate", "--preset", "mic-tank610", "-o", str(cal)]) == 0
        saved = json.loads(read(cal / "calibrated_params.json"))
        assert set(saved) == {"params", "temp_scale_K", "dimensional"}
        assert run(["rates", "--config", str(cal / "calibrated_params.json"),
                    "-o", str(by_config)]) == 0
        assert run(["rates", "--preset", "mic-tank610", "-o", str(by_preset)]) == 0
        assert read(by_config / "rates.csv") == read(by_preset / "rates.csv")

    def test_readme_examples_are_the_compared_configs(self, mic):
        # README's config examples are the ones tools/compare_outputs.py
        # runs, and each resolves to (rounded) mic-tank610 inputs.
        section = (ROOT / "README.md").read_text().split(
            "### Config files", 1)[1].split("\n## ", 1)[0]
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```",
                                                     section, re.S)]
        configs = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))["CONFIGS"]
        assert blocks == [{"preset": "mic-tank610"}, *configs.values()]
        for cfg in blocks:
            res = model.Preset.from_config(cfg)
            assert res.temp_scale == pytest.approx(mic.temp_scale, rel=1e-6)
            for name, value in asdict(mic.model).items():
                assert getattr(res.model, name) == pytest.approx(value, rel=0.02), name

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THERMORUN_OUTDIR", str(tmp_path / "env_out"))
        assert run(["rates", "--preset", "mic-tank610"]) == 0
        assert (tmp_path / "env_out" / "rates.csv").exists()


class TestKelvinOverrides:
    """The manifest's dimensional block stays true to the parameters a run
    resolved: T_a follows u_a, and the block goes when f, ell or eps move."""

    @pytest.mark.parametrize("argv, code", [
        (["rates", "--Ta", "284", "--n", "11"], 0),
        (["steady-branch", "--Ta", "284"], 0),
        (["cycle-branch", "--Ta", "284"], 3),       # no Hopf point below 289.7 K
        (["simulate", "--Ta", "284", "--tau-end", "2"], 0),
        (["calibrate", "--Ta", "291"], 0),
        (["loci", "--u-a", "0.036893375", "--grid", "2x2"], 0),   # 284 K
    ])
    def test_override_recorded(self, tmp_path, mic, argv, code):
        out = tmp_path / "o"
        assert run(argv + ["--preset", "mic-tank610", "-o", str(out)]) == code
        man = json.loads(read(out / "manifest.json"))
        T_a = man["dimensional_params"]["T_a"]
        assert T_a == (float(argv[2]) if argv[1] == "--Ta" else 284.0)
        assert T_a == man["resolved_params"]["u_a"] * man["temp_scale_K"]

    @pytest.fixture(scope="class")
    def both_blocks(self, tmp_path_factory, mic):
        path = tmp_path_factory.mktemp("cfg") / "both.json"
        path.write_text(json.dumps(mic.to_config()))
        return path

    SAME = "same"   # the source's own value, passed at full precision

    @settings(max_examples=200, deadline=None)
    @given(source=st.sampled_from(model.PRESET_NAMES + ("config",)),
           Ta=st.none() | st.floats(270.0, 300.0),
           f=st.sampled_from([None, SAME]) | st.floats(0.5, 20.0),
           ell=st.sampled_from([None, SAME]) | st.floats(350.0, 1400.0),
           eps=st.sampled_from([None, SAME]) | st.floats(5.0, 20.0),
           sigma=st.sampled_from([None, SAME]) | st.floats(0.0, 1e13),
           u_boil=st.sampled_from([None, SAME]) | st.floats(0.041, 0.06))
    def test_dimensional_block_true_to_the_run(self, both_blocks, source, Ta,
                                                **flags):
        pre = model.preset("mic-tank610" if source == "config" else source)
        argv = ["rates"] + (["--config", str(both_blocks)] if source == "config"
                            else ["--preset", source])
        if Ta is not None:
            argv += ["--Ta", repr(Ta)]
        flags = {name: getattr(pre.model, name) if v == self.SAME else v
                 for name, v in flags.items() if v is not None}
        for name, v in flags.items():
            argv += [f"--{name.replace('_', '-')}", repr(v)]
        man = ManifestWriter("rates", Path("unused"))
        man.set_inputs(cli.resolve_inputs(cli.build_parser().parse_args(argv)))
        got, ts = man.data["resolved_params"], man.data["temp_scale_K"]
        assert ts == pre.temp_scale
        if Ta is not None:
            assert got["u_a"] == Ta / ts
        kept = pre.dim is not None and all(
            math.isclose(flags.get(k, v), v, rel_tol=1e-12)
            for k, v in (("f", pre.model.f), ("ell", pre.model.ell),
                         ("eps", pre.model.eps)))
        assert ("dimensional_params" in man.data) == kept
        if kept:
            dim = DimensionalParams(**man.data["dimensional_params"])
            ref = model.nondimensionalize(dim, boiling_temperature=math.inf)
            for k in ("f", "ell", "eps", "u_a"):
                assert math.isclose(getattr(ref, k), got[k], rel_tol=1e-12)
            assert math.isclose(dim.T_a, got["u_a"] * ts, rel_tol=1e-12)
            assert dim.E == pre.dim.E and dim.V == pre.dim.V


class TestLociStops:
    @pytest.mark.parametrize("name", model.PRESET_NAMES)
    def test_stop_reasons_and_partial_flag(self, tmp_path, name):
        out = tmp_path / "l"
        assert run(["loci", "--preset", name, "--grid", "2x2",
                    "-o", str(out)]) == 0
        man = json.loads(read(out / "manifest.json"))
        reasons = (man["summary"]["hopf_stop_reasons"]
                   + man["summary"]["fold_stop_reasons"])
        assert reasons and all(isinstance(r, str) for r in reasons)
        assert man["partial"] == ("corrector failure" in reasons)


class TestDeterminism:
    def test_identical_configs_identical_csvs(self, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert run(["steady-branch", "--preset", "mic-tank610",
                        "--Ta", "288:292", "-o", str(out)]) == 0
            outs.append(out)
        for fname in ("branch.csv", "specials.csv"):
            assert read(outs[0] / fname) == read(outs[1] / fname)


    def test_cycles_csv_independent_of_blas_threads(self, tmp_path):
        # The shooting kernel's products go through BLAS: one thread and two
        # must sum them alike.  Each run is a fresh process, since BLAS reads
        # its thread count when it loads.
        src = str(ROOT / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            out = tmp_path / f"t{threads}"
            res = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from thermorun import cli; sys.exit(cli.main())",
                 "cycle-branch", "--preset", "mic-tank610", "--Ta", "282:296",
                 "--max-orbits", "6", "-o", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
            outs.append((out / "cycles.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCompareOutputs:
    @pytest.mark.parametrize("base, change, verdict", [
        ("u,T\n1,a\n2,b\n", "u,T\n1.0000000001,a\n2,b\n",
         "1 of 2 rows changed, largest relative difference 1e-10, no label changed"
         "; by column: u 1e-10"),
        ("u,T\n1,a\n-2,b\n", "u,T\n1,a\n-3,c\n",
         "1 of 2 rows changed, largest relative difference 0.333, a label changed"
         "; by column: u 0.333, T label"),
        ("u,T\n1,a\n", "u,K\n1,a\n",
         "0 of 1 rows changed, largest relative difference 0, a label changed"),
        ("u,T\n1,\n", "u,T\n1,0.5\n",
         "1 of 1 rows changed, largest relative difference 0, a label changed"
         "; by column: T label"),
        ("u\n1\n", "u\n1\n2\n", "1 -> 2 rows"),
        # Each column that moved, with its own largest difference; the
        # unchanged ones are not listed.
        ("p,amp,mult,kind\n1,2,4,s\n2,5,8,u\n",
         "p,amp,mult,kind\n1,2.0000002,4,s\n2,5.000002,8.000008,u\n",
         "2 of 2 rows changed, largest relative difference 1e-06, no label changed"
         "; by column: amp 4e-07, mult 1e-06"),
    ])
    def test_reports_how_far_a_csv_moved(self, base, change, verdict):
        csv_diff = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))["csv_diff"]
        assert csv_diff(base, change) == "bytes differ: " + verdict

    @pytest.mark.parametrize("base, change, verdict", [
        ({"T": 2.0, "n": 24, "ok": True}, {"T": 2.0000000002, "n": 24, "ok": True},
         "1 key(s) differ, largest relative difference 1e-10, no label changed: "
         "T: 2.0 -> 2.0000000002 (1e-10)"),
        ({"a": {"b": [1, 2]}, "k": "x"}, {"a": {"b": [1, 3]}, "k": "y"},
         "2 key(s) differ, largest relative difference 0.333, a label changed: "
         "a.b[1]: 2 -> 3 (0.333); k: 'x' -> 'y'"),
        ({"ok": True, "v": [1]}, {"ok": False, "v": [1, 2], "w": 0},
         "3 key(s) differ, largest relative difference 0, a label changed: "
         "ok: True -> False; v: [1] -> [1, 2]; w: only in change"),
        ({"x": float("nan"), "wall_time_s": 1.0}, {"x": float("nan"), "wall_time_s": 2.0},
         "1 key(s) differ, largest relative difference 0.5, no label changed: "
         "wall_time_s: 1.0 -> 2.0 (0.5)"),
    ])
    def test_reports_how_far_a_json_file_moved(self, base, change, verdict):
        tool = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))
        a, b = json.dumps(base), json.dumps(change)
        assert tool["json_verdict"](a, b) == verdict
        # A manifest's wall time is left out.
        assert tool["json_verdict"](a, b, tool["VOLATILE"]) == (
            "" if "wall_time_s" in base else verdict)

    def test_wall_times_are_printed_but_not_compared(self, tmp_path):
        tool = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))
        for side, wall in (("base", 1.25), ("change", 2.5)):
            (tmp_path / side).mkdir()
            (tmp_path / side / "manifest.json").write_text(
                json.dumps({"status": "ok", "wall_time_s": wall}))
            (tmp_path / side / "a.csv").write_text("u\n1\n")
        lines, differs = tool["report"]("cmd", tmp_path / "base",
                                        tmp_path / "change")
        assert lines == ["cmd/a.csv: byte-identical",
                         "cmd/manifest.json: equal apart from wall_time_s",
                         "cmd: wall_time_s 1.250 -> 2.500 (not compared)"]
        assert not differs
        # Without a manifest on one side there is no wall time to print.
        (tmp_path / "change" / "manifest.json").unlink()
        lines, differs = tool["report"]("cmd", tmp_path / "base",
                                        tmp_path / "change")
        assert lines[-1] == "cmd/manifest.json: only in base" and differs

    def test_line_counts_are_printed_but_not_compared(self, tmp_path):
        tool = runpy.run_path(str(ROOT / "tools" / "compare_outputs.py"))
        for side, n in (("base", 3), ("change", 5)):
            for d in ("src/thermorun", "tests", "tools"):    # tools not counted
                (tmp_path / side / d / "sub").mkdir(parents=True)
                (tmp_path / side / d / "a.py").write_text("x = 1\n" * n)
                (tmp_path / side / d / "sub" / "b.py").write_text("y = 2\n")
                (tmp_path / side / d / "notes.txt").write_text("not code\n" * 9)
        assert tool["line_counts"](tmp_path / "base", tmp_path / "change") == [
            "src/thermorun: 4 -> 6 lines (not compared)",
            "tests: 4 -> 6 lines (not compared)"]
