import json
import math
import os
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xlris
from xlris import codebook
from xlris.cli import main
from xlris.codebook import SampleGrid, cache_file_name
from xlris.config import (
    ConfigError,
    builtin_config_path,
    config_digest,
    config_from_dict,
    config_to_dict,
    parse_config,
    resolve_config_path,
)
from xlris.training import HierarchicalConfig

TINY = {
    "array": {"n1": 8, "n2": 2, "spacing_wavelengths": 0.5},
    "scatter_g_d": {"x": [-40, 40], "y": [4, 40], "z": [-16, 16]},
    "scatter_r_d": {"x": [-40, 40], "y": [4, 40], "z": [-16, 16]},
    "sampling_step_d": 16,
    "step_sweep_d": [8, 16],
    "snr_grid_db": [-5, 5],
    "trials": 6,
    "seed": 11,
}


@st.composite
def raw_configs(draw):
    """TINY with random spacing, boxes, steps, and any subset of the hierarchy keys."""
    length = st.floats(1e-3, 1e3)

    def interval(lo_min):
        return sorted(draw(st.floats(lo_min, 1e3)) for _ in range(2))

    def box():
        return {"x": interval(-1e3), "y": interval(1e-3), "z": interval(-1e3)}

    boxes = box(), box()
    # A thousandth of the widest interval or more, so no grid holds more
    # than 1001**3 points, within MAX_GRID_POINTS.
    widest = max(hi - lo for b in boxes for lo, hi in b.values())
    step = st.floats(max(1e-3, widest / 1000), 1e3)
    raw = {
        **TINY,
        "array": {"n1": 8, "n2": 2, "spacing_wavelengths": draw(length)},
        "scatter_g_d": boxes[0],
        "scatter_r_d": boxes[1],
        "sampling_step_d": draw(step),
        "step_sweep_d": draw(st.lists(step, min_size=1, max_size=4)),
    }
    hierarchical = st.fixed_dictionaries(
        {},
        optional={
            "levels": st.integers(1, 3),
            "step_multiplier": st.integers(1, 8) | st.floats(1.0, 8.0),
            # strictly inside (0, 1), large enough that no level step underflows
            # and that no level asks for more than 34**6 slots, within MAX_LEVEL_SLOTS
            "step_control": st.floats(0.03, 1.0, exclude_max=True),
        },
    )
    if draw(st.booleans()):
        raw["hierarchical"] = draw(hierarchical)
    return raw


def cache_name(cfg) -> str:
    return cache_file_name(*cfg.codebook_grids(), cfg.scene.dims)


def reject_constant(name):
    """`json.loads` hook: NaN and Infinity are not JSON."""
    raise ValueError(f"non-finite JSON constant {name}")


def write_config(tmp_path, overrides=None, name="cfg.json"):
    raw = json.loads(json.dumps(TINY))
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestParseConfig:
    def test_shipped_paper_config_values(self):
        cfg = parse_config(builtin_config_path("paper"))
        dims = cfg.scene.dims
        assert (dims.n1, dims.n2, dims.d) == (128, 4, 0.5)
        assert cfg.sampling_step == 100 * 0.5  # 100 d, in wavelengths
        assert cfg.hierarchy.step_multiplier == 4.0
        assert cfg.hierarchy.step_control == 0.25
        assert cfg.hierarchy.levels == 2
        assert cfg.scene.box_g.x == (-600.0, 600.0)
        assert cfg.scene.box_g.y == (5.0, 100.0)
        assert cfg.scene.box_g.z == (-200.0, 200.0)
        # the file spells out every setting of the resolved form, and nothing else
        assert set(json.loads(builtin_config_path("paper").read_text())) == set(config_to_dict(cfg))

    def test_shipped_desk_config_is_quarter_scale(self):
        cfg = parse_config(builtin_config_path("desk"))
        assert (cfg.scene.dims.n1, cfg.scene.dims.n2) == (32, 4)
        assert cfg.scene.box_g.x == (-150.0, 150.0)
        assert cfg.sampling_step == 12.5
        assert cfg.trials == 200

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_negative_step_names_the_key(self, tmp_path):
        path = write_config(tmp_path, {"sampling_step_d": -1})
        with pytest.raises(ConfigError, match="sampling_step_d"):
            parse_config(path)

    def test_unknown_key_names_the_path(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["scatter_g_d"]["w"] = [0, 1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="scatter_g_d.w"):
            parse_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"samplingstep": 3})
        with pytest.raises(ConfigError, match="samplingstep"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        del raw["array"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="array"):
            parse_config(path)

    def test_scatter_behind_array_rejected(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["scatter_r_d"]["y"] = [0, 40]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="scatter_r_d.y"):
            parse_config(path)

    def test_interval_min_above_max_rejected(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["scatter_g_d"]["z"] = [16, -16]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="scatter_g_d.z"):
            parse_config(path)

    def test_defaults_resolved(self):
        raw = {k: v for k, v in TINY.items() if k in
               ("array", "scatter_g_d", "scatter_r_d", "sampling_step_d")}
        cfg = config_from_dict(raw)
        assert cfg.trials == 200
        assert cfg.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0)
        assert len(cfg.schemes) == 4
        assert cfg.master_seed == 0
        assert cfg.hierarchy == HierarchicalConfig()
        assert cfg.step_sweep == (25.0, 50.0, 75.0, 100.0)  # [50, 100, 150, 200] d at 0.5

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            config_from_dict({**TINY, "snr_grid_db": []})

    @pytest.mark.parametrize(
        "overrides,path",
        [
            ({"array": {"n1": 0, "n2": 2, "spacing_wavelengths": 0.5}}, "array.n1"),
            ({"array": {"n1": 8, "n2": 2, "spacing_wavelengths": 0}}, "array.spacing_wavelengths"),
            ({"step_sweep_d": [8, -16]}, "step_sweep_d"),
            ({"hierarchical": {"levels": 0}}, "hierarchical.levels"),
            ({"hierarchical": {"step_multiplier": 0.5}}, "hierarchical.step_multiplier"),
            ({"hierarchical": {"step_control": 1.0}}, "hierarchical.step_control"),
            ({"schemes": []}, "schemes"),
            ({"schemes": ["sideways"]}, "schemes"),
            ({"trials": 0}, "trials"),
            ({"seed": -1}, "seed"),
            ({"hierarchical": {"levels": 600}}, "hierarchical.levels"),  # level 541 step is 0.0
            ({"hierarchical": {"levels": 1025, "step_control": 0.999}}, "hierarchical.levels"),
        ],
    )
    def test_dataclass_range_check_names_the_key(self, overrides, path):
        with pytest.raises(ConfigError, match=f"^{path}: "):
            config_from_dict({**TINY, **overrides})

    def test_deep_levels_are_checked_in_constant_memory(self):
        # one list entry per level would take tens of MB at a million levels
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^hierarchical.levels: "):
                config_from_dict({**TINY, "hierarchical": {"levels": 10**6}})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_resolve_builtin_and_missing(self, tmp_path):
        assert resolve_config_path("paper").name == "paper.json"
        with pytest.raises(ConfigError):
            resolve_config_path(str(tmp_path / "nope.json"))


class TestDigests:
    @settings(max_examples=200, deadline=None)
    @given(raw=raw_configs())
    @example(raw=TINY)
    def test_digest_stable_across_round_trip(self, raw):
        cfg = config_from_dict(raw)
        again = config_from_dict(config_to_dict(cfg))
        assert config_digest(cfg) == config_digest(again)
        assert cache_name(cfg) == cache_name(again)

    def test_digest_tracks_seed(self):
        a = config_from_dict(TINY)
        b = config_from_dict({**TINY, "seed": 12})
        assert config_digest(a) != config_digest(b)

    def test_cache_file_name_ignores_seed_and_trials(self):
        a = config_from_dict(TINY)
        b = config_from_dict({**TINY, "seed": 99, "trials": 50})
        assert cache_name(a) == cache_name(b)
        c = config_from_dict({**TINY, "sampling_step_d": 8})
        assert cache_name(a) != cache_name(c)

    def test_cache_file_name_tracks_the_second_grids_step(self):
        cfg = config_from_dict(TINY)
        grid_g, grid_r = cfg.codebook_grids()
        other_r = SampleGrid(grid_r.box, grid_r.step * 1.5)
        assert cache_name(cfg) != cache_file_name(grid_g, other_r, cfg.scene.dims)
        assert cache_name(cfg).startswith("xlrc_") and cache_name(cfg).endswith(".bin")


class TestCli:
    def test_info_rayleigh(self, capsys):
        assert main(["info", "--aperture-m", "1", "--wavelength-m", "0.01"]) == 0
        assert "200.0" in capsys.readouterr().out

    def test_info_requires_arguments(self, capsys):
        assert main(["info"]) == 2

    def test_codebook_build_then_cache_hit(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        assert main(["codebook", "build", "--config", str(cfg), "--out", str(out),
                     "--cache", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "built and cached" in first
        assert "pre_dedup_pairs: 2916" in first
        assert (out / "codebook_manifest.json").exists()
        assert main(["codebook", "build", "--config", str(cfg), "--out", str(out),
                     "--cache", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert first.splitlines()[-2:] == second.splitlines()[-2:]  # same counts

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        cache = tmp_path / "envcache"
        monkeypatch.setenv("XLRIS_CACHE", str(cache))
        assert main(["codebook", "build", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert any(cache.glob("xlrc_*.bin"))

    def test_train_emits_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--scheme", "near-field-hierarchical",
                     "--snr-db", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slots_used"] == sum(s["codebook_size"] for s in report["per_stage"])
        assert report["achievable_rate"] > 0

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg), "--seed", "123"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 123

    def test_sweep_snr_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        csv_text = (out / "snr_results.csv").read_text()
        assert csv_text.startswith("scheme,sweep_var,sweep_value,mean,stderr,trials,seed")
        payload = json.loads((out / "snr_results.json").read_text())
        assert payload["config"]["seed"] == 11
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 11
        assert manifest["config_digest"] == config_digest(parse_config(cfg))

    def test_sweep_step_writes_rows_per_scheme_and_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sweep", "step", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "step_results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # two schemes x two sweep values

    def test_sweep_step_has_no_cache_option(self, tmp_path, capsys):
        # each step's codebook is built in the sweep, so a cache could not be read
        cfg = write_config(tmp_path)
        argv = ["sweep", "step", "--config", str(cfg), "--out", str(tmp_path / "run"),
                "--cache", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["sweep", "snr", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_snr_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"snr_grid_db": []})
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "snr_grid_db" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["codebook", "build"], ["sweep", "snr"], ["sweep", "step"]])
    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_thread_count_exits_2(self, tmp_path, capsys, command, threads):
        # Builds are serial and no command takes --threads: any count is an
        # unknown argument.
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(cfg), "--out", str(tmp_path), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["info"], ["codebook", "build"], ["train"], ["sweep", "snr"], ["sweep", "step"]],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(cfg), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf", "loud", "4000", "-4000"])
    def test_bad_snr_db_exits_2(self, tmp_path, capsys, snr_db):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), f"--snr-db={snr_db}"])
        assert exc.value.code == 2
        assert "--snr-db" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["far-field", "near-field-hierarchical"])
    def test_subnormal_noise_power_gives_a_finite_rate(self, tmp_path, capsys, scheme):
        # 3200 dB is sigma2 = 1e-320, so gain^2 / sigma2 overflows a float
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--scheme", scheme, "--snr-db", "3200"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert math.isfinite(report["achievable_rate"]) and report["achievable_rate"] > 1000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_noise_power_sweep_is_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"snr_grid_db": [0, 3200]})
        out = tmp_path / "run"
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "snr_results.json").read_text(), parse_constant=reject_constant)
        assert len(rows["rows"]) == 2 * 4
        for row in rows["rows"]:
            assert math.isfinite(row["mean"]) and math.isfinite(row["stderr"])
        for line in (out / "snr_results.csv").read_text().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in line.split(",")[2:5])

    @pytest.mark.parametrize(
        "numbers",
        [
            ("-1", "0.01"), ("nan", "0.01"), ("1", "0"), ("1", "nan"),
            ("inf", "0.01"), ("1", "1e-320"),
        ],
    )
    def test_bad_rayleigh_inputs_exit_2(self, capsys, numbers):
        aperture, wavelength = numbers
        argv = ["info", f"--aperture-m={aperture}", f"--wavelength-m={wavelength}"]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [4000, -4000])
    def test_unrepresentable_snr_grid_exits_2(self, tmp_path, capsys, snr_db):
        # 10^(-SNR/10) underflows to 0 or overflows, so no noise power fits a float
        cfg = write_config(tmp_path, {"snr_grid_db": [0, snr_db]})
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "snr_grid_db" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # an output directory that cannot be made is a runtime failure, not a config problem
        cfg_path = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        code = main(["sweep", "snr", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_cache_is_rebuilt(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cache = tmp_path / "cache"
        assert main(["codebook", "build", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--cache", str(cache)]) == 0
        blob_path = next(cache.glob("xlrc_*.bin"))
        good = blob_path.read_bytes()
        blob = bytearray(good)
        blob[25] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["sweep", "snr", "--config", str(cfg_path), "--out", str(tmp_path / "warm"),
                     "--cache", str(cache)]) == 0
        assert "checksum mismatch" in capsys.readouterr().err
        assert blob_path.read_bytes() == good
        cold = tmp_path / "cold"
        assert main(["sweep", "snr", "--config", str(cfg_path), "--out", str(cold)]) == 0
        warm = (tmp_path / "warm" / "snr_results.csv").read_bytes()
        assert warm == (cold / "snr_results.csv").read_bytes()

    def test_cache_file_for_other_grids_is_rebuilt(self, tmp_path, capsys):
        # a valid file built over other grids, copied under this config's cache name
        configs = {
            "mine": write_config(tmp_path, {"sampling_step_d": 24}, name="mine.json"),
            "other": write_config(tmp_path, name="other.json"),
        }
        files, sizes = {}, {}
        for name, cfg in configs.items():
            argv = ["codebook", "build", "--config", str(cfg), "--out", str(tmp_path),
                    "--cache", str(tmp_path / name)]
            assert main(argv) == 0
            sizes[name] = capsys.readouterr().out.splitlines()[-1]
            (files[name],) = (tmp_path / name).glob("xlrc_*.bin")
        assert sizes["mine"] != sizes["other"]
        good = files["mine"].read_bytes()
        files["mine"].write_bytes(files["other"].read_bytes())
        assert main(["codebook", "build", "--config", str(configs["mine"]), "--out", str(tmp_path),
                     "--cache", str(tmp_path / "mine")]) == 0
        captured = capsys.readouterr()
        assert "other sample grids" in captured.err
        assert captured.out.splitlines()[0].startswith("built and cached")
        assert captured.out.splitlines()[-1] == sizes["mine"]
        assert files["mine"].read_bytes() == good

    @pytest.mark.parametrize("name,value", [("_FORMAT_VERSION", 5), ("_NANO", 10**8)])
    def test_key_algorithm_change_misses_the_cache(
        self, tmp_path, capsys, monkeypatch, name, value
    ):
        cfg = write_config(tmp_path)
        argv = ["codebook", "build", "--config", str(cfg), "--out", str(tmp_path),
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        monkeypatch.setattr(codebook, name, value)
        capsys.readouterr()
        assert main(argv) == 0
        assert "built and cached" in capsys.readouterr().out
        assert len(list((tmp_path / "cache").glob("xlrc_*.bin"))) == 2

    @pytest.mark.parametrize("name,value", [("_SKETCH_ELEMENTS", 2), ("_SKETCH_ELEMENTS", 1)])
    def test_key_hash_change_hits_the_cache(self, tmp_path, capsys, monkeypatch, name, value):
        # Dedup is exact, so the sketch only groups candidate duplicates: the
        # kept pairs, and so the file, do not depend on it. Both sketches
        # here force shared keys, which the full-form check then settles.
        cfg = write_config(tmp_path)
        argv = ["codebook", "build", "--config", str(cfg), "--out", str(tmp_path),
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        (path,) = (tmp_path / "cache").glob("xlrc_*.bin")
        made = path.read_bytes()
        monkeypatch.setattr(codebook, name, value)
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"cache hit: {path}"
        assert list((tmp_path / "cache").glob("xlrc_*.bin")) == [path]
        assert path.read_bytes() == made
        parsed = parse_config(cfg)
        fresh = codebook.build_near_field_codebook(*parsed.codebook_grids(), parsed.scene.dims)
        loaded = codebook.load_codebook(path, parsed.scene.dims)
        assert loaded.grids == fresh.grids
        assert np.array_equal(loaded.pairs, fresh.pairs)

    def test_train_uses_the_cache_env_var(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        uncached = capsys.readouterr().out
        cache = tmp_path / "envcache"
        monkeypatch.setenv("XLRIS_CACHE", str(cache))
        for _ in range(2):  # a miss that writes the file, then a hit that reads it
            assert main(["train", "--config", str(cfg)]) == 0
            assert capsys.readouterr().out == uncached
            assert len(list(cache.glob("xlrc_*.bin"))) == 1

    def test_train_cache_flag_writes_then_hits(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        cache = tmp_path / "cache"
        builds = []
        real_build = codebook.build_near_field_codebook
        monkeypatch.setattr(
            codebook,
            "build_near_field_codebook",
            lambda *args, **kwargs: builds.append(args) or real_build(*args, **kwargs),
        )
        runs = []
        for _ in range(2):  # a miss that writes the file, then a hit that reads it
            assert main(["train", "--config", str(cfg), "--cache", str(cache)]) == 0
            runs.append(capsys.readouterr())
        assert len(builds) == 1
        assert [p.name for p in cache.iterdir()] == [cache_name(parse_config(cfg))]
        assert runs[0].out == runs[1].out
        assert not runs[0].err and not runs[1].err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scatter_g_d": {"x": [math.nan, 40], "y": [4, 40], "z": [-16, 16]}},
            {"sampling_step_d": math.inf},
            {"snr_grid_db": [-5, math.nan]},
            {"snr_grid_db": [math.inf]},
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides)
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_duplicate_schemes_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schemes": ["perfect-csi", "far-field", "perfect-csi"]})
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "schemes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("effective_symbol", 1.0),
            ("effective_symbol", math.nan),
            ("effective_symbol", [1.0, -math.inf]),
            ("bs_antennas", 64),
            ("perfect_csi_literal_scaling", False),
        ],
        ids=["effective_symbol", "effective_symbol-nan", "effective_symbol-inf", "bs_antennas",
             "perfect_csi_literal_scaling"],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key, value):
        # SNR is 1/sigma2 with a unit transmit symbol; the SNR grid is the one link-budget knob
        cfg = write_config(tmp_path, {key: value})
        assert main(["sweep", "snr", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"unknown key: {key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides,command,key",
        [
            (
                {"array": {"n1": 8, "n2": 2, "spacing_wavelengths": 2.0}, "sampling_step_d": 1e308},
                ["codebook", "build"],
                "sampling_step_d",
            ),
            (
                {"array": {"n1": 8, "n2": 2, "spacing_wavelengths": 2.0}, "step_sweep_d": [1e308]},
                ["sweep", "step"],
                "step_sweep_d",
            ),
            (
                {"hierarchical": {"step_multiplier": 1e308}},
                ["train", "--scheme", "near-field-hierarchical"],
                "hierarchical.step_multiplier",
            ),
            (
                # finite at the sampling step, but not at the last step of the sweep
                {"hierarchical": {"step_multiplier": 1e300}, "step_sweep_d": [8, 1e10]},
                ["sweep", "step"],
                "hierarchical.step_multiplier",
            ),
            (
                {
                    "array": {"n1": 128, "n2": 4, "spacing_wavelengths": 1e307},
                    "scatter_g_d": {"x": [-3, 3], "y": [1, 5], "z": [-2, 2]},
                    "scatter_r_d": {"x": [-3, 3], "y": [1, 5], "z": [-2, 2]},
                },
                ["sweep", "snr"],
                "array.spacing_wavelengths",
            ),
            (
                {"scatter_r_d": {"x": [-40, 40], "y": [4, 1e200], "z": [-16, 16]}},
                ["sweep", "snr"],
                "scatter_r_d",
            ),
        ],
        ids=["sampling-step", "step-sweep", "hierarchy-step", "hierarchy-step-sweep",
             "element-coordinates", "box-distances"],
    )
    def test_length_that_overflows_to_infinity_exits_2(
        self, tmp_path, capsys, overrides, command, key
    ):
        # each number is finite in the file, but a length derived from it is not
        cfg = write_config(tmp_path, overrides)
        argv = [*command, "--config", str(cfg)]
        if command[0] != "train":
            argv += ["--out", str(tmp_path / "run")]
        if command in (["codebook", "build"], ["sweep", "snr"]):  # the commands with --cache
            argv += ["--cache", str(tmp_path / "cache")]
        assert main(argv) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "command",
        [["train", "--scheme", "near-field-hierarchical"], ["sweep", "step"]],
        ids=["train-hierarchical", "sweep-step"],
    )
    def test_level_step_that_underflows_exits_2(self, tmp_path, capsys, command):
        # from a 16 d sampling step, the level-541 step underflows to 0.0
        cfg = write_config(tmp_path, {"hierarchical": {"levels": 600}})
        argv = [*command, "--config", str(cfg)]
        if command[0] != "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert "config error: hierarchical.levels: level 541 step" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command",
        [["info"], ["train", "--scheme", "near-field-hierarchical"]],
        ids=["info", "train-hierarchical"],
    )
    def test_schedule_deeper_than_the_level_cap_exits_2(self, tmp_path, capsys, command):
        # every level step of this desk schedule is positive and finite; only its depth is wrong
        raw = json.loads(builtin_config_path("desk").read_text())
        raw["hierarchical"] = {"levels": 10**7, "step_control": 0.9999999}
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(raw))
        assert main([*command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error: hierarchical.levels: levels must lie in [1, 1024], got 10000000" in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            # 6 001 x 476 x 2 001 points per grid at a 0.1 d step
            ("sampling_step_d", 0.1, "a sample grid holds 5715808476 points, more than 2147483647"),
            ("step_sweep_d", [20, 0.1], "a sample grid holds 5715808476 points"),
            # level 2 refines 100 d windows at a 0.1 d step: 1 001**6 slots
            ("hierarchical.step_control", 0.001, "level 2 at base step 12.5 may ask for "
             "1006015020015006001 slots, more than 4294967296"),
            # steps so small that a count of samples overflows a float
            ("sampling_step_d", 1e-320, "step 5e-321 is too small to count the samples"),
            ("hierarchical.step_control", 1e-310, "level 2 at base step 12.5 may ask for inf"),
            # 10**9 x 4 elements: one steering table row alone would be 64 GB
            ("array.n1", 1_000_000_000, "the array holds 4000000000 elements, more than 1048576"),
        ],
        ids=["sampling-step", "step-sweep", "level-slots", "sampling-step-uncountable",
             "level-slots-uncountable", "array-elements"],
    )
    def test_too_large_grid_or_level_exits_2_without_sampling(
        self, tmp_path, capsys, key, value, message
    ):
        raw = json.loads(builtin_config_path("desk").read_text())
        section, _, name = key.rpartition(".")
        (raw[section] if section else raw)[name] = value
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps(raw))
        tracemalloc.start()
        try:
            assert main(["sweep", "step", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"config error: {key}: {message}" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command",
        [["info"], ["codebook", "build"], ["train"], ["sweep", "snr"], ["sweep", "step"]],
        ids=["info", "codebook-build", "train", "sweep-snr", "sweep-step"],
    )
    @pytest.mark.parametrize("key,n1,n2", [("array.n1", 1 << 20, 2), ("array.n2", 1024, 1025)])
    def test_too_many_elements_exit_2_from_every_command(
        self, tmp_path, capsys, command, key, n1, n2
    ):
        # Each count alone fits the cap of 2**20 elements; their product does not.
        cfg = write_config(tmp_path, {"array": {"n1": n1, "n2": n2, "spacing_wavelengths": 0.5}})
        argv = [*command, "--config", str(cfg)]
        if command[0] != "train" and command != ["info"]:
            argv += ["--out", str(tmp_path / "run")]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = f"the array holds {n1 * n2} elements, more than 1048576"
        assert f"config error: {key}: {message}" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not (tmp_path / "run").exists()

    def test_builtin_config_loads_from_a_zipped_package(self, tmp_path):
        package = Path(xlris.__file__).parent
        archive = tmp_path / "xlris.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, Path("xlris", path.relative_to(package)))
        proc = subprocess.run(
            [sys.executable, "-m", "xlris", "info", "--config", "paper"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(archive)},
        )
        assert proc.returncode == 0, proc.stderr
        digest = config_digest(parse_config(resolve_config_path("paper")))
        assert f"config_digest: {digest}\n" in proc.stdout
