import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlris import codebook
from xlris.channel import sample_near_field_channel
from xlris.cli import main
from xlris.config import (
    ConfigError,
    builtin_config_path,
    codebook_digest,
    config_digest,
    config_from_dict,
    config_to_dict,
    parse_config,
    resolve_config_path,
)
from xlris.experiments import SCHEME_PERFECT_CSI, achievable_rate, snr_db_to_sigma2
from xlris.training import perfect_csi_beamforming

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
    """TINY with a random element spacing, scatter boxes, sampling step and step sweep."""
    length = st.floats(1e-3, 1e3)

    def interval(lo_min):
        return sorted(draw(st.floats(lo_min, 1e3)) for _ in range(2))

    def box():
        return {"x": interval(-1e3), "y": interval(1e-3), "z": interval(-1e3)}

    return {
        **TINY,
        "array": {"n1": 8, "n2": 2, "spacing_wavelengths": draw(length)},
        "scatter_g_d": box(),
        "scatter_r_d": box(),
        "sampling_step_d": draw(length),
        "step_sweep_d": draw(st.lists(length, min_size=1, max_size=4)),
    }


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
        assert cfg.step_multiplier == 4.0
        assert cfg.step_control == 0.25
        assert cfg.levels == 2
        assert cfg.scene.box_g.x == (-600.0, 600.0)
        assert cfg.scene.box_g.y == (5.0, 100.0)
        assert cfg.scene.box_g.z == (-200.0, 200.0)
        assert cfg.scene.s_bar == 1.0 + 0.0j
        assert cfg.bs_antennas == 64

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

    def test_complex_symbol_forms(self):
        cfg = config_from_dict({**TINY, "effective_symbol": [0.0, 1.0]})
        assert cfg.scene.s_bar == 1j

    def test_defaults_resolved(self):
        raw = {k: v for k, v in TINY.items() if k in
               ("array", "scatter_g_d", "scatter_r_d", "sampling_step_d")}
        cfg = config_from_dict(raw)
        assert cfg.trials == 200
        assert cfg.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0)
        assert len(cfg.schemes) == 4
        assert cfg.master_seed == 0

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
            ({"bs_antennas": 0}, "bs_antennas"),
        ],
    )
    def test_dataclass_range_check_names_the_key(self, overrides, path):
        with pytest.raises(ConfigError, match=f"^{path}: "):
            config_from_dict({**TINY, **overrides})

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
        assert codebook_digest(cfg) == codebook_digest(again)

    def test_digest_tracks_seed(self):
        a = config_from_dict(TINY)
        b = config_from_dict({**TINY, "seed": 12})
        assert config_digest(a) != config_digest(b)

    def test_codebook_digest_ignores_seed_and_trials(self):
        a = config_from_dict(TINY)
        b = config_from_dict({**TINY, "seed": 99, "trials": 50})
        assert codebook_digest(a) == codebook_digest(b)
        c = config_from_dict({**TINY, "sampling_step_d": 8})
        assert codebook_digest(a) != codebook_digest(c)


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

    @pytest.mark.parametrize(
        "name,value", [("_FORMAT_VERSION", 2), ("_NANO", 10**8), ("_KEY_MULTIPLIER", np.uint64(3))]
    )
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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scatter_g_d": {"x": [math.nan, 40], "y": [4, 40], "z": [-16, 16]}},
            {"sampling_step_d": math.inf},
            {"snr_grid_db": [-5, math.nan]},
            {"snr_grid_db": [math.inf]},
            {"effective_symbol": math.nan},
            {"effective_symbol": [1.0, -math.inf]},
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

    def test_literal_scaling_rates_use_theta_over_sqrt_n(self, tmp_path, capsys):
        overrides = {"schemes": [SCHEME_PERFECT_CSI], "perfect_csi_literal_scaling": True}
        cfg_path = write_config(tmp_path, overrides)
        assert main(["sweep", "snr", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "snr_results.csv").read_text().strip().split("\n")[1:]
        cfg = parse_config(cfg_path)
        assert cfg.perfect_csi_literal_scaling
        # independent recomputation from the per-trial construction
        trial_seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)
        thetas, channels = [], []
        for seeds in trial_seeds:
            ch = sample_near_field_channel(cfg.scene, np.random.default_rng(seeds.spawn(2)[0]))
            thetas.append(perfect_csi_beamforming(ch) / math.sqrt(cfg.scene.dims.n))
            channels.append(ch)
        assert len(rows) == len(cfg.snr_grid_db)
        for row, snr in zip(rows, cfg.snr_grid_db):
            sigma2 = snr_db_to_sigma2(snr)
            rates = [
                achievable_rate(t, ch, cfg.scene.s_bar, sigma2) for t, ch in zip(thetas, channels)
            ]
            assert float(row.split(",")[3]) == pytest.approx(np.mean(rates), rel=1e-12)
