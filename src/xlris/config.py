"""JSON experiment configs: parsing, validation, canonical digests.

Config files state lengths in multiples of the element spacing (keys carry
a ``_d`` suffix), matching how the scenario geometry is usually quoted;
the element spacing itself is given in wavelengths. Everything is converted
to wavelength units on load. Unknown keys are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

from .channel import SceneConfig
from .experiments import ALL_SCHEMES, ExperimentConfig
from .geometry import ArrayDims, Box3


class ConfigError(ValueError):
    """A config file is missing, malformed, or out of range."""


_TOP_KEYS = {
    "array",
    "bs_antennas",
    "scatter_g_d",
    "scatter_r_d",
    "sampling_step_d",
    "step_sweep_d",
    "hierarchical",
    "effective_symbol",
    "schemes",
    "snr_grid_db",
    "trials",
    "seed",
    "perfect_csi_literal_scaling",
}
_ARRAY_KEYS = {"n1", "n2", "spacing_wavelengths"}
_BOX_KEYS = {"x", "y", "z"}
_HIER_KEYS = {"levels", "step_multiplier", "step_control"}


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key: {_join(path, key)}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key: {_join(path, key)}")
    return mapping[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _as_positive(value, path: str) -> float:
    num = _as_number(value, path)
    if not num > 0:
        raise ConfigError(f"{path} must be positive, got {num}")
    return num


def _as_interval(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a [min, max] pair, got {value!r}")
    lo, hi = (_as_number(v, path) for v in value)
    if lo > hi:
        raise ConfigError(f"{path} has min > max: {value!r}")
    return lo, hi


def _parse_box(value, path: str, d: float) -> Box3:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object with x/y/z intervals")
    _reject_unknown(value, _BOX_KEYS, path)
    x = _as_interval(_require(value, "x", path), _join(path, "x"))
    y = _as_interval(_require(value, "y", path), _join(path, "y"))
    z = _as_interval(_require(value, "z", path), _join(path, "z"))
    if not y[0] > 0:
        raise ConfigError(f"{_join(path, 'y')} must have min > 0 (scatters sit in front of the array)")
    scale = lambda iv: (iv[0] * d, iv[1] * d)  # _d units -> wavelengths
    return Box3(scale(x), scale(y), scale(z))


def _parse_symbol(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], path), _as_number(value[1], path))
    raise ConfigError(f"{path} must be a number or an [re, im] pair, got {value!r}")


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file, resolving all defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    _reject_unknown(raw, _TOP_KEYS, "")

    array = _require(raw, "array", "")
    if not isinstance(array, dict):
        raise ConfigError("array must be an object")
    _reject_unknown(array, _ARRAY_KEYS, "array")
    n1 = _as_int(_require(array, "n1", "array"), "array.n1", minimum=1)
    n2 = _as_int(_require(array, "n2", "array"), "array.n2", minimum=1)
    spacing = _as_positive(_require(array, "spacing_wavelengths", "array"), "array.spacing_wavelengths")
    dims = ArrayDims(n1=n1, n2=n2, d=spacing)

    box_g = _parse_box(_require(raw, "scatter_g_d", ""), "scatter_g_d", spacing)
    box_r = _parse_box(_require(raw, "scatter_r_d", ""), "scatter_r_d", spacing)

    step_d = _as_positive(_require(raw, "sampling_step_d", ""), "sampling_step_d")

    sweep_raw = raw.get("step_sweep_d", [50.0, 100.0, 150.0, 200.0])
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ConfigError("step_sweep_d must be a nonempty list of numbers")
    step_sweep = tuple(
        _as_positive(v, f"step_sweep_d[{i}]") * spacing for i, v in enumerate(sweep_raw)
    )

    hier = raw.get("hierarchical", {})
    if not isinstance(hier, dict):
        raise ConfigError("hierarchical must be an object")
    _reject_unknown(hier, _HIER_KEYS, "hierarchical")
    levels = _as_int(hier.get("levels", 2), "hierarchical.levels", minimum=1)
    multiplier = _as_number(hier.get("step_multiplier", 4.0), "hierarchical.step_multiplier")
    if multiplier < 1:
        raise ConfigError(f"hierarchical.step_multiplier must be >= 1, got {multiplier}")
    control = _as_number(hier.get("step_control", 0.25), "hierarchical.step_control")
    if not 0 < control < 1:
        raise ConfigError(f"hierarchical.step_control must lie in (0, 1), got {control}")

    s_bar = _parse_symbol(raw.get("effective_symbol", 1.0), "effective_symbol")

    schemes_raw = raw.get("schemes", list(ALL_SCHEMES))
    if not isinstance(schemes_raw, list) or not schemes_raw:
        raise ConfigError("schemes must be a nonempty list")
    for s in schemes_raw:
        if s not in ALL_SCHEMES:
            raise ConfigError(f"schemes: unknown scheme {s!r}; expected one of {list(ALL_SCHEMES)}")

    snr_raw = raw.get("snr_grid_db", [-10.0, -5.0, 0.0, 5.0, 10.0])
    if not isinstance(snr_raw, list) or not snr_raw:
        raise ConfigError("snr_grid_db must be a nonempty list of numbers")
    snr_grid = tuple(_as_number(v, f"snr_grid_db[{i}]") for i, v in enumerate(snr_raw))

    trials = _as_int(raw.get("trials", 200), "trials", minimum=1)
    seed = _as_int(raw.get("seed", 0), "seed", minimum=0)
    bs_antennas = _as_int(raw.get("bs_antennas", 64), "bs_antennas", minimum=1)

    literal = raw.get("perfect_csi_literal_scaling", False)
    if not isinstance(literal, bool):
        raise ConfigError("perfect_csi_literal_scaling must be a boolean")

    scene = SceneConfig(dims=dims, box_g=box_g, box_r=box_r, s_bar=s_bar)
    return ExperimentConfig(
        scene=scene,
        schemes=tuple(schemes_raw),
        snr_grid_db=snr_grid,
        sampling_step=step_d * spacing,
        step_sweep=step_sweep,
        levels=levels,
        step_multiplier=multiplier,
        step_control=control,
        trials=trials,
        master_seed=seed,
        bs_antennas=bs_antennas,
        perfect_csi_literal_scaling=literal,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical resolved form of a config (lengths back in _d units)."""
    d = cfg.scene.dims.d
    box_d = lambda box: {
        "x": [box.x[0] / d, box.x[1] / d],
        "y": [box.y[0] / d, box.y[1] / d],
        "z": [box.z[0] / d, box.z[1] / d],
    }
    return {
        "array": {"n1": cfg.scene.dims.n1, "n2": cfg.scene.dims.n2, "spacing_wavelengths": d},
        "bs_antennas": cfg.bs_antennas,
        "scatter_g_d": box_d(cfg.scene.box_g),
        "scatter_r_d": box_d(cfg.scene.box_r),
        "sampling_step_d": cfg.sampling_step / d,
        "step_sweep_d": [s / d for s in cfg.step_sweep],
        "hierarchical": {
            "levels": cfg.levels,
            "step_multiplier": cfg.step_multiplier,
            "step_control": cfg.step_control,
        },
        "effective_symbol": [cfg.scene.s_bar.real, cfg.scene.s_bar.imag],
        "schemes": list(cfg.schemes),
        "snr_grid_db": list(cfg.snr_grid_db),
        "trials": cfg.trials,
        "seed": cfg.master_seed,
        "perfect_csi_literal_scaling": cfg.perfect_csi_literal_scaling,
    }


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the canonicalized config; equal configs hash equal."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def codebook_digest(cfg: ExperimentConfig, sampling_step: float | None = None) -> str:
    """Hash of just the fields that determine the full near-field codebook."""
    d = cfg.scene.dims.d
    full = config_to_dict(cfg)
    step = (cfg.sampling_step if sampling_step is None else sampling_step) / d
    ident = {
        "array": full["array"],
        "scatter_g_d": full["scatter_g_d"],
        "scatter_r_d": full["scatter_r_d"],
        "sampling_step_d": step,
    }
    canon = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def builtin_config_path(name: str) -> Path:
    """Path of a shipped config ('paper' or 'desk', '.json' optional)."""
    fname = name if name.endswith(".json") else f"{name}.json"
    candidate = resources.files("xlris").joinpath("configs", fname)
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise ConfigError(f"no builtin config named {name!r}")
        return Path(p)


def resolve_config_path(name_or_path: str) -> Path:
    """Interpret --config: an existing file path, else a builtin name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    try:
        return builtin_config_path(name_or_path)
    except ConfigError:
        raise ConfigError(f"config file not found: {name_or_path}") from None
