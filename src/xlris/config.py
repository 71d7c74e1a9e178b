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
import math
from importlib import resources
from pathlib import Path

from .channel import SceneConfig
from .codebook import key_algorithm
from .experiments import ExperimentConfig
from .geometry import ArrayDims, Box3, FieldError


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

# Key path of each dataclass field whose range check a key feeds. Fields
# not listed, such as Box3 axes under their box's key, share the key's name.
_FIELD_PATHS = {
    "n1": "array.n1",
    "n2": "array.n2",
    "d": "array.spacing_wavelengths",
    "box_g.y": "scatter_g_d.y",
    "box_r.y": "scatter_r_d.y",
    "sampling_step": "sampling_step_d",
    "step_sweep": "step_sweep_d",
    "levels": "hierarchical.levels",
    "step_multiplier": "hierarchical.step_multiplier",
    "step_control": "hierarchical.step_control",
    "master_seed": "seed",
}


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


def _object(value, path: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(value, allowed, path)
    return value


def _checked(build, *args, path: str = "", **kwargs):
    """Construct a dataclass; its range check becomes a ConfigError naming the key path."""
    try:
        return build(*args, **kwargs)
    except FieldError as exc:
        key = _join(path, exc.field)
        raise ConfigError(f"{_FIELD_PATHS.get(key, key)}: {exc}") from None


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    # json.loads accepts NaN and Infinity, which are not JSON numbers.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _as_numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of numbers, got {value!r}")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_interval(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a [min, max] pair, got {value!r}")
    return _as_numbers(value, path)


def _parse_box(value, path: str, d: float) -> Box3:
    _object(value, path, _BOX_KEYS)
    # _d units -> wavelengths
    x, y, z = (
        tuple(v * d for v in _as_interval(_require(value, axis, path), _join(path, axis)))
        for axis in ("x", "y", "z")
    )
    return _checked(Box3, x, y, z, path=path)


def _parse_symbol(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path), 0.0)
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
    """Check the JSON shape here; ranges and defaults come from the dataclasses."""
    _reject_unknown(raw, _TOP_KEYS, "")

    array = _object(_require(raw, "array", ""), "array", _ARRAY_KEYS)
    dims = _checked(
        ArrayDims,
        n1=_as_int(_require(array, "n1", "array"), "array.n1"),
        n2=_as_int(_require(array, "n2", "array"), "array.n2"),
        d=_as_number(_require(array, "spacing_wavelengths", "array"), "array.spacing_wavelengths"),
    )
    d = dims.d
    scene = {
        "dims": dims,
        "box_g": _parse_box(_require(raw, "scatter_g_d", ""), "scatter_g_d", d),
        "box_r": _parse_box(_require(raw, "scatter_r_d", ""), "scatter_r_d", d),
    }
    if "effective_symbol" in raw:
        scene["s_bar"] = _parse_symbol(raw["effective_symbol"], "effective_symbol")

    step_d = _as_number(_require(raw, "sampling_step_d", ""), "sampling_step_d")
    # The one default kept here: it is in element spacings, the dataclass's in wavelengths.
    sweep_d = _as_numbers(raw.get("step_sweep_d", [50.0, 100.0, 150.0, 200.0]), "step_sweep_d")
    fields = {"sampling_step": step_d * d, "step_sweep": tuple(v * d for v in sweep_d)}

    # Optional keys: a missing one takes the dataclass field's default.
    hier = _object(raw.get("hierarchical", {}), "hierarchical", _HIER_KEYS)
    if "levels" in hier:
        fields["levels"] = _as_int(hier["levels"], "hierarchical.levels")
    for key in ("step_multiplier", "step_control"):
        if key in hier:
            fields[key] = _as_number(hier[key], f"hierarchical.{key}")
    int_keys = {"trials": "trials", "seed": "master_seed", "bs_antennas": "bs_antennas"}
    for key, field in int_keys.items():
        if key in raw:
            fields[field] = _as_int(raw[key], key)
    if "snr_grid_db" in raw:
        fields["snr_grid_db"] = _as_numbers(raw["snr_grid_db"], "snr_grid_db")
    if "schemes" in raw:
        if not isinstance(raw["schemes"], list):
            raise ConfigError(f"schemes must be a list, got {raw['schemes']!r}")
        fields["schemes"] = tuple(raw["schemes"])
    if "perfect_csi_literal_scaling" in raw:
        if not isinstance(raw["perfect_csi_literal_scaling"], bool):
            raise ConfigError("perfect_csi_literal_scaling must be a boolean")
        fields["perfect_csi_literal_scaling"] = raw["perfect_csi_literal_scaling"]

    return _checked(ExperimentConfig, scene=_checked(SceneConfig, **scene), **fields)


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
    """Hash of just the inputs that determine the full near-field codebook file.

    Besides the scene, that is the cache format and key algorithm, so a
    change to either gives a new digest.
    """
    d = cfg.scene.dims.d
    full = config_to_dict(cfg)
    step = (cfg.sampling_step if sampling_step is None else sampling_step) / d
    ident = {
        "array": full["array"],
        "scatter_g_d": full["scatter_g_d"],
        "scatter_r_d": full["scatter_r_d"],
        "sampling_step_d": step,
        "key_algorithm": key_algorithm(),
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
