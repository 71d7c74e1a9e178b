"""JSON experiment configs: parsing, validation, canonical digests.

Config files state lengths in multiples of the element spacing (keys carry
a ``_d`` suffix), matching how the scenario geometry is usually quoted;
the element spacing itself is given in wavelengths. Everything is converted
to wavelength units on load. Unknown keys are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from importlib import resources
from pathlib import Path

from .channel import SceneConfig
from .experiments import ExperimentConfig
from .geometry import ArrayDims, Box3, FieldError
from .training import HierarchicalConfig


class ConfigError(ValueError):
    """A config file is missing, malformed, or out of range."""


_TOP_KEYS = {
    "array",
    "scatter_g_d",
    "scatter_r_d",
    "sampling_step_d",
    "step_sweep_d",
    "hierarchical",
    "schemes",
    "snr_grid_db",
    "trials",
    "seed",
}
_ARRAY_KEYS = {"n1", "n2", "spacing_wavelengths"}
_BOX_KEYS = {"x", "y", "z"}
_HIER_KEYS = {"levels", "step_multiplier", "step_control"}

# Key path of each dataclass field whose range check a key feeds; a dotted
# field maps its first part (box_g.y is scatter_g_d.y). Fields not listed,
# such as Box3 axes under their box's key, share the key's name.
_FIELD_PATHS = {
    "n1": "array.n1",
    "n2": "array.n2",
    "d": "array.spacing_wavelengths",
    "box_g": "scatter_g_d",
    "box_r": "scatter_r_d",
    "sampling_step": "sampling_step_d",
    "step_sweep": "step_sweep_d",
    "hierarchy": "hierarchical",
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
        head, dot, rest = _join(path, exc.field).partition(".")
        raise ConfigError(f"{_FIELD_PATHS.get(head, head)}{dot}{rest}: {exc}") from None


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


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file or `builtin_config_path`, resolving all defaults."""
    try:
        text = (path if hasattr(path, "read_text") else Path(path)).read_text()
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
    scene = _checked(
        SceneConfig,
        dims,
        _parse_box(_require(raw, "scatter_g_d", ""), "scatter_g_d", d),
        _parse_box(_require(raw, "scatter_r_d", ""), "scatter_r_d", d),
    )

    step_d = _as_number(_require(raw, "sampling_step_d", ""), "sampling_step_d")
    # The one default kept here: it is in element spacings, the dataclass's in wavelengths.
    sweep_d = _as_numbers(raw.get("step_sweep_d", [50.0, 100.0, 150.0, 200.0]), "step_sweep_d")
    fields = {"sampling_step": step_d * d, "step_sweep": tuple(v * d for v in sweep_d)}

    # Optional keys: a missing one takes the dataclass field's default.
    hier = _object(raw.get("hierarchical", {}), "hierarchical", _HIER_KEYS)
    hier = {
        key: (_as_int if key == "levels" else _as_number)(value, f"hierarchical.{key}")
        for key, value in hier.items()
    }
    fields["hierarchy"] = _checked(HierarchicalConfig, path="hierarchical", **hier)
    for key, field in (("trials", "trials"), ("seed", "master_seed")):
        if key in raw:
            fields[field] = _as_int(raw[key], key)
    if "snr_grid_db" in raw:
        fields["snr_grid_db"] = _as_numbers(raw["snr_grid_db"], "snr_grid_db")
    if "schemes" in raw:
        if not isinstance(raw["schemes"], list):
            raise ConfigError(f"schemes must be a list, got {raw['schemes']!r}")
        fields["schemes"] = tuple(raw["schemes"])

    return _checked(ExperimentConfig, scene=scene, **fields)


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
        "scatter_g_d": box_d(cfg.scene.box_g),
        "scatter_r_d": box_d(cfg.scene.box_r),
        "sampling_step_d": cfg.sampling_step / d,
        "step_sweep_d": [s / d for s in cfg.step_sweep],
        "hierarchical": dataclasses.asdict(cfg.hierarchy),
        "schemes": list(cfg.schemes),
        "snr_grid_db": list(cfg.snr_grid_db),
        "trials": cfg.trials,
        "seed": cfg.master_seed,
    }


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the canonicalized config; equal configs hash equal."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def builtin_config_path(name: str):
    """A shipped config ('paper' or 'desk', '.json' optional) as a package resource.

    The resource is read in place, also from a zipped package, so it has
    `read_text()` and `name` but need not be a filesystem path.
    """
    fname = name if name.endswith(".json") else f"{name}.json"
    candidate = resources.files("xlris") / "configs" / fname
    if not candidate.is_file():
        raise ConfigError(f"no builtin config named {name!r}")
    return candidate


def resolve_config_path(name_or_path: str):
    """Interpret --config: an existing file path, else a builtin name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    try:
        return builtin_config_path(name_or_path)
    except ConfigError:
        raise ConfigError(f"config file not found: {name_or_path}") from None
