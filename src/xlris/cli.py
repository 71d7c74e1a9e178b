"""Command-line entry point.

Subcommands: ``codebook build``, ``train``, ``sweep snr``, ``sweep step``,
and ``info``. Exit codes: 0 on success, 2 for configuration problems, 1 for
runtime failures. Given the same config and seed, sweep CSVs are
byte-identical across runs; manifests carry the timestamps instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import sample_near_field_channel
from .codebook import CodebookFileError, FarFieldCodebook, cached_near_field_codebook
from .config import (
    ConfigError,
    config_digest,
    config_to_dict,
    parse_config,
    resolve_config_path,
)
from .experiments import (
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_FIELD,
    SCHEME_HIERARCHICAL,
    ExperimentConfig,
    achievable_rate,
    snr_db_to_sigma2,
    sweep_overhead,
    sweep_snr,
)
from .geometry import rayleigh_distance
from .training import exhaustive_training, hierarchical_training

CACHE_ENV = "XLRIS_CACHE"


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(resolve_config_path(args.config))
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _cache_dir(args) -> Path | None:
    if getattr(args, "cache", None):
        return Path(args.cache)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def _write_manifest(path: Path, cfg, command: str, outputs: list[Path]) -> None:
    """Record what a run wrote and from which config; the timestamp is the only varying field."""
    created = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()
    manifest = {
        "config_digest": config_digest(cfg),
        "master_seed": cfg.master_seed,
        "artifact_version": __version__,
        "created_utc": created,
        "command": command,
        "outputs": [str(p) for p in outputs],
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_info(args) -> int:
    if args.aperture_m is not None or args.wavelength_m is not None:
        if args.aperture_m is None or args.wavelength_m is None:
            raise ConfigError("info needs both --aperture-m and --wavelength-m")
        try:
            z = rayleigh_distance(args.aperture_m, args.wavelength_m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        print(f"rayleigh_distance_m: {z!r}")
    if args.config:
        cfg = _load_config(args)
        grid_g, grid_r = cfg.codebook_grids()
        print(f"config_digest: {config_digest(cfg)}")
        print(f"elements: {cfg.scene.dims.n1}x{cfg.scene.dims.n2} = {cfg.scene.dims.n}")
        print(f"grid_points_g: {grid_g.size}")
        print(f"grid_points_r: {grid_r.size}")
        print(f"pre_dedup_pairs: {grid_g.size * grid_r.size}")
    if args.aperture_m is None and not args.config:
        raise ConfigError("info needs --aperture-m/--wavelength-m or --config")
    return 0


def cmd_codebook_build(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cb, path, hit = cached_near_field_codebook(
        *cfg.codebook_grids(), cfg.scene.dims, _cache_dir(args) or out_dir
    )
    print(f"cache hit: {path}" if hit else f"built and cached: {path}")
    print(f"pre_dedup_pairs: {cb.pre_dedup_pairs}")
    print(f"codebook_size_L: {cb.size}")
    _write_manifest(out_dir / "codebook_manifest.json", cfg, "codebook build", [path])
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    sigma2 = snr_db_to_sigma2(args.snr_db)
    channel_ss, noise_ss = np.random.SeedSequence(cfg.master_seed).spawn(2)
    ch = sample_near_field_channel(cfg.scene, np.random.default_rng(channel_ss))
    rng = np.random.default_rng(noise_ss)

    if args.scheme == SCHEME_HIERARCHICAL:
        result = hierarchical_training(cfg.hierarchy, cfg.scene, cfg.sampling_step, ch, sigma2, rng)
    else:
        if args.scheme == SCHEME_EXHAUSTIVE:
            cb, _, _ = cached_near_field_codebook(
                *cfg.codebook_grids(), cfg.scene.dims, _cache_dir(args)
            )
        else:
            cb = FarFieldCodebook(cfg.scene.dims)
        [result] = exhaustive_training(cb, ch, [sigma2], rng)

    report = {
        "scheme": args.scheme,
        "snr_db": args.snr_db,
        "seed": cfg.master_seed,
        "best_index": result.best_index,
        "best_amplitude": result.best_amplitude,
        "slots_used": result.slots_used,
        "achievable_rate": achievable_rate(result.theta, ch, sigma2),
    }
    if result.per_stage is not None:
        report["per_stage"] = [dataclasses.asdict(s) for s in result.per_stage]
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.kind == "snr":
        near_cb = None
        if SCHEME_EXHAUSTIVE in cfg.schemes:
            near_cb, _, _ = cached_near_field_codebook(
                *cfg.codebook_grids(), cfg.scene.dims, _cache_dir(args)
            )
        table = sweep_snr(cfg, near_codebook=near_cb)
        stem = "snr_results"
    else:
        table = sweep_overhead(cfg)
        stem = "step_results"

    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    csv_path.write_text(table.to_csv_text())
    payload = table.to_json_dict(config_to_dict(cfg))
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    _write_manifest(out_dir / "manifest.json", cfg, f"sweep {args.kind}", [csv_path, json_path])
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _seed(text: str) -> int:
    """Argparse type: an integer >= 0; anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _snr_db(text: str) -> float:
    """Argparse type: an SNR in dB whose noise power is a positive finite float."""
    try:
        value = float(text)
        snr_db_to_sigma2(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlris",
        description="Beam training simulator for extremely large-scale reflecting surfaces",
    )
    parser.add_argument("--version", action="version", version=f"xlris {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print the far/near field boundary or config facts")
    info.add_argument("--aperture-m", type=float, default=None, help="array aperture in meters")
    info.add_argument("--wavelength-m", type=float, default=None, help="carrier wavelength in meters")
    info.add_argument("--config", default=None, help="config file or builtin name (paper, desk)")
    info.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    info.set_defaults(func=cmd_info)

    codebook = sub.add_parser("codebook", help="codebook maintenance")
    cb_sub = codebook.add_subparsers(dest="codebook_command", required=True)
    build = cb_sub.add_parser("build", help="build and cache the near-field codebook")
    build.add_argument("--config", required=True)
    build.add_argument("--seed", type=_seed, default=None)
    build.add_argument("--out", default=".", help="directory for the manifest")
    build.add_argument("--cache", default=None, help=f"cache directory (or ${CACHE_ENV})")
    build.set_defaults(func=cmd_codebook_build)

    train = sub.add_parser("train", help="run one beam training pass on a sampled channel")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=_seed, default=None)
    train.add_argument(
        "--scheme",
        default=SCHEME_EXHAUSTIVE,
        choices=[SCHEME_EXHAUSTIVE, SCHEME_HIERARCHICAL, SCHEME_FAR_FIELD],
    )
    train.add_argument("--snr-db", type=_snr_db, default=10.0)
    train.add_argument("--cache", default=None, help=f"cache directory (or ${CACHE_ENV})")
    train.set_defaults(func=cmd_train)

    sweep = sub.add_parser("sweep", help="Monte Carlo sweeps")
    sweep_sub = sweep.add_subparsers(dest="kind", required=True)
    for kind, help_text in (
        ("snr", "achievable rate vs SNR"),
        ("step", "training overhead vs sampling step"),
    ):
        sp = sweep_sub.add_parser(kind, help=help_text)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=_seed, default=None)
        sp.add_argument("--out", default=".", help="output directory")
        if kind == "snr":
            sp.add_argument("--cache", default=None, help=f"cache directory (or ${CACHE_ENV})")
        sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CodebookFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
