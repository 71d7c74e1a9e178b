import re
from pathlib import Path
from types import ModuleType

import xlris

README = Path(__file__).resolve().parent.parent / "README.md"

# The package root's public names, one per library entry point.
ROOT_EXPORTS = {
    "ArrayDims",
    "Box3",
    "ConfigError",
    "ExperimentConfig",
    "FarFieldCodebook",
    "HierarchicalConfig",
    "SampleGrid",
    "SceneConfig",
    "TrainingResult",
    "build_near_field_codebook",
    "cached_near_field_codebook",
    "exhaustive_training",
    "hierarchical_training",
    "parse_config",
    "perfect_csi_beamforming",
    "sample_near_field_channel",
    "sweep_overhead",
    "sweep_snr",
}


def library_example() -> str:
    """The README's "Library example" section, up to the next section."""
    return README.read_text().split("## Library example", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", library_example(), flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    best_index, best_amplitude, slots_used = capsys.readouterr().out.split()
    assert 0 <= int(best_index) < int(slots_used) == namespace["codebook"].size
    assert float(best_amplitude) > 0
    assert namespace["upper_bound"] > 0


def test_root_exports_are_the_documented_names():
    public = {
        name
        for name, value in vars(xlris).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == ROOT_EXPORTS
    section = library_example()
    assert [name for name in sorted(public) if not re.search(rf"\b{name}\b", section)] == []
