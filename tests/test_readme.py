import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    best_index, best_amplitude, slots_used = capsys.readouterr().out.split()
    assert 0 <= int(best_index) < int(slots_used) == namespace["codebook"].size
    assert float(best_amplitude) > 0
    assert namespace["upper_bound"] > 0
