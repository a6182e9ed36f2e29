import re
from pathlib import Path

import autalg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(autalg.__all__)) == len(autalg.__all__)
    for name in autalg.__all__:
        assert getattr(autalg, name) is not None, name


def test_readme_lists_the_exports():
    text = README.read_text(encoding="utf-8")
    start = text.index("The package exports exactly these names")
    listing = text[start:text.index("\n\n", start)]
    names = set(re.findall(r"`([A-Za-z_]+)`", listing))
    assert names == set(autalg.__all__)


def test_readme_library_example_runs(monkeypatch):
    # the README's python block runs as printed, from the repository root
    text = README.read_text(encoding="utf-8")
    start = text.index("```python", text.index("## Library entry points"))
    code = text[start + len("```python"):text.index("```", start + 1)]
    assert "autalg" in code
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {})
