"""The package namespace and the README's library quick tour."""

import re
from pathlib import Path

import qsweep

README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = [
    "eval_expr",
    "expr_to_text",
    "format_table",
    "golden_section_minimize",
    "parse_potential_expr",
    "phi_factor",
    "wavefunction_at_nodes",
    "wavevector",
]


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})


def test_all_names_resolve_once():
    assert len(set(qsweep.__all__)) == len(qsweep.__all__)
    for name in qsweep.__all__:
        assert hasattr(qsweep, name), name


def test_readme_lists_the_public_api():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("**Public API**"):].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", paragraph))
    assert set(qsweep.__all__) <= listed
    assert not listed & set(REMOVED)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in qsweep.__all__
        assert not hasattr(qsweep, name), name
