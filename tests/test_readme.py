"""The README's code examples run against the current API."""

import re
from pathlib import Path

from conftest import mixture_image
from neutroseg import load_pgm, save_pgm

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ``python`` code block under ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    img = mixture_image(3, [0.3, 0.7], [0.06, 0.08], [0.5, 0.5])
    save_pgm(tmp_path / "input.pgm", img)
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("## Library use"), str(README), "exec"), {})
    out = load_pgm(tmp_path / "segmented.pgm")
    assert (out.width, out.height, out.depth) == (img.width, img.height, img.depth)
