"""README.md's python examples run as written and print what they say."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def matches(printed, shown):
    """A printed line against a `# ` line: the same words, a word shown as
    `0.2048...` standing for any word it begins."""
    got, want = printed.split(), shown.split()
    return len(got) == len(want) and all(
        g == w or (w.endswith("...") and g.startswith(w[:-3]))
        for g, w in zip(got, want))


def test_readme_python_blocks_print_their_comments(monkeypatch, capsys):
    # the blocks share one namespace, in order, from the repository root
    monkeypatch.chdir(ROOT)
    blocks = python_blocks()
    assert any("enumerate_treks" in block for block in blocks)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
        assert len(printed) == len(shown), block
        for got, want in zip(printed, shown):
            assert matches(got, want), (got, want)
