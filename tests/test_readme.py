"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from hopfchar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, "README.md", "exec"), {})


def test_cli_trees_and_structure_lines_run():
    # Each `hopfchar trees` and `hopfchar structure` line of the CLI block
    # exits 0 and prints what its `# -> ...` comment states, if it has one.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.DOTALL)[1]
    lines = [line for line in block.splitlines()
             if line.startswith(("hopfchar trees", "hopfchar structure"))]
    assert len(lines) >= 3
    for line in lines:
        command, _, stated = line.partition("# ->")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(shlex.split(command)[1:]) == 0, line
        assert out.getvalue().strip()
        if stated:
            assert out.getvalue().strip() == stated.strip(), line
