"""The package holds only what the library and its CLI import: test fixtures
live in ``tests/``."""

import subprocess
import sys
from pathlib import Path

import hopfchar

SRC = Path(hopfchar.__file__).resolve().parent.parent


def test_every_package_module_is_imported_by_the_library_or_the_cli():
    # A fresh interpreter, since the suite itself imports every module it tests.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hopfchar, hopfchar.cli;"
            " print(*sorted(m for m in sys.modules if m.startswith('hopfchar.')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    files = {f"hopfchar.{path.stem}" for path in (SRC / "hopfchar").glob("*.py")}
    assert files - {"hopfchar.__init__"} <= set(out.split())
