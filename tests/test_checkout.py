"""The suite tests the sources beside it.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts this checkout's
``src/`` first on the import path, so a plain ``pytest`` does not pick up
an older non-editable install of chopshop instead.
"""

from pathlib import Path

import chopshop

SRC = Path(__file__).resolve().parents[1] / "src"


def test_chopshop_is_imported_from_this_checkout():
    assert Path(chopshop.__file__).resolve().is_relative_to(SRC / "chopshop")
