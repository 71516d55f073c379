"""Versioned numeric fixtures: pilot-frozen thresholds and regression values.

The shipped file lives at curveflow/data/thresholds.json.  An explicit path
(the CLI's ``--fixtures`` flag or config field) overrides it, and the
environment variable CURVEFLOW_FIXTURES overrides both.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

__all__ = ["fixtures_path", "load_fixtures"]

_PACKAGED = pathlib.Path(__file__).resolve().parent / "data" / "thresholds.json"


def fixtures_path(path: Optional[str] = None) -> pathlib.Path:
    """The fixtures file in force: CURVEFLOW_FIXTURES, else path, else the packaged one."""
    p = os.environ.get("CURVEFLOW_FIXTURES") or path
    return pathlib.Path(p) if p else _PACKAGED


def load_fixtures(path: Optional[str] = None) -> dict:
    with open(fixtures_path(path), "r", encoding="utf-8") as fh:
        return json.load(fh)

