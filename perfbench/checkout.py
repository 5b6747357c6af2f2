"""Locate the checkout the benchmark runs in and import ponplace from its
``src`` directory, never from an installed copy.

Every path the benchmark reads or writes lies under ``ROOT``: the sources
under ``src/``, its own files under ``perfbench/`` and its outputs under
``.perfbench_out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the repository."""


def use_checkout_source():
    """Put ``ROOT/src`` first on ``sys.path`` and import ponplace from it."""
    package = SRC / "ponplace"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no ponplace package at {package}; run the "
                            f"benchmark from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import ponplace
    if Path(ponplace.__file__).resolve().parent != package:
        raise CheckoutError(f"imported ponplace from {ponplace.__file__}, "
                            f"not from {package}")
    return ponplace


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path
