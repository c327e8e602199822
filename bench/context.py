"""Where the benchmark runs and what it measures.

The benchmark always measures the `infgon` package in this checkout's
`src/` tree, never an installed copy: `import_infgon` puts `src/` first on
the import path and refuses to continue when the module resolves anywhere
else.  `run_metadata` is the provenance block recorded with every result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


class EnvironmentRefused(RuntimeError):
    """The checkout cannot be measured (package missing or resolved elsewhere)."""


def import_infgon():
    """Import `infgon` from `<root>/src`, or raise EnvironmentRefused."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import infgon
    except ImportError as exc:
        raise EnvironmentRefused(f"cannot import infgon from {SRC}: {exc}") from exc
    where = Path(infgon.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise EnvironmentRefused(
            f"infgon resolved to {where}, outside {SRC}; refusing to measure a stale copy"
        )
    return infgon


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: only this checkout's `src/` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NO_COLOR"] = "1"
    return env


def _git_commit() -> str:
    # read .git directly: the checkout may not be a repository, and asking git
    # would walk up into whatever repository happens to contain it
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(infgon) -> dict[str, object]:
    return {
        "infgon_file": str(Path(infgon.__file__).resolve()),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
