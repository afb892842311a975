"""Run provenance: what produced a persisted result, and from where.

Every persisted artifact (result-cache entries, ``save_comparisons``
output) embeds a manifest so numbers can always
be tied back to the exact code, interpreter, and configuration that
produced them.  All git lookups degrade to ``None`` outside a checkout —
a manifest never makes a run fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Optional

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))


def _git(*args: str) -> Optional[str]:
    try:
        result = subprocess.run(
            ("git",) + args, cwd=_REPO_DIR, timeout=5,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.decode("utf-8", "replace").strip()


def git_revision() -> Optional[str]:
    return _git("rev-parse", "HEAD")


def git_dirty() -> Optional[bool]:
    status = _git("status", "--porcelain")
    if status is None:
        return None
    return bool(status)


def config_fingerprint(config) -> Optional[str]:
    """sha256 over a config dataclass's sorted-JSON field dump."""
    if config is None:
        return None
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_manifest(config=None) -> dict:
    """Provenance record for one run or batch of runs."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_revision(),
        "git_dirty": git_dirty(),
        "config_fingerprint": config_fingerprint(config),
        "argv": list(sys.argv),
    }
