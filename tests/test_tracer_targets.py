"""Every per-layer target of the benchmark tracer still resolves in the package.

``perfbench/tracer.py`` skips a target whose function was renamed or removed
and drops its metric without failing, so a rename would silently lose a
per-layer measurement; this test makes it fail instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_every_tracer_target_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer

        t = tracer.Tracer().install()
        try:
            assert t.missing == []
        finally:
            t.uninstall()
    finally:
        sys.path.remove(PERFBENCH)
