#!/usr/bin/env python3
"""Stand-in for ``cargo miri run`` that leaves build output, as cargo does.

Usage: building_miri.py <fake_miri.py arguments>

Writes a binary (not UTF-8) artefact to ``target/miri/debug/p.rmeta`` under
the working directory, then runs ``fake_miri.py`` in this same process.
"""
import runpy
import sys
from pathlib import Path

STUB = Path(__file__).with_name("fake_miri.py")
ARTEFACT = Path("target/miri/debug/p.rmeta")
ARTEFACT_BYTES = b"\x00\xc3\x28\xff"

if __name__ == "__main__":
    ARTEFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTEFACT.write_bytes(ARTEFACT_BYTES)
    sys.argv = [str(STUB)] + sys.argv[1:]
    runpy.run_path(str(STUB), run_name="__main__")
