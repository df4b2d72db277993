#!/usr/bin/env python3
"""Stand-in for ``cargo miri run`` that leaves build output, as cargo does.

Usage: building_miri.py [--log=PATH] <fake_miri.py arguments>

Writes a binary (not UTF-8) artefact to ``target/miri/debug/p.rmeta`` under
the working directory and, when that directory holds a ``Cargo.toml`` and
no ``Cargo.lock``, a lock file, as cargo does. Then it runs
``fake_miri.py`` in this same process, through ``counting_miri.py`` when
given ``--log=PATH``, so each spawn is logged there.
"""
import runpy
import sys
from pathlib import Path

STUB = Path(__file__).with_name("fake_miri.py")
COUNTING = Path(__file__).with_name("counting_miri.py")
ARTEFACT = Path("target/miri/debug/p.rmeta")
ARTEFACT_BYTES = b"\x00\xc3\x28\xff"
LOCK = Path("Cargo.lock")
LOCK_TEXT = (
    "# This file is automatically @generated by Cargo.\n"
    'version = 3\n\n[[package]]\nname = "p"\nversion = "0.1.0"\n'
)

if __name__ == "__main__":
    ARTEFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTEFACT.write_bytes(ARTEFACT_BYTES)
    if Path("Cargo.toml").is_file() and not LOCK.exists():
        LOCK.write_text(LOCK_TEXT)
    logged = any(arg.startswith("--log=") for arg in sys.argv[1:])
    script = COUNTING if logged else STUB
    sys.argv = [str(script)] + sys.argv[1:]
    runpy.run_path(str(script), run_name="__main__")
