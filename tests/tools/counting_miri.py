#!/usr/bin/env python3
"""Counting wrapper around the stub detector, for tests that count spawns.

Usage: counting_miri.py --log=PATH <fake_miri.py arguments>

Runs ``fake_miri.py`` in this same process and appends one JSON line per
invocation to PATH: the stub's arguments, the sha256 of the bytes of every
file argument, and the stub's exit status.
"""
import hashlib
import json
import os
import runpy
import sys
from pathlib import Path

STUB = Path(__file__).with_name("fake_miri.py")


def main() -> None:
    log = next(a.split("=", 1)[1] for a in sys.argv[1:] if a.startswith("--log="))
    args = [a for a in sys.argv[1:] if not a.startswith("--log=")]
    digests = {
        a: hashlib.sha256(Path(a).read_bytes()).hexdigest()
        for a in args
        if not a.startswith("-") and Path(a).is_file()
    }
    sys.argv = [str(STUB)] + args
    status = 0
    try:
        runpy.run_path(str(STUB), run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    line = json.dumps({"args": args, "files": digests, "status": status}) + "\n"
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)
    sys.exit(status)


if __name__ == "__main__":
    main()
