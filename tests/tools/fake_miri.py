#!/usr/bin/env python3
"""Scriptable stand-in for the UB detection tool, driven by source comments.

Scans the Rust files given on argv and emits diagnostics in the block format
the detector parses. Directives:

  //~UB <message>          emit one UB block pointing at this line
  //~GUARD                 on the nearest preceding non-blank line:
                           suppresses that UB block (a guarded operation)
  //~ABORT <message>       emit an abnormal-termination block
  //~COMPILE-ERROR <msg>   rustc-style compile error; exit 1, no UB blocks
  //~SLEEP <seconds>       sleep before reporting (timeout tests)

Paths are printed exactly as given (the harness passes them relative to the
working copy root), keeping output independent of temp directory names.

With ``--first-ub`` only the first UB or abnormal-termination block, in file
order, is printed, as Miri stops at its first UB; compile errors are still
all reported.
"""
import sys
import time
from pathlib import Path

UB = "//~UB"
GUARD = "//~GUARD"
ABORT = "//~ABORT"
COMPILE = "//~COMPILE-ERROR"
SLEEP = "//~SLEEP"


def prev_nonblank(lines, index):
    for j in range(index - 2, -1, -1):
        if lines[j].strip():
            return lines[j]
    return None


def indent_col(line):
    return len(line) - len(line.lstrip()) + 1


def ub_block(header, rel, lineno, col, source_line):
    gutter = max(len(str(lineno)), 2)
    pad = " " * gutter
    caret_at = max(col - 1, 0)
    code = source_line.rstrip()
    width = max(len(code.strip().split("//~")[0].rstrip()) - caret_at, 1)
    return "\n".join(
        [
            header,
            f"{pad}--> {rel}:{lineno}:{col}",
            f"{pad} |",
            f"{str(lineno).rjust(gutter)} | {code}",
            f"{pad} | {' ' * caret_at}{'^' * width} undefined behavior occurred here",
            f"{pad} |",
            f"{pad} = help: this indicates a bug in the program",
            f"{pad} = note: BACKTRACE:",
            f"{pad} = note: inside `main` at {rel}:{lineno}:{col}",
            "",
        ]
    )


def compile_block(rel, lineno, col, msg, source_line):
    return "\n".join(
        [
            f"error[E0425]: {msg}",
            f"  --> {rel}:{lineno}:{col}",
            "   |",
            f"{str(lineno).rjust(2)} | {source_line.rstrip()}",
            "   |",
            "",
        ]
    )


def main(argv):
    paths = [a for a in argv[1:] if not a.startswith("-")]
    first_ub = "--first-ub" in argv[1:]
    blocks = []
    compile_errors = []
    for rel in paths:
        try:
            text = Path(rel).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: couldn't read {rel}: {exc}", file=sys.stderr)
            return 1
        lines = text.splitlines()
        for i, line in enumerate(lines, 1):
            if SLEEP in line:
                time.sleep(float(line.split(SLEEP, 1)[1].strip() or "1"))
            if COMPILE in line:
                msg = line.split(COMPILE, 1)[1].strip() or "cannot find value in this scope"
                compile_errors.append(compile_block(rel, i, indent_col(line), msg, line))
                continue
            for marker, label in ((UB, "Undefined Behavior"), (ABORT, "abnormal termination")):
                if marker in line and (marker != UB or ABORT not in line):
                    prev = prev_nonblank(lines, i)
                    if prev is not None and GUARD in prev:
                        continue
                    msg = line.split(marker, 1)[1].strip()
                    header = f"error: {label}: {msg}"
                    blocks.append(ub_block(header, rel, i, indent_col(line), line))
    if compile_errors:
        for block in compile_errors:
            print(block, file=sys.stderr)
        n = len(compile_errors)
        plural = "s" if n != 1 else ""
        print(f"error: aborting due to {n} previous error{plural}", file=sys.stderr)
        return 1
    if first_ub:
        blocks = blocks[:1]
    for block in blocks:
        print(block, file=sys.stderr)
    if blocks:
        n = len(blocks)
        plural = "s" if n != 1 else ""
        print(f"error: aborting due to {n} previous error{plural}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
