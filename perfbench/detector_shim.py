"""Counting wrapper around the stub detector.

Run as the detector command (``python3 detector_shim.py {file}``). Appends
one line per invocation to ``$BENCH_DETECTOR_LOG`` and then runs the stub
detector named by ``$BENCH_STUB_DETECTOR`` in this same process, so the
count costs no extra process spawn.
"""
import os
import runpy
import sys


def main() -> None:
    stub = os.environ["BENCH_STUB_DETECTOR"]
    line = f"{os.getpid()}\t{os.getcwd()}\t{' '.join(sys.argv[1:])}\n".encode()
    fd = os.open(os.environ["BENCH_DETECTOR_LOG"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
    sys.argv = [stub] + sys.argv[1:]
    runpy.run_path(stub, run_name="__main__")


if __name__ == "__main__":
    main()
