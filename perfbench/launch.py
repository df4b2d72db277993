"""Runs one ubmend CLI invocation with outside-in counters.

Usage: ``python3 launch.py <ubmend arguments>``, with ``BENCH_SRC`` naming
the package source directory and ``BENCH_STATS`` the JSON file to write at
exit. The counters wrap calls into the package from outside:

- the tokens every ``Provider.complete`` call adds;
- every ``cli.repair_one`` call, its target and its wall time;
- this process's own peak RSS (``RUSAGE_SELF``, so detector and ``rustc``
  children are excluded).

With ``BENCH_TRACE=1`` the span recorder replaces the counters and the spans
go to ``BENCH_SPANS``. ``python3 launch.py --setup [KB] [EXPERIENCE]`` only
does the program's set-up: import, pattern and policy tables, and the
knowledge base and experience log built from the given store files.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _setup(paths: list[str]) -> int:
    from ubmend import cli
    from ubmend.classifier import load_policy_table
    from ubmend.detector import load_pattern_table

    load_pattern_table()
    load_policy_table()
    kb = cli.KnowledgeBase(paths[0] if paths else None)
    cli.FeedbackEngine(paths[1] if len(paths) > 1 else None, kb=kb)
    return 0


def _install_counters(cli, stats: dict) -> None:
    from ubmend.provider import Provider

    lock = threading.Lock()
    complete = Provider.complete
    repair_one = cli.repair_one

    def counted_complete(self, prompt):
        before = self.tokens_used
        response = complete(self, prompt)
        with lock:
            stats["tokens"] += self.tokens_used - before
        return response

    def timed_repair_one(target, provider, engine, settings, reference=None):
        started = time.perf_counter()
        try:
            return repair_one(target, provider, engine, settings, reference)
        finally:
            row = [str(target.root_path / target.entry_files[0]), settings.kb_enabled,
                   time.perf_counter() - started]
            with lock:
                stats["repairs"].append(row)

    Provider.complete = counted_complete
    cli.repair_one = timed_repair_one


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.environ["BENCH_SRC"])
    started = time.perf_counter()
    from ubmend import cli

    import_s = time.perf_counter() - started
    if argv and argv[0] == "--setup":
        return _setup(argv[1:])
    stats = {"import_s": import_s, "tokens": 0, "repairs": [], "rc": None}
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _install_counters(cli, stats)
    try:
        stats["rc"] = cli.main(argv)
    finally:
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.environ["BENCH_STATS"], "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
        if tracer is not None:
            tracer.dump(os.environ["BENCH_SPANS"])
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
