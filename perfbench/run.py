"""The ubmend benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/ubmend`` and
``tests/``). Workloads: ``corpus-bench``, ``fix-loop``, ``large-target``;
see ``perfbench/README.md``. ``--trace 0`` measures the end-to-end metrics
over about ``S`` seconds of work (a fixed amount per ``S``); ``--trace 1``
runs one fixed pass untraced and one traced and prints the per-layer
metrics and the tracing overhead. Fix-loop and large-target end-to-end
timings are scaled to a reference machine speed measured in the same run
(``REFERENCE_LAUNCH_S``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STUB = ROOT / "tests" / "tools" / "fake_miri.py"
CORPUS = ROOT / "tests" / "fixtures" / "corpus"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 7
# Machine-speed probe for fix-loop and large-target: launches of a bare
# interpreter, spread over the run. Their timing metrics are scaled by
# REFERENCE_LAUNCH_S over the median probe time, so they read as seconds on a
# machine where a bare launch takes the reference time. The shared machine
# the benchmark was defined on drifts by a quarter or more over minutes, and
# those two workloads track the probe; corpus-bench does not (the probe read
# 12 % slow in a run whose work was not), so it stays unscaled. The unscaled
# values are always printed.
SPEED_PROBES = 21
REFERENCE_LAUNCH_S = 0.055
BENCH_JOBS = 2
TRACED_FIX_ROUNDS = 2  # template rounds in the traced fix-loop pass
INVOCATION_TIMEOUT = 150.0
PASSING = ("pass", "semantic_pass")

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "fix_latency_s.p50": "s",
    "fix_latency_s.tail": "s",
    "detector_runs_per_case": "count",
    "rustc_compiles_per_case": "count",
    "tokens_per_case": "count",
    "pass_rate": "share",
    "exec_rate": "share",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, tool or input)."""


@dataclass
class Invocation:
    rc: int
    stdout: str
    stderr: str
    wall: float
    counters: dict  # what launch.py wrote: tokens, repair times, peak RSS
    spans: list | None
    detector_runs: int
    rustc_runs: int


@dataclass
class Outcome:
    """Checked results of one invocation."""

    cases: int
    failed: int
    passed: int
    accepted: int
    latencies: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class Harness:
    """Per-run sandbox: private TMPDIR, counting shims and store copies."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True)
        self.detector_log = work / "detector.log"
        self.rustc_log = work / "rustc.log"
        self.detector_log.touch()
        self.rustc_log.touch()
        real_rustc = shutil.which("rustc")
        if real_rustc is None:
            raise BenchError("rustc is not on PATH; the acceptability check needs it")
        shim_dir = work / "shim"
        shim_dir.mkdir()
        shim = shim_dir / "rustc"
        shim.write_text(
            "#!/bin/sh\n"
            f"echo x >> {shlex.quote(str(self.rustc_log))}\n"
            f"exec {shlex.quote(real_rustc)} \"$@\"\n",
            encoding="utf-8",
        )
        shim.chmod(0o755)
        self.env = dict(
            os.environ,
            TMPDIR=str(self.tmp),
            PATH=f"{shim_dir}{os.pathsep}{os.environ.get('PATH', '')}",
            BENCH_SRC=str(SRC),
            BENCH_STUB_DETECTOR=str(STUB),
            BENCH_DETECTOR_LOG=str(self.detector_log),
        )
        # absolute paths: a relative detector command fails every case
        self.detector_cmd = shlex.join([sys.executable, str(HERE / "detector_shim.py"), "{file}"])
        self._seq = 0

    def _counts(self) -> tuple[int, int]:
        return (
            self.detector_log.read_bytes().count(b"\n"),
            self.rustc_log.read_bytes().count(b"\n"),
        )

    def _run(self, argv: list[str], env: dict) -> tuple[int, str, str]:
        proc = subprocess.Popen(
            argv,
            cwd=self.work,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=INVOCATION_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            raise BenchError(f"invocation exceeded {INVOCATION_TIMEOUT}s: {argv[2:4]}")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return proc.returncode, out, err

    def launch_time(self) -> float:
        """Wall time of launching an interpreter that does nothing."""
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        return time.perf_counter() - started

    def setup_time(self, args: list[str]) -> float:
        started = time.perf_counter()
        rc, _, err = self._run([sys.executable, str(HERE / "launch.py"), "--setup", *args], self.env)
        wall = time.perf_counter() - started
        if rc != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        return wall

    def invoke(self, args: list[str], trace: bool = False) -> Invocation:
        self._seq += 1
        stats_path = self.work / f"stats-{self._seq}.json"
        spans_path = self.work / f"spans-{self._seq}.json"
        env = dict(
            self.env,
            BENCH_STATS=str(stats_path),
            BENCH_SPANS=str(spans_path),
            BENCH_TRACE="1" if trace else "0",
        )
        det0, rustc0 = self._counts()
        started = time.perf_counter()
        rc, out, err = self._run([sys.executable, str(HERE / "launch.py"), *args], env)
        wall = time.perf_counter() - started
        det1, rustc1 = self._counts()
        counters = json.loads(stats_path.read_text()) if stats_path.is_file() else {}
        spans = None
        if trace and spans_path.is_file():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        stats_path.unlink(missing_ok=True)
        return Invocation(rc, out, err, wall, counters, spans, det1 - det0, rustc1 - rustc0)

    def clear_tmp(self) -> int:
        """Remove everything under TMPDIR; returns the ubmend-* trees found."""
        leaked = sum(1 for p in self.tmp.iterdir() if p.name.startswith("ubmend-"))
        shutil.rmtree(self.tmp)
        self.tmp.mkdir()
        return leaked


def _answer_ok(case: gen.Case, verdict: str, acceptability) -> bool:
    return verdict == case.verdict and acceptability == case.acceptability


def _case_latencies(inv: Invocation) -> list[float]:
    """Per-case repair time: the case's knowledge and no-knowledge runs."""
    per_case: dict[str, float] = {}
    for label, _, seconds in inv.counters.get("repairs", []):
        per_case[label] = per_case.get(label, 0.0) + seconds
    return list(per_case.values())


def check_bench(inv: Invocation, cases: list[gen.Case]) -> Outcome:
    out = Outcome(cases=len(cases), failed=0, passed=0, accepted=0)
    rows = {}
    if inv.rc == 0:
        try:
            rows = {row["id"]: row for row in json.loads(inv.stdout)["cases"]}
        except (ValueError, KeyError, TypeError) as exc:
            out.notes.append(f"unreadable bench report: {exc}")
    else:
        out.notes.append(f"bench exited {inv.rc}: {inv.stderr.strip()[-300:]}")
    for case in cases:
        row = rows.get(case.id)
        if row is None:
            out.failed += 1
            continue
        verdict, accept = row["verdict"], row["acceptability"]
        if verdict in PASSING:
            out.passed += 1
            out.accepted += accept is True
        if row.get("note") or not _answer_ok(case, verdict, accept):
            out.failed += 1
            out.notes.append(f"{case.id} ({case.template}): got {verdict}/{accept} {row.get('note', '')}")
    out.latencies = _case_latencies(inv)
    return out


def check_fix(inv: Invocation, case: gen.Case) -> Outcome:
    out = Outcome(cases=1, failed=0, passed=0, accepted=0, latencies=[inv.wall])
    try:
        payload = json.loads(inv.stdout)
        verdict, accept = payload["verdict"], payload["triplet"]["acceptability"]
    except (ValueError, KeyError, TypeError):
        out.failed = 1
        out.notes.append(f"fix {case.template} exited {inv.rc}: {inv.stderr.strip()[-300:]}")
        return out
    if verdict in PASSING:
        out.passed = 1
        out.accepted = int(accept is True)
    if inv.rc not in (0, 1) or not _answer_ok(case, verdict, accept):
        out.failed = 1
        out.notes.append(f"fix {case.template}: got {verdict}/{accept}, rc {inv.rc}")
    return out


# --- workloads ------------------------------------------------------------


class Workload:
    """One workload: its inputs, its unit of work and how to check it.

    ``--seconds`` sets how much work a run measures: ``nominal_s`` is how
    long one unit took on the commit that defined the benchmark, so a run
    does ceil(seconds / nominal_s) units (at least ``min_units``). The same
    seconds give the same work on every commit, so counts repeat exactly and
    order statistics compare.
    """

    name = ""
    nominal_s = 1.0
    min_units = 1
    scaled = False  # timing metrics scaled by the launch probe

    def __init__(self, harness: Harness, seed: int) -> None:
        self.h = harness
        self.seed = seed

    def setup_args(self) -> list[str]:
        return []

    def units(self, seconds: float) -> int:
        return max(self.min_units, math.ceil(seconds / self.nominal_s))

    def warm_up(self) -> None:
        raise NotImplementedError

    def fixed_pass(self, trace: bool) -> tuple[list[Invocation], list[Outcome]]:
        """The deterministic unit of work the traced run repeats."""
        raise NotImplementedError

    def info(self) -> list[str]:
        return []


class BenchWorkload(Workload):
    """Repeated ``ubmend bench --jobs 2`` invocations over one manifest."""

    extra: list[str] = []

    def make_cases(self, root: Path) -> list[gen.Case]:
        raise NotImplementedError

    def __init__(self, harness: Harness, seed: int) -> None:
        super().__init__(harness, seed)
        self.cases = self.make_cases(harness.work / "cases")
        self.manifest = harness.work / "cases" / "manifest.jsonl"
        gen.write_manifest(self.manifest, self.cases)
        self.warm_manifest = harness.work / "cases" / "warm.jsonl"
        gen.write_manifest(self.warm_manifest, self.cases[:BENCH_JOBS])

    def _args(self, manifest: Path) -> list[str]:
        return [
            "bench", str(manifest), "--jobs", str(BENCH_JOBS), "--report", "json",
            "--detector-cmd", self.h.detector_cmd, *self.extra,
        ]

    def warm_up(self) -> None:
        self.h.invoke(self._args(self.warm_manifest))

    def unit(self, trace: bool = False) -> tuple[Invocation, Outcome]:
        inv = self.h.invoke(self._args(self.manifest), trace=trace)
        return inv, check_bench(inv, self.cases)

    def fixed_pass(self, trace: bool):
        inv, out = self.unit(trace)
        return [inv], [out]


class CorpusBench(BenchWorkload):
    name = "corpus-bench"
    nominal_s = 7.0

    def make_cases(self, root: Path) -> list[gen.Case]:
        return gen.corpus_cases(gen.load_templates(CORPUS), self.seed, root)


class LargeTarget(BenchWorkload):
    name = "large-target"
    nominal_s = 10.0
    min_units = 3  # 21 cases: the tail needs 20 samples to reach the median
    # a budget of one thought per region lets every session reach a verdict
    extra = ["--no-kb", "--max-iterations", str(max(r for r, _ in gen.LARGE_TARGETS))]
    scaled = True

    def make_cases(self, root: Path) -> list[gen.Case]:
        return gen.large_cases(self.seed, root)


class FixLoop(Workload):
    """One client running ``ubmend fix`` after ``ubmend fix`` on one store."""

    name = "fix-loop"
    nominal_s = 10.0  # one round: each template fixed once
    min_units = 3  # 36 fixes, so the tail sits well above the median
    scaled = True

    def __init__(self, harness: Harness, seed: int) -> None:
        super().__init__(harness, seed)
        templates = gen.load_templates(CORPUS)
        sys.path.insert(0, str(SRC))
        seed_dir = harness.work / "store-seed"
        seed_dir.mkdir()
        self.seed_kb, self.seed_exp = seed_dir / "kb.jsonl", seed_dir / "experience.jsonl"
        self.store = gen.build_store(templates, seed, STUB, self.seed_kb, self.seed_exp)
        self.kb, self.exp = harness.work / "kb.jsonl", harness.work / "experience.jsonl"
        self.sequence = gen.fixloop_sequence(templates, seed, rounds=200)
        self.position = 0
        self.round = len(templates)

    def fresh_store(self) -> None:
        shutil.copyfile(self.seed_kb, self.kb)
        shutil.copyfile(self.seed_exp, self.exp)

    def setup_args(self) -> list[str]:
        return [str(self.seed_kb), str(self.seed_exp)]

    def units(self, seconds: float) -> int:
        """Whole rounds of fixes, so every template counts equally often."""
        return self.round * super().units(seconds)

    def fix(self, template: gen.Template, trace: bool = False) -> tuple[Invocation, Outcome]:
        args = [
            "fix", str(template.path), "--kb", str(self.kb), "--experience", str(self.exp),
            "--report", "json", "--detector-cmd", self.h.detector_cmd,
        ]
        if template.reference is not None:
            args += ["--reference", str(template.reference)]
        verdict, accept = gen.TEMPLATE_ANSWERS[template.id]
        case = gen.Case(template.id, template.path, template.kind, template.reference, verdict, accept, template.id)
        inv = self.h.invoke(args, trace=trace)
        return inv, check_fix(inv, case)

    def warm_up(self) -> None:
        self.fresh_store()
        self.fix(self.sequence[0])
        self.fresh_store()

    def unit(self, trace: bool = False) -> tuple[Invocation, Outcome]:
        template = self.sequence[self.position]
        self.position += 1
        return self.fix(template, trace)

    def fixed_pass(self, trace: bool):
        self.fresh_store()
        self.position = 0
        pairs = [self.unit(trace) for _ in range(TRACED_FIX_ROUNDS * self.round)]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def info(self) -> list[str]:
        done = self.sequence[: self.position]
        seen: set[str] = set()
        repeats = 0
        for t in done:
            repeats += t.id in seen
            seen.add(t.id)
        return [
            f"store: {self.store['experience']} experience records, {self.store['kb']} knowledge entries, "
            f"{self.store['planted']} built from template vectors; seeded templates {','.join(self.store['seeded_templates'])}",
            f"target repeat share: {repeats}/{len(done)} = {repeats / max(1, len(done)):.3f} "
            "(fixes whose exact target an earlier fix in the run already had)",
        ]


WORKLOADS = {w.name: w for w in (CorpusBench, FixLoop, LargeTarget)}


# --- measurement ----------------------------------------------------------


def measure(workload: Workload, seconds: float) -> tuple[dict, int, int, bool, list[str]]:
    h = workload.h
    workload.warm_up()
    invocations: list[Invocation] = []
    outcomes: list[Outcome] = []
    setup: list[float] = []
    launches: list[float] = []
    units = workload.units(seconds)
    for i in range(units):
        inv, out = workload.unit()
        invocations.append(inv)
        outcomes.append(out)
        # probes are spread over the run, so they see the same machine as
        # the work they sit between
        while len(setup) < round((i + 1) * SETUP_REPEATS / units):
            setup.append(h.setup_time(workload.setup_args()))
        while workload.scaled and len(launches) < round((i + 1) * SPEED_PROBES / units):
            launches.append(h.launch_time())
    cases = sum(o.cases for o in outcomes)
    latencies = [x for o in outcomes for x in o.latencies]
    tail_value, tail_pct = stats.tail(latencies)
    unscaled = {
        "setup_s": stats.median(setup),
        "cases_per_s": cases / sum(i.wall for i in invocations),
        "fix_latency_s.p50": stats.median(latencies),
        "fix_latency_s.tail": tail_value,
    }
    speed = REFERENCE_LAUNCH_S / stats.median(launches) if workload.scaled else 1.0
    metrics = {
        "setup_s": unscaled["setup_s"] * speed,
        "cases_per_s": unscaled["cases_per_s"] / speed,
        "fix_latency_s.p50": unscaled["fix_latency_s.p50"] * speed,
        "fix_latency_s.tail": unscaled["fix_latency_s.tail"] * speed,
        "detector_runs_per_case": sum(i.detector_runs for i in invocations) / cases,
        "rustc_compiles_per_case": sum(i.rustc_runs for i in invocations) / cases,
        "tokens_per_case": sum(i.counters.get("tokens", 0) for i in invocations) / cases,
        "pass_rate": sum(o.passed for o in outcomes) / cases,
        "exec_rate": sum(o.accepted for o in outcomes) / cases,
        "peak_rss_mb": stats.median([i.counters.get("maxrss_kb", 0) / 1024.0 for i in invocations]),
    }
    failed = sum(o.failed for o in outcomes)
    info = [
        f"invocations: {len(invocations)}, cases: {cases}, wall: {sum(i.wall for i in invocations):.3f} s",
        f"fix_latency_s.tail is p{tail_pct:.1f} of {len(latencies)} samples (10 beyond it)",
        f"failed_share: {failed}/{cases} = {failed / cases:.4f}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
        f"timings scaled by {speed:.4f} (interpreter launch {REFERENCE_LAUNCH_S} s over "
        f"the run's median of {len(launches)} launches; 1 when unscaled)",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
        *workload.info(),
        *[n for o in outcomes for n in o.notes][:20],
    ]
    return metrics, cases, failed, True, info


def traced(workload: Workload) -> tuple[dict, int, int, bool, list[str]]:
    h = workload.h
    workload.warm_up()
    plain_inv, plain_out = workload.fixed_pass(trace=False)
    h.clear_tmp()
    traced_inv, traced_out = workload.fixed_pass(trace=True)
    leaked = h.clear_tmp()
    untraced_wall = sum(i.wall for i in plain_inv)
    traced_wall = sum(i.wall for i in traced_inv)
    spans = [i.spans or [] for i in traced_inv]
    layer, worst = tracer.aggregate(spans, leaked, [i.counters.get("import_s", 0.0) for i in traced_inv])
    cases = sum(o.cases for o in traced_out)
    layer["trace.cases"] = cases
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    outcomes = plain_out + traced_out
    failed = sum(o.failed for o in outcomes)
    attempted = sum(o.cases for o in outcomes)
    info = [
        f"traced pass: {cases} cases in {len(traced_inv)} invocations, {sum(len(s) for s in spans)} spans",
        f"tracing overhead: {traced_wall - untraced_wall:.3f} s "
        f"({traced_wall:.3f} s traced vs {untraced_wall:.3f} s untraced)",
        f"largest gap between a case's summed self times and its repair_one time: {worst:.2e} s",
        *workload.info(),
        *[n for o in outcomes for n in o.notes][:20],
    ]
    balanced = worst <= 1e-6 and any(spans)
    if not balanced:
        info.append("spans missing, or self times do not add up to repair_one time")
    return layer, attempted, failed, balanced, info


def _check_layout() -> None:
    missing = [p for p in (SRC / "ubmend" / "cli.py", STUB, CORPUS / "manifest.jsonl") if not p.is_file()]
    if missing:
        raise BenchError("not a ubmend checkout, missing: " + ", ".join(str(p) for p in missing))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still reaches the cleanup below and kills its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _check_layout()
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        try:
            workload = WORKLOADS[args.workload](Harness(work), args.seed)
            run = traced if args.trace else lambda w: measure(w, args.seconds)
            metrics, attempted, failed, checks_ok, info = run(workload)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if not any(WORK.iterdir()):
                WORK.rmdir()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in info:
        print(line)
    units = {name: END_TO_END.get(name) or layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "B/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
