"""Span recorder for the traced run, and the per-layer aggregation.

The recorder wraps the public functions and methods of each ubmend module
from outside: every module-level binding of a wrapped function is replaced,
so ``run_detection`` is traced whether it is called as ``cli.run_detection``
or ``slow.run_detection``, and agent functions are traced through the
``AGENT_FUNCTIONS`` table as well. Nothing inside ``src/ubmend`` changes.

A span is ``[id, name, start, end, parent, case, info]``. The case is the
id of the enclosing ``cli.repair_one`` span, so every span of one repair
run shares it. Spans are kept in memory and written out when the process
ends; ``aggregate`` turns the spans of many processes into layer metrics.
A layer's ``self_s`` counts only spans inside repair runs, so the layer
self times add up to ``cli.repair_one_s``; work outside them (argument
parsing, store loading, the bench thread pool) shows in the inclusive
metrics such as ``kb.load_s``.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli",
    "detector",
    "provider",
    "fast",
    "classifier",
    "lexutil",
    "agents",
    "workspace",
    "rollback",
    "slow",
    "kb",
    "feedback",
)
ROOT = "cli.repair_one"
# Leaf helpers that call nothing else in the package and run thousands of
# times per store load or ranking; their time stays in their callers' spans.
UNTRACED = ("kb.cosine", ".to_dict", ".from_dict", ".to_list", ".from_list")
AGENTS = ("agents.safe_replace", "agents.add_assertion", "agents.modify_semantics")


def _hash_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Per-span details recorded before the call (from the arguments) and after
# it (from the result). They run outside the span's timed interval.
def _pre_detection(args, kwargs):
    target, config = _arg(args, kwargs, 0, "target"), _arg(args, kwargs, 2, "config")
    entry = target.entry_files[0] if target.entry_files else ""
    command = config.command if config is not None else ()
    argv = " ".join(str(tok).replace("{file}", entry) for tok in command)
    return {"key": _hash_tree(target.root_path) + "|" + argv}


def _pre_check(args, kwargs):
    bundle, source, entry = args[0], _arg(args, kwargs, 1, "final_source"), _arg(args, kwargs, 2, "entry_file")
    payload = json.dumps([sorted(source.items()), entry, bundle.expected_stdout.hex(), bundle.expected_exit])
    return {"key": hashlib.sha256(payload.encode()).hexdigest()}


def _pre_repair(args, kwargs):
    target, settings = _arg(args, kwargs, 0, "target"), _arg(args, kwargs, 3, "settings")
    return {"label": str(Path(target.root_path) / target.entry_files[0]), "kb": bool(settings.kb_enabled)}


def _pre_rank(args, kwargs):
    engine, candidates = args[0], _arg(args, kwargs, 1, "candidates")
    seeded = any(getattr(c.provenance, "value", "") == "knowledge_seeded" for c in candidates)
    return {"scanned": len(engine.records) * len(candidates), "seeded": seeded}


def _pre_best_hit(args, kwargs):
    return {"scanned": len(args[0].records)}


def _pre_record(args, kwargs):
    files = _arg(args, kwargs, 2, "files")
    return {"bytes": sum(len(t.encode("utf-8")) for t in files.values())}


def _pre_mask(args, kwargs):
    return {"bytes": len(_arg(args, kwargs, 0, "source").encode("utf-8"))}


def _pre_complete(args, kwargs):
    return {"before": args[0].tokens_used}


def _post_complete(info, args, kwargs, result):
    info["tokens"] = args[0].tokens_used - info.pop("before")


def _post_step(info, args, kwargs, result):
    thought = result[0]
    prev = info.pop("prev")
    info["useful"] = thought.resulting_errors < prev


def _pre_step(args, kwargs):
    return {"prev": _arg(args, kwargs, 6, "prev_count")}


def _post_session(info, args, kwargs, result):
    solutions = list(_arg(args, kwargs, 1, "solutions") or [])
    ids = [s.id for s in solutions]
    info["tried"] = ids.index(result.solution_id) + 1 if result.solution_id in ids else 0
    info["rollbacks"] = result.stats.rollback_count


def _post_evaluate(info, args, kwargs, result):
    info["unknown"] = bool(result.accuracy and result.acceptability is None)


PRE = {
    "detector.run_detection": _pre_detection,
    "feedback.ReferenceBundle.check": _pre_check,
    ROOT: _pre_repair,
    "feedback.FeedbackEngine.rank_solutions": _pre_rank,
    "feedback.FeedbackEngine.best_hit": _pre_best_hit,
    "rollback.SnapshotStore.record": _pre_record,
    "lexutil.mask_comments_and_strings": _pre_mask,
    "provider.Provider.complete": _pre_complete,
    "slow.execute_step": _pre_step,
}
POST = {
    "provider.Provider.complete": _post_complete,
    "slow.execute_step": _post_step,
    "slow.run_session": _post_session,
    "feedback.FeedbackEngine.evaluate": _post_evaluate,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.clock = time.perf_counter

    def _wrap(self, name: str, fn):
        if name.endswith(UNTRACED):
            return fn
        pre, post = PRE.get(name), POST.get(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            info = pre(args, kwargs) if pre else {}
            sid = next(ids)
            case = sid if name == ROOT else (parent[5] if parent else None)
            span = [sid, name, 0.0, 0.0, parent[0] if parent else None, case, info]
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                info["error"] = type(exc).__name__
                raise
            else:
                span[3] = clock()
            finally:
                stack.pop()
                spans.append(span)
            if post:
                post(info, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "ubmend") -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        # rebind every alias: module globals and function tables
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def _wrap_class(self, short: str, cls: type) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not dataclasses.is_dataclass(cls)):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# --- aggregation ----------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = (end - start) - covered
    return out


def case_balance(spans: list[list], selfs: dict[int, float]) -> float:
    """Largest gap between a case's summed self times and its root duration."""
    per_case: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] is not None:
            per_case[span[5]] += selfs[span[0]]
    worst = 0.0
    for span in spans:
        if span[1] == ROOT:
            worst = max(worst, abs(per_case[span[0]] - (span[3] - span[2])))
    return worst


def _repeat_share(keys_by_case: dict, calls: int) -> tuple[int, int]:
    repeats = 0
    for keys in keys_by_case.values():
        seen: set[str] = set()
        for key in keys:
            if key in seen:
                repeats += 1
            seen.add(key)
    return repeats, calls


def aggregate(processes: list[list[list]], leaked_dirs: int, import_s: list[float]) -> tuple[dict, float]:
    """Layer metrics over the spans of several processes.

    Returns the metrics and the largest per-case self-time imbalance.
    """
    total = defaultdict(float)  # name -> summed duration
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_by_layer = defaultdict(float)
    det_keys, ref_keys = defaultdict(list), defaultdict(list)
    m = defaultdict(float)
    worst = 0.0
    for pid, spans in enumerate(processes):
        selfs = self_times(spans)
        worst = max(worst, case_balance(spans, selfs))
        by_id = {s[0]: s for s in spans}
        label_of = {s[0]: s[6]["label"] for s in spans if s[1] == ROOT}
        for sid, name, start, end, parent, case, info in sorted(spans, key=lambda s: s[2]):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if case is not None:
                self_by_layer[name.split(".", 1)[0]] += selfs[sid]
            if "error" in info:
                errors[name] += 1
            group = (pid, label_of.get(case))
            if name == "detector.run_detection":
                det_keys[group].append(info["key"])
                if parent is not None and by_id[parent][1] == "slow.run_session":
                    m["detector.final_verify_calls"] += 1
            elif name == "feedback.ReferenceBundle.check":
                ref_keys[group].append(info["key"])
            elif name == ROOT:
                m["cli.repair_one_calls"] += 1
                m["cli.repair_one_s"] += dur
            elif name == "feedback.FeedbackEngine.rank_solutions":
                m["feedback.records_scanned"] += info["scanned"]
                m["_seeded"] += info["seeded"]
                m["_ranked"] += 1
            elif name == "feedback.FeedbackEngine.best_hit":
                m["feedback.records_scanned"] += info["scanned"]
            elif name == "feedback.FeedbackEngine.evaluate":
                m["feedback.acceptability_unknown"] += info.get("unknown", False)
            elif name == "slow.execute_step":
                m["slow.thoughts"] += 1
                m["_useful"] += info.get("useful", False)
            elif name == "slow.run_session":
                m["slow.solutions_tried"] += info.get("tried", 0)
                m["slow.rollbacks"] += info.get("rollbacks", 0)
            elif name == "rollback.SnapshotStore.record":
                m["rollback.snapshot_bytes"] += info["bytes"]
            elif name == "lexutil.mask_comments_and_strings":
                m["_mask_bytes"] += info["bytes"]
            elif name == "provider.Provider.complete":
                m["provider.tokens"] += info.get("tokens", 0)
        # a no-knowledge run inside a knowledge-enabled bench is the timing rerun
        kb_case = {s[6]["label"] for s in spans if s[1] == ROOT and s[6]["kb"]}
        for s in spans:
            if s[1] == ROOT and not s[6]["kb"] and s[6]["label"] in kb_case:
                m["cli.plain_rerun_s"] += s[3] - s[2]

    det_rep, det_calls = _repeat_share(det_keys, calls["detector.run_detection"])
    ref_rep, ref_calls = _repeat_share(ref_keys, calls["feedback.ReferenceBundle.check"])
    agent_calls = sum(calls[a] for a in AGENTS)
    out = {
        "detector.calls": calls["detector.run_detection"],
        "detector.busy_s": total["detector.run_detection"],
        "detector.parse_s": total["detector.parse_diagnostics"],
        "detector.compile_failures": errors["detector.run_detection"],
        "detector.final_verify_calls": m["detector.final_verify_calls"],
        "detector.repeat_share": det_rep / det_calls if det_calls else 0.0,
        "feedback.reference_checks": ref_calls,
        "feedback.reference_busy_s": total["feedback.ReferenceBundle.check"],
        "feedback.reference_repeat_share": ref_rep / ref_calls if ref_calls else 0.0,
        "feedback.acceptability_unknown": m["feedback.acceptability_unknown"],
        "feedback.rank_s": total["feedback.FeedbackEngine.rank_solutions"],
        "feedback.best_hit_s": total["feedback.FeedbackEngine.best_hit"],
        "feedback.records_scanned": m["feedback.records_scanned"],
        "feedback.seeded_share": m["_seeded"] / m["_ranked"] if m["_ranked"] else 0.0,
        "feedback.append_s": total["feedback.FeedbackEngine.record_experience"],
        "feedback.load_s": total["feedback.FeedbackEngine.__init__"],
        "kb.load_s": total["kb.KnowledgeBase.__init__"],
        "kb.search_calls": calls["kb.KnowledgeBase.search"],
        "kb.search_s": total["kb.KnowledgeBase.search"],
        "kb.insert_s": total["kb.KnowledgeBase.insert"],
        "kb.extract_ast_s": total["kb.extract_ast"],
        "kb.prune_s": total["kb.prune"],
        "kb.vectorize_s": total["kb.vectorize"],
        "cli.import_s": sorted(import_s)[len(import_s) // 2] if import_s else 0.0,
        "cli.repair_one_calls": m["cli.repair_one_calls"],
        "cli.repair_one_s": m["cli.repair_one_s"],
        "cli.plain_rerun_s": m["cli.plain_rerun_s"],
        "classifier.locate_calls": calls["classifier.locate_unsafe_regions"],
        "classifier.locate_s": total["classifier.locate_unsafe_regions"],
        "classifier.classify_s": total["classifier.classify_ops"],
        "classifier.unclassifiable": errors["classifier.classify_ops"],
        "lexutil.mask_calls": calls["lexutil.mask_comments_and_strings"],
        "lexutil.mask_bytes_per_s": (
            m["_mask_bytes"] / total["lexutil.mask_comments_and_strings"]
            if total["lexutil.mask_comments_and_strings"]
            else 0.0
        ),
        "lexutil.keyword_scan_calls": calls["lexutil.keyword_occurrences"],
        "slow.thoughts": m["slow.thoughts"],
        "slow.solutions_tried": m["slow.solutions_tried"],
        "slow.rollbacks": m["slow.rollbacks"],
        "slow.useful_thought_share": m["_useful"] / m["slow.thoughts"] if m["slow.thoughts"] else 0.0,
        "agents.calls": agent_calls,
        "agents.abstained": sum(errors[a] for a in AGENTS),
        "agents.reverted": calls["agents.revert_patch"],
        "rollback.snapshots": calls["rollback.SnapshotStore.record"],
        "rollback.snapshot_bytes": m["rollback.snapshot_bytes"],
        "rollback.record_s": total["rollback.SnapshotStore.record"],
        "rollback.restore_s": total["rollback.SnapshotStore.restore"],
        "workspace.copies": calls["workspace.WorkingCopy.__init__"],
        "workspace.files_calls": calls["workspace.WorkingCopy.files"],
        "workspace.files_s": total["workspace.WorkingCopy.files"],
        "workspace.leaked_dirs": leaked_dirs,
        "provider.calls": calls["provider.Provider.complete"],
        "provider.tokens": m["provider.tokens"],
        "provider.busy_s": total["provider.Provider.complete"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out, worst
