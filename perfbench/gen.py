"""Seeded input generators and the known-answer tables.

Every input the benchmark feeds the program is made here from the workload
seed. Expected answers come from the templates' documented behaviour or from
the generator's own model of the program it wrote, never from ubmend.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Known answers for the fixture templates under the scripted mock provider:
# (verdict, acceptability). c07 has no reference bundle, so acceptability is
# unknown (None); c12's repair drops the racy increment, so the repaired
# program prints a different counter.
TEMPLATE_ANSWERS: dict[str, tuple[str, bool | None]] = {
    "c01": ("semantic_pass", True),
    "c02": ("semantic_pass", True),
    "c03": ("semantic_pass", True),
    "c04": ("semantic_pass", True),
    "c05": ("semantic_pass", True),
    "c06": ("semantic_pass", True),
    "c07": ("pass", None),
    "c08": ("semantic_pass", True),
    "c09": ("semantic_pass", True),
    "c10": ("semantic_pass", True),
    "c11": ("semantic_pass", True),
    "c12": ("pass", False),
}

# Copies of each template per corpus-bench manifest.
CORPUS_COPIES = 2

# Region counts of the large-target manifest. The structure is the same for
# every seed (only names, constants, messages and distractors vary), so runs
# on different seeds measure the same amount of work.
# (unsafe regions, approximate characters); the largest sits just under the
# detector's 16k-token budget (about four characters per token).
LARGE_TARGETS = ((4, 3000), (6, 6000), (8, 10000), (10, 16000), (12, 24000), (16, 40000), (20, 62000))


@dataclass
class Template:
    id: str
    path: Path  # main.rs
    kind: str
    reference: Path | None


@dataclass
class Case:
    """One generated case: where it lives and what the answer must be."""

    id: str
    path: Path
    kind: str
    reference: Path | None
    verdict: str
    acceptability: bool | None
    template: str = ""

    def manifest_line(self) -> str:
        entry = {"id": self.id, "path": str(self.path), "ub_kind": self.kind}
        if self.reference is not None:
            entry["reference"] = str(self.reference)
        return json.dumps(entry)


def load_templates(corpus: Path) -> list[Template]:
    out = []
    for line in (corpus / "manifest.jsonl").read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        ref = entry.get("reference")
        out.append(
            Template(
                id=entry["id"],
                path=(corpus / entry["path"]).resolve(),
                kind=entry["ub_kind"],
                reference=(corpus / ref).resolve() if ref else None,
            )
        )
    if sorted(t.id for t in out) != sorted(TEMPLATE_ANSWERS):
        raise RuntimeError(f"fixture corpus changed: {sorted(t.id for t in out)}")
    return out


def write_manifest(path: Path, cases: list[Case]) -> None:
    path.write_text("".join(c.manifest_line() + "\n" for c in cases), encoding="utf-8")


def _uniquify(template: Template, dest: Path, tag: str) -> Path:
    """Copy a template with a leading comment that makes its bytes unique."""
    dest.mkdir(parents=True, exist_ok=True)
    out = dest / "main.rs"
    text = template.path.read_text(encoding="utf-8")
    out.write_text(f"// case {tag}\n{text}", encoding="utf-8")
    return out


def corpus_cases(templates: list[Template], seed: int, root: Path) -> list[Case]:
    """A seeded shuffle of CORPUS_COPIES byte-unique copies of each template."""
    rng = random.Random(f"corpus-bench:{seed}")
    draws = [t for t in templates for _ in range(CORPUS_COPIES)]
    rng.shuffle(draws)
    cases = []
    for i, t in enumerate(draws):
        cid = f"k{i:03d}"
        tag = f"{cid} from {t.id} seed {seed} nonce {rng.randrange(1 << 30)}"
        path = _uniquify(t, root / cid, tag)
        verdict, accept = TEMPLATE_ANSWERS[t.id]
        cases.append(Case(cid, path, t.kind, t.reference, verdict, accept, t.id))
    return cases


def fixloop_sequence(templates: list[Template], seed: int, rounds: int) -> list[Template]:
    """Targets for the closed loop: seeded shuffles of the templates, one
    after another. Every target recurs byte for byte in each later round,
    and any run of whole rounds holds each template equally often."""
    rng = random.Random(f"fix-loop:{seed}")
    out: list[Template] = []
    for _ in range(rounds):
        block = list(templates)
        rng.shuffle(block)
        out.extend(block)
    return out


# --- fix-loop store --------------------------------------------------------

EXPERIENCE_RECORDS = 2000
KB_ENTRIES = 1000
# Templates without a planted successful past repair: best_hit cannot seed
# them until the loop itself has repaired them once. The others are seeded.
UNSEEDED_TEMPLATES = ("c01", "c06", "c09")

_SIGNATURES = {
    "SafeReplace": "replace the unsafe operation with the catalogued safe API",
    "AddAssertion": "insert guard assertions before each risky operation",
    "ModifySemantics": "rewrite the region to remove the undefined behavior",
}
# The agent of the solution a default run repairs each template with: what an
# earlier bench over the templates would have logged as a successful repair.
TEMPLATE_WINNER = {
    "c01": "ModifySemantics",
    "c02": "AddAssertion",
    "c03": "AddAssertion",
    "c04": "AddAssertion",
    "c05": "ModifySemantics",
    "c06": "ModifySemantics",
    "c07": "ModifySemantics",
    "c08": "ModifySemantics",
    "c09": "ModifySemantics",
    "c10": "ModifySemantics",
    "c11": "ModifySemantics",
    "c12": "SafeReplace",
}


def _stub_reports(stub: Path, path: Path):
    """Diagnostics the stub detector prints for ``path``, parsed by ubmend."""
    import contextlib
    import importlib.util
    import io

    from ubmend.detector import parse_diagnostics

    spec = importlib.util.spec_from_file_location("bench_stub_detector", stub)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        module.main(["stub", str(path)])
    return parse_diagnostics(err.getvalue())


def template_vectors(templates: list[Template], stub: Path) -> dict:
    """Template id -> (feature vector, lead UB kind), as repair_one computes them."""
    from collections import Counter

    from ubmend.kb import extract_ast, prune, vectorize

    out = {}
    for t in templates:
        reports = _stub_reports(stub, t.path)
        kinds = sorted({r.kind for r in reports}, key=lambda k: k.value)
        vector = vectorize(prune(extract_ast(t.path.read_text(encoding="utf-8")), reports), ub_kinds=kinds)
        out[t.id] = (vector, Counter(r.kind for r in reports).most_common(1)[0][0])
    return out


def build_store(templates: list[Template], seed: int, stub: Path, kb_path: Path, exp_path: Path) -> dict:
    """Write the fix-loop knowledge base and experience log; returns a summary."""
    import numpy as np

    from ubmend.detector import UbKind
    from ubmend.fast import AgentKind, RepairSolution, RepairStep
    from ubmend.feedback import EvalTriplet, ExperienceRecord, signature_of
    from ubmend.kb import FeatureVector, KnowledgeEntry, solution_template

    rng = random.Random(f"fix-loop-store:{seed}")
    vectors = template_vectors(templates, stub)
    kinds = [k for k in UbKind if k is not UbKind.UNKNOWN]

    def solution(agents: list[str]) -> RepairSolution:
        steps = [RepairStep(AgentKind(a), "main.rs#0", _SIGNATURES[a]) for a in agents]
        return RepairSolution(id=f"s{rng.randrange(1, 11):02d}", steps=steps)

    def triplet(accurate: bool, accept) -> EvalTriplet:
        return EvalTriplet(accurate, accept, round(rng.uniform(0.1, 9.0), 3), rng.randrange(500, 5000))

    # filler vectors avoid every bucket a template vector uses, so their
    # cosine with any template is exactly 0: they cost scans but never change
    # how a template's candidates rank
    taken = {i for v, _ in vectors.values() for i in np.flatnonzero(v.values)}
    free = [i for i in range(len(next(iter(vectors.values()))[0].values)) if i not in taken]

    def filler_vector() -> FeatureVector:
        values = np.zeros(len(free) + len(taken))
        for _ in range(rng.randrange(3, 11)):
            values[rng.choice(free)] += rng.randrange(1, 4)
        return FeatureVector(values)

    experience: list = []
    entries: list = []
    seeded = set(vectors) - set(UNSEEDED_TEMPLATES)
    for tid, (vec, kind) in sorted(vectors.items()):
        winner = TEMPLATE_WINNER[tid]
        _, accept = TEMPLATE_ANSWERS[tid]
        if tid in seeded:
            for _ in range(2):
                sol = solution([winner])
                experience.append(ExperienceRecord(vec, kind, sol.id, triplet(True, accept), signature_of(sol)))
            entries.append(KnowledgeEntry(vec, kind, solution_template(solution([winner]).to_dict()), triplet(True, accept)))
        for agent in sorted(_SIGNATURES):
            if agent != winner:
                sol = solution([agent])
                experience.append(ExperienceRecord(vec, kind, sol.id, triplet(False, False), signature_of(sol)))
    planted = len(experience)
    agents = sorted(_SIGNATURES)
    while len(experience) < EXPERIENCE_RECORDS:
        sol = solution([rng.choice(agents) for _ in range(rng.choice((1, 1, 1, 2)))])
        accurate = rng.random() < 0.7
        accept = rng.choice((True, False, None)) if accurate else False
        experience.append(ExperienceRecord(filler_vector(), rng.choice(kinds), sol.id, triplet(accurate, accept), signature_of(sol)))
    while len(entries) < KB_ENTRIES:
        sol = solution([rng.choice(agents)])
        entries.append(KnowledgeEntry(filler_vector(), rng.choice(kinds), solution_template(sol.to_dict()), triplet(True, rng.choice((True, None)))))
    rng.shuffle(experience)
    rng.shuffle(entries)
    for i, entry in enumerate(entries):
        entry.created = 1.7e9 + i
    exp_path.write_text("".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in experience), encoding="utf-8")
    kb_path.write_text("".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in entries), encoding="utf-8")
    return {"experience": len(experience), "kb": len(entries), "planted": planted, "seeded_templates": sorted(seeded)}


# --- large targets --------------------------------------------------------

# UB messages whose kind's policy row leads with SemanticModification or
# AssertionGuard: the scripted mock can always apply those two, so the first
# solution repairs every region and no later solution re-patches one.
_MESSAGES = (
    "attempting a read access using <{n}> at alloc{m}[0x0], but that tag does not exist in the borrow stack for this location",
    "memory access failed: alloc{m} has been freed, so this pointer is dangling",
    "out-of-bounds memory access: expected a pointer to 8 bytes of memory, but alloc{m} has size 4",
    "read access through <{n}> at alloc{m}[0x0] is forbidden (Tree Borrows)",
    "attempting to use a pointer with wildcard provenance created from an integer-to-pointer cast",
    "accessing memory based on pointer with alignment 1, but alignment 8 is required",
)
_CALL = "calling a function with calling convention \"C\" using calling convention \"Rust\""

# Safe-code distractors, placed only outside unsafe regions.
_DISTRACTORS = (
    "    // a stray closing brace } and an opening one {, plus the word unsafe {\n",
    "    /* block comment { with /* a nested } comment */ and unsafe { text } */\n",
    '    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;\n',
    '    let _label = "string with { an open brace and unsafe { in it";\n',
    "    let _open = '{';\n    let _close = '}';\n",
    "    let _cap = LIMIT_MAX.min(usize::MAX / 2);\n",
    '    let _raw = r"plain raw string with } brace";\n',
)


def _distract(rng: random.Random, count: int) -> str:
    return "".join(rng.choice(_DISTRACTORS) for _ in range(count))


def large_target(rng: random.Random, regions: int, size: int) -> tuple[str, str]:
    """(source, expected stdout) for one target with ``regions`` unsafe
    regions, padded with distractor-only helper functions to about ``size``
    characters.

    Regions come in three shapes, each carrying one ``//~UB`` marker on its
    own line: a raw-pointer dereference block, an ``unsafe fn`` that bumps
    the module-level ``static mut tally``, and the block that calls it.
    Distractors (braces and ``unsafe`` inside comments, strings, raw strings
    and char literals; SCREAMING constants) sit in the safe code around the
    regions. Every repair the scripted mock can make (drop the marker line,
    guard it, or abstain) keeps the program's behaviour, so the expected
    output is computed here.
    """
    n = lambda: rng.randrange(1000, 9999)  # noqa: E731
    msg = lambda i: _MESSAGES[i % len(_MESSAGES)].format(n=n(), m=n())  # noqa: E731
    head = (
        "#![allow(dead_code, unused_unsafe, unused_variables, static_mut_refs, non_upper_case_globals)]\n"
        "// generated large target; every unsafe region carries one UB marker\n\n"
        "static mut tally: i64 = 0;\n"
        f"const LIMIT_MAX: usize = {rng.randrange(16, 64)};\n"
        'const BANNER: &str = r#"unsafe { fn fake() { } } "quoted" {"#;\n\n'
    )
    blocks: list[str] = []
    calls: list[str] = []
    expected: list[str] = []
    total = 0
    made = 0
    while made < regions:
        idx = len(blocks)
        pads = 2
        if regions - made >= 2 and idx % 2 == 1:
            # unsafe fn plus the block that calls it: two regions
            by = rng.randrange(1, 50)
            blocks.append(
                f"unsafe fn bump_{idx}(by: i64) -> i64 {{\n"
                f"    //~UB {msg(made)}\n"
                f"    tally += by;\n"
                f"    tally\n"
                f"}}\n\n"
                f"fn call_{idx}() -> i64 {{\n"
                f"{_distract(rng, pads)}"
                f"    let seen = unsafe {{\n"
                f"        //~UB {_CALL}\n"
                f"        bump_{idx}({by})\n"
                f"    }};\n"
                f"    seen\n"
                f"}}\n\n"
            )
            total += by
            calls.append(f'    println!("call_{idx}={{}}", call_{idx}());\n')
            expected.append(f"call_{idx}={total}")
            made += 2
        else:
            base = rng.randrange(-500, 500)
            add = rng.randrange(1, 100)
            arg = rng.randrange(1, 30)
            blocks.append(
                f"fn region_{idx}(seed: i64) -> i64 {{\n"
                f"{_distract(rng, pads)}"
                f"    let cell = seed * 3 + ({base});\n"
                f"    let ptr = &cell as *const i64;\n"
                f"    let v = unsafe {{\n"
                f"        //~UB {msg(made)}\n"
                f"        *ptr + {add}\n"
                f"    }};\n"
                f"    v\n"
                f"}}\n\n"
            )
            calls.append(f'    println!("region_{idx}={{}}", region_{idx}({arg}));\n')
            expected.append(f"region_{idx}={arg * 3 + base + add}")
            made += 1
    tail = "fn main() {\n" + _distract(rng, 2) + "    let _len = BANNER.len();\n" + "".join(calls) + "}\n"
    length = len(head) + sum(map(len, blocks)) + len(tail)
    helpers: list[str] = []
    while length < size:
        helper = (
            f"fn helper_{len(helpers)}<'a>(text: &'a str) -> usize {{\n"
            f"{_distract(rng, 3)}"
            f"    if text.is_empty() {{ LIMIT_MAX }} else {{ text.len() }}\n"
            f"}}\n\n"
        )
        helpers.append(helper)
        length += len(helper)
    # spread the helpers evenly between the region blocks
    parts = [head]
    per_block = len(helpers) / len(blocks)
    taken = 0
    for i, block in enumerate(blocks):
        upto = round(per_block * (i + 1))
        parts.extend(helpers[taken:upto])
        taken = upto
        parts.append(block)
    parts.append(tail)
    return "".join(parts), "".join(line + "\n" for line in expected)


def large_cases(seed: int, root: Path) -> list[Case]:
    rng = random.Random(f"large-target:{seed}")
    cases = []
    for i, (count, size) in enumerate(LARGE_TARGETS):
        cid = f"t{i:02d}"
        source, stdout = large_target(rng, count, size)
        case_dir = root / cid
        ref_dir = root / f"{cid}.ref"
        case_dir.mkdir(parents=True, exist_ok=True)
        ref_dir.mkdir(parents=True, exist_ok=True)
        (case_dir / "main.rs").write_text(source, encoding="utf-8")
        (ref_dir / "expected_stdout.txt").write_text(stdout, encoding="utf-8")
        cases.append(
            Case(cid, case_dir / "main.rs", "unknown", ref_dir, "semantic_pass", True, cid)
        )
    return cases
