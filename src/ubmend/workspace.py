"""Isolated working copies: every patch and detection run happens here."""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from .detector import TargetPackage


class WorkingCopy:
    """A private copy of a target's sources in a fresh temporary tree,
    which ``cleanup`` removes."""

    def __init__(self, target: TargetPackage) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="ubmend-"))
        for rel in target.tracked_files():
            dest = self.root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(target.root_path / rel, dest)
        self.target = TargetPackage(
            root_path=self.root,
            entry_files=list(target.entry_files),
            token_budget=target.token_budget,
        )

    def read(self, rel: str) -> str:
        return (self.root / rel).read_text(encoding="utf-8")

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def files(self) -> dict[str, str]:
        """Current content of every tracked source, keyed by relative path."""
        out: dict[str, str] = {}
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                rel = str(path.relative_to(self.root))
                out[rel] = path.read_text(encoding="utf-8")
        return out

    def restore(self, files: dict[str, str]) -> None:
        for rel, text in files.items():
            self.write(rel, text)
        for path in list(self.root.rglob("*")):
            if path.is_file() and str(path.relative_to(self.root)) not in files:
                path.unlink()

    def cleanup(self) -> None:
        """Remove the temporary tree."""
        shutil.rmtree(self.root, ignore_errors=True)
