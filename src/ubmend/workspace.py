"""Isolated working copies: every patch and detection run happens here."""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from .detector import TargetPackage


class WorkingCopy:
    """A private copy of a target's sources in a fresh temporary tree,
    which ``cleanup`` removes; its sources are the target's, never listed again."""

    def __init__(self, target: TargetPackage) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="ubmend-"))
        for rel in target.tracked_files:
            dest = self.root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(target.root_path / rel, dest)
        self.target = TargetPackage(self.root, list(target.entry_files))
        self.target.tracked_files = target.tracked_files

    def _path(self, rel: str) -> Path:
        """``rel`` under the copy's root; FileNotFoundError when it resolves
        anywhere else, so a path from a plan never reaches outside the copy."""
        root = self.root.resolve()
        path = (root / rel).resolve()
        if path == root or not path.is_relative_to(root):
            raise FileNotFoundError(f"{rel}: not in the working copy")
        return path

    def read(self, rel: str) -> str:
        return self._path(rel).read_text(encoding="utf-8")

    def write(self, rel: str, text: str) -> None:
        path = self._path(rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def files(self) -> dict[str, str]:
        """Current content of every source (``tracked_files``), keyed by
        relative path; a file written into the copy later is not one."""
        return {rel: (self.root / rel).read_text(encoding="utf-8") for rel in self.target.tracked_files}

    def restore(self, files: dict[str, str]) -> None:
        """Put back the sources ``files`` holds; any other file is left as it is."""
        for rel, text in files.items():
            self.write(rel, text)

    def cleanup(self) -> None:
        """Remove the temporary tree."""
        shutil.rmtree(self.root, ignore_errors=True)
