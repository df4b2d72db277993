"""Child processes that never outlive their timeout.

The detection tool and the reference checks spawn tools that may fork
(``cargo miri run`` runs the interpreter as a grandchild). Each runs in a
session of its own, and when its timeout expires the whole process group
is killed, not only the direct child.
"""
from __future__ import annotations

import os
import signal
import subprocess
from typing import Sequence


def run_group(
    argv: Sequence[str] | str, timeout: float, **popen_kwargs
) -> subprocess.CompletedProcess:
    """Like ``subprocess.run(argv, capture_output=True, timeout=timeout)``.

    On timeout (or any interruption) the child's process group is killed
    and reaped before the exception propagates.
    """
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        **popen_kwargs,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
