"""Clean checkouts of two revisions, for tools that compare them.

A revision is checked out as a detached `git worktree` under the ignored
`.bench_build/` of the repository, so it has no `__pycache__` and no file
from the working tree. The revision "WORKTREE" names the working tree as
it is now (tracked and staged files), as the commit `git stash create`
records without touching any ref or file; with nothing to record it is
HEAD.
"""

from __future__ import annotations

import contextlib
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
WORKTREE = "WORKTREE"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def resolve(rev: str) -> str:
    """The full commit hash of rev (WORKTREE: the working tree's snapshot commit)."""
    if rev == WORKTREE:
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


@contextlib.contextmanager
def checkout(commit: str, name: str):
    """The path of a fresh worktree of commit at .bench_build/<name>, removed on exit."""
    path = BUILD / name
    shutil.rmtree(path, ignore_errors=True)  # left over from an interrupted run
    git("worktree", "prune")
    BUILD.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", "--force", str(path), commit)
    try:
        yield path
    finally:
        git("worktree", "remove", "--force", str(path))
        git("worktree", "prune")
