"""Revisioned function handles.

The paper's central maintenance contract is that a liveness answer is
only as fresh as the last edit notification; a server that hands raw
function names around cannot *enforce* that contract — a client holding
results derived from revision 3 could silently keep querying after a
CFG edit produced revision 4.  A :class:`FunctionHandle` makes the
contract checkable: the service mints ``(name, revision)`` pairs, bumps
the revision on every ``notify_*`` edit (and on mutating passes such as
out-of-SSA translation), and rejects requests carrying a stale revision
with a ``STALE_HANDLE`` error instead of a silently-wrong answer.

Cache geometry is deliberately invisible here: evicting and rebuilding a
checker reproduces the same answers, so LRU eviction does **not** bump
the revision — handles stay valid across eviction.

Thread-safety contract: a :class:`FunctionHandle` is a frozen value
object — share it freely across threads.  Under the concurrent serving
layer (:mod:`repro.concurrent`) revisions are bumped only while the
owning shard's write lock is held and validated under the read lock, so
the handle is the synchronization currency: a request either observes
the pre-edit function at the pre-edit revision or fails with
``STALE_HANDLE`` — never a half-applied edit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FunctionHandle:
    """A name plus the edit revision it was minted at.

    ``revision=None`` addresses "whatever the current revision is" — the
    unversioned escape hatch for clients that do not care about edit
    races (it can never be stale).
    """

    name: str
    revision: int | None = None

    @property
    def versioned(self) -> bool:
        """Whether this handle pins a specific revision."""
        return self.revision is not None

    def __str__(self) -> str:
        suffix = "" if self.revision is None else f"@r{self.revision}"
        return f"{self.name}{suffix}"
