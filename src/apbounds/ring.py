"""Turns taken in rotation by forked processes, in order, round a ring of pipes.

A job of n turns (a stream's chunks of report text, a scan's sieve blocks)
runs on R = min(usable CPUs, n) processes (`ranks`).  This process is
rank 0 and R - 1 forked children are ranks 1 to R - 1; rank r takes the
turns t = r (mod R).  Each rank does the part of a turn that needs nothing
from the turns before it (formatting a chunk's lines, striking a block),
then waits for the token of turn t from rank r - 1 (not at turn 0), does
the part that must follow turn t - 1 (writing the lines, feeding the
block's primes to the rows), and hands the token to rank r + 1 (not after
the last turn).  A token is one marker byte, then the payload's length
and the payload: empty for a stream, the rows' carried state for a scan.
Each child pickles the results of its turns into its own pipe and ends
with `os._exit`; rank 0 merges them in turn order, so what the job
returns does not depend on R.

Fail closed: a missing turn never reads as done.  Each process closes
the pipe ends it does not use, so a dead rank reads as EOF or a closed
pipe.  Rank 0 raises on EOF where it waits for a token, on a closed pipe
where it passes one, on a result list of the wrong length and on a
nonzero child status.  An exception in rank 0 kills (SIGKILL) and reaps
every child, and a failing child prints its exception and ends with
`os._exit(1)`, without flushing the buffers it inherited.  No child
outlives `run`.  R = 1 (one turn, one usable CPU, or no fork) runs the
same loop in this process, with no fork, no pipes and no token.
"""
from __future__ import annotations

import os
import pickle
import sys

__all__ = ["Baton", "ranks", "run", "usable_cpus"]

# the byte that opens every token
_MARK = b"."
_LENGTH = 8  # bytes of the payload length that follows the mark
# SIGKILL, which takes no import of the signal module (9 on every Linux
# architecture; a ring is only run on Linux)
_SIGKILL = 9


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset`
    narrows (Python 3.13+ reads it through os.process_cpu_count)."""
    count = getattr(os, "process_cpu_count", None)
    return (count() if count else len(os.sched_getaffinity(0))) or 1


def ranks(n_turns: int) -> int:
    """Processes for a job of `n_turns` turns: one per usable CPU and at
    most one per turn; 1 unless this is Linux and os.fork exists."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), n_turns))


def _read(fd: int, n: int, t: int) -> bytes:
    """Exactly n bytes from `fd`; RuntimeError on EOF before them."""
    parts = []
    while n:
        got = os.read(fd, n)
        if not got:
            raise RuntimeError(f"turn {t}: the rank before it ended "
                               f"without passing the token")
        parts.append(got)
        n -= len(got)
    return b"".join(parts)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Baton:
    """One rank's two ends of the ring: `take(t)` waits for the token of
    turn t and returns its payload, `give(t, payload)` hands the token on
    after turn t.  Without ends (R = 1) no token passes: `take` returns
    None and `give` does nothing; turn 0 takes no token either, and the
    last turn gives none."""

    def __init__(self, n_turns: int, wait: int | None = None,
                 done: int | None = None) -> None:
        self.n_turns, self.wait, self.done = n_turns, wait, done

    def take(self, t: int) -> bytes | None:
        if not t or self.wait is None:
            return None
        head = _read(self.wait, 1 + _LENGTH, t)
        if head[:1] != _MARK:
            raise RuntimeError(f"turn {t}: a malformed token")
        return _read(self.wait, int.from_bytes(head[1:], "little"), t)

    def give(self, t: int, payload: bytes = b"") -> None:
        if t + 1 < self.n_turns and self.done is not None:
            _write(self.done, _MARK + len(payload).to_bytes(_LENGTH, "little")
                   + payload)


def run(n_turns: int, work) -> list:
    """The results of the job's turns, in turn order.

    `work(rank, ranks, baton)` takes the turns rank, rank + ranks, ..
    in order, waiting with `baton.take(t)` and handing on with
    `baton.give(t, payload)`, and returns (or yields) one picklable result
    per turn.  Whatever this process has buffered for a file it shares
    with the children must be flushed before the call; stdout and stderr
    are flushed here.
    """
    n = ranks(n_turns)
    if n == 1:
        return _checked(0, 1, n_turns, list(work(0, 1, Baton(n_turns))))
    # nothing buffered before the fork may be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    # rank r writes tokens[r], which rank r + 1 (mod R) reads; child r
    # writes its results to results[r]
    tokens = [os.pipe() for _ in range(n)]
    results = {r: os.pipe() for r in range(1, n)}
    fds = {fd for pair in tokens + list(results.values()) for fd in pair}
    pids = []
    try:
        for rank in range(1, n):
            pid = os.fork()
            if pid == 0:  # rank `rank`: its turns, then their results
                code = 1
                try:
                    wait, done, out = (tokens[rank - 1][0], tokens[rank][1],
                                       results[rank][1])
                    for fd in fds - {wait, done, out}:
                        os.close(fd)
                    _write(out, pickle.dumps(list(work(
                        rank, n, Baton(n_turns, wait, done)))))
                    code = 0
                except BaseException:  # EOF on `wait` included
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:  # buffers inherited from rank 0 stay unwritten
                    os._exit(code)
            pids.append(pid)
        keep = {tokens[-1][0], tokens[0][1]} \
            | {pair[0] for pair in results.values()}
        for fd in fds - keep:
            os.close(fd)
        fds = keep
        per_rank = [_checked(0, n, n_turns, list(work(
            0, n, Baton(n_turns, tokens[-1][0], tokens[0][1]))))]
        for rank in range(1, n):
            with open(results[rank][0], "rb", closefd=False) as pipe:
                data = pipe.read()  # up to EOF: the child has ended
            per_rank.append(_checked(rank, n, n_turns,
                                     pickle.loads(data) if data else []))
    except BaseException:
        for pid in pids:  # none of them may outlive a failed run
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    if any(codes):
        raise RuntimeError(f"a rank of the ring failed: exit codes {codes}")
    return [per_rank[t % n][t // n] for t in range(n_turns)]


def _checked(rank: int, n: int, n_turns: int, got: list) -> list:
    if len(got) != len(range(rank, n_turns, n)):
        raise RuntimeError(f"rank {rank} sent the results of {len(got)} of "
                           f"its {len(range(rank, n_turns, n))} turns")
    return got
