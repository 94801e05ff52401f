"""A study's replications on forked processes.

`fan_out` cuts the replications into contiguous spans, one per process, and
forks every process once, before anything is simulated; each runs its span
end to end, and the results come back in replication order. This is the
only module that forks, pickles or formats a traceback: a child's results,
warnings and exception cross a pipe, and no child outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import traceback
import warnings

from .errors import DynvolError


def _cpus() -> int:
    """CPUs a study may run its replications on: those this process may
    run on, or 1 where the platform does not say (macOS and Windows have
    no sched_getaffinity), where the process runs more than one thread, or
    where it is a daemonic multiprocessing worker, which may not start
    processes. A fork copies only the thread that calls it, so a lock
    another thread holds stays held in the child for good, and Python 3.12
    warns of it. numpy's OpenBLAS starts a thread per CPU unless
    OPENBLAS_NUM_THREADS is 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (affinity is None or _threads() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return len(affinity(0))


def _threads() -> int:
    """Threads of this process, native ones included where /proc lists
    them, else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked process."""


def _child(work, span: range, sink) -> None:
    """Target of a forked process: send [list(work(span)), None, warnings]
    through sink or, when work raises, [None, (exception, "<ExceptionClass>:
    <message>", traceback text), warnings], the exception None when it
    cannot cross a pickle. warnings are (message, filename, lineno) of each
    warning work issued."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            msg = [list(work(span)), None]
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = None
            msg = [None, (exc, error, tb)]
    sink.send(msg + [[(w.message, w.filename, w.lineno) for w in caught]])


def _rewarn(caught) -> None:
    """Issue warnings a forked process recorded as if they were issued here,
    against the registry of the module they point at, so that one shown
    once per place is shown once per study however many processes ran."""
    files = {getattr(m, "__file__", None): m
             for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        mod = files.get(filename)
        warnings.warn_explicit(
            message, type(message), filename, lineno,
            module=getattr(mod, "__name__", None),
            registry=(None if mod is None
                      else vars(mod).setdefault("__warningregistry__", {})))


def _named(span: range) -> str:
    """"replication i" or "replications i-j", naming span in messages."""
    return (f"replication {span[0]}" if len(span) == 1
            else f"replications {span[0]}-{span[-1]}")


def fan_out(work, n: int, n_proc: int):
    """Generate the results of work(range(n)) in order, range(n) cut into
    n_proc contiguous spans: a child forked up front runs work on each span
    but the first, which this process runs, its results yielded as they
    come; then each child's results are read and yielded in turn, with the
    warnings it recorded. work(span) is an iterable of span's results. An
    exception a child's work raises is raised here, its cause the child's
    traceback; a child that ends without sending its results raises
    DynvolError. No child outlives the generator, once it is exhausted or
    closed.

    Fork, not spawn: the children inherit work and what it reads, where a
    spawned one would import dynvol afresh, 65 ms on a 2-core Xeon VM,
    longer than a 4-replication CIR study on one process, and would need
    work pickled. Not a ProcessPoolExecutor, whose queue thread would make
    every fork after the first one from a threaded process, and whose
    broken pool fails every pending span without naming the one whose
    process died or how."""
    cuts = [n * k // n_proc for k in range(n_proc + 1)]
    children = []  # (process, read end, span) of each child
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            # only here: Windows, where n_proc is 1, has no fork context
            fork = multiprocessing.get_context("fork")
            source, sink = fork.Pipe(duplex=False)
            child = fork.Process(target=_child, daemon=True,
                                 args=(work, range(a, b), sink))
            children.append((child, source, range(a, b)))
            try:
                child.start()
            finally:
                sink.close()
        yield from work(range(cuts[1]))
        for child, source, span in children:
            try:
                results, error, caught = source.recv()
            except EOFError:
                child.join()
                code = child.exitcode
                how = (f"exited with status {code}" if code >= 0
                       else f"was killed by signal {-code}")
                raise DynvolError(f"the process walking {_named(span)} {how} "
                                  f"before it sent the results") from None
            _rewarn(caught)
            if error is not None:
                exc, text, tb = error
                if exc is None:
                    exc = RuntimeError(f"the walk of {_named(span)} raised "
                                       f"{text}, which cannot be pickled")
                raise exc from _ChildTraceback(tb)
            yield from results
    finally:
        for child, source, _ in children:
            source.close()
            if child.pid is not None:
                child.kill()
                child.join()
