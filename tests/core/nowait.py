"""Test helper: drive a model operation's ``*_nowait`` face as a process.

The model calls only the ``*_nowait`` faces: each returns ``None`` when
the operation completed in place, or a generator to ``yield from`` for
the part that needs the event loop.  :func:`as_process` wraps one call
into a generator, so a test can ``yield from`` it inside a process or
hand it to ``Simulation.process``; the face runs when the generator is
first advanced, exactly where a process would have reached it.

The model has no generator twins of these faces to fall back on: the
architectures' object accesses, the lock managers' acquire/release
sweeps, the network's ``transfer_nowait`` and the cluster's
``serve_page_nowait`` are each the only body of their operation, so a
test reaches them here or not at all.  Admission is a plain command
pair (``yield locks.admission_request`` / ``admission_release``).
"""


def as_process(face, *args):
    step = face(*args)
    if step is not None:
        yield from step
