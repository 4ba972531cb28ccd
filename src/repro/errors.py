"""Exception hierarchy for the multimedia-server reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to distinguish configuration mistakes from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


class ConfigurationError(ReproError):
    """A server/scheme configuration is internally inconsistent.

    Examples: a cluster size that does not divide the disk count, a
    non-positive track size, or ``k`` not an integer multiple of ``k'``.
    """


class AdmissionError(ReproError):
    """A stream could not be admitted (no capacity under the scheme bound)."""


class LayoutError(ReproError):
    """A block address could not be resolved (object/track out of range)."""


class DiskFailedError(ReproError):
    """A read was issued to a disk that is currently failed.

    Schedulers are expected to consult :attr:`repro.disk.drive.Disk.is_failed`
    and reroute to parity reconstruction; hitting this exception means a
    scheduler bug, so it is deliberately loud.
    """


class MediaReadError(ReproError):
    """A read hit a media (latent-sector) error at one track position.

    Unlike :class:`DiskFailedError` this is *expected* during operation —
    the robust read path catches it and recovers via retry (transient
    glitches) or per-track parity reconstruction (latent sector errors).
    """

    def __init__(self, disk_id: int, position: int,
                 transient: bool) -> None:
        kind = "transient" if transient else "latent"
        super().__init__(
            f"{kind} media error on disk {disk_id} position {position}")
        self.disk_id = disk_id
        self.position = position
        self.transient = transient


class FaultStateError(ReproError):
    """An illegal fault-domain state transition was requested.

    The per-disk state machine only admits
    operational -> degraded -> failed -> rebuilding -> operational edges
    (plus direct fail/repair); e.g. degrading a failed disk is a driver
    bug and is rejected loudly.
    """


class ReconstructionError(ReproError):
    """Parity reconstruction was attempted with insufficient surviving blocks."""


class CatastrophicFailure(ReproError):
    """Two (or more) disks in one parity group failed: data loss.

    The paper (Section 1) defines this as the failure mode requiring a
    rebuild from tertiary storage.
    """


class DegradationOfService(ReproError):
    """Insufficient disk bandwidth/buffer space to keep all streams going.

    Raised (or recorded, depending on the scheduler's policy) when the
    conditions of the paper's "degradation of service" arise, e.g. the
    Improved-bandwidth shift-to-the-right finds no idle capacity.
    """


class BufferExhausted(ReproError):
    """The shared buffer pool has no free buffer server (Non-clustered)."""


class SimulationError(ReproError):
    """Internal discrete-event-simulation invariant violated."""


class SessionError(ReproError, EOFError):
    """A session-pool worker died while it owed a session a reply.

    The message names the session's label, the step it was running and
    the worker's exit code.  It is also an :class:`EOFError` — what the
    dead pipe raised before — so handlers that treat a closed pipe as a
    dead worker keep working.
    """


class SpawnSafetyError(ReproError):
    """A parallel task payload cannot survive the spawn start method.

    Process pools use ``spawn`` (fresh interpreters, no forked state), so
    every task function and callable argument must be picklable: defined
    at module level in an importable module — no lambdas, no closures, no
    ``__main__``-only functions.  Rejecting these at task construction
    keeps ``workers=1`` and ``workers=N`` runs interchangeable.
    """
