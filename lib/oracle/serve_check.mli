(** Cache-transparency gate — oracle for the content-addressed
    evaluation cache and the serve daemon.

    Runs the [grid] row of {!Sweep_check} four ways (no cache, cold
    persistent cache, warm cache over the same directory, warm cache at
    [jobs=N]) and holds every canonical JSON report to byte equality;
    the warm run must additionally answer {e every} candidate from the
    persisted entries.  A real daemon round trip (ping → sweep → stats
    → shutdown over a Unix socket) must return the byte-identical
    report of the same job run locally.  The [serve] gate of
    {!Gates}. *)

(** Run the gate with [jobs] (at least 2, see {!Gates.jobs}) on the
    parallel warm side, in a scratch directory under the system temp
    dir (removed afterwards) holding the cache and the daemon socket.
    Checks: [cold-transparent], [warm-identical], [jobs-identical],
    [warm-hits], [daemon/round-trip] and [daemon/report].  The daemon
    is always sent its shutdown, so a failed exchange fails a check
    instead of leaving the daemon thread running. *)
val run : jobs:int -> Check.t list
