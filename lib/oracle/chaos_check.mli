(** Chaos gate — the oracle for crash safety, enforced with real
    [SIGKILL]s (the [chaos] gate of {!Gates}).

    Five legs: forked checkpointed sweeps are killed at seeded
    evaluation indices and resumed to byte-identical reports (crossing
    [jobs] between killer and resumer); a journaled daemon is killed
    mid-job and its restart must re-run every write-ahead intent and
    answer an identical resubmit with the reference bytes before
    draining cleanly on [SIGTERM]; and three stores are corrupted at
    seeded offsets (truncations and byte flips) — a cache directory
    must have every damaged entry detected by {!Serve.Cache.scrub}
    (no lookup may ever serve damaged data), a sweep resumed over
    damaged wave records must re-evaluate exactly those waves and
    still render the reference bytes, and every damaged intent must be
    quarantined, never left pending for re-run.

    Children's pids are appended to a [pids] file inside the gate's
    [fxchaos-*] scratch directory so the caller's cleanup trap can
    reap orphans if the gate itself dies. *)

(** Run the gate: one check per killed-and-resumed sweep (named after
    the killed run's and the resumer's [jobs]), four for the daemon
    (intent journaled before the kill, recovery settled every intent,
    recovered report byte-identical, clean [SIGTERM] drain) and one per
    corrupted store.  [jobs] (at least 2, see {!Gates.jobs}) is the
    parallel legs' worker count; [seed] drives every kill point, delay
    and corruption offset.  Forks several children and runs two short
    daemon generations; wall-clock is a few seconds.  The caller must
    be effectively single-threaded (gate processes fork). *)
val run : jobs:int -> seed:int -> Check.t list
