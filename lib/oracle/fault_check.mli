(** Fault-injection gate — oracle for the resilience layer.

    Checks that fault schedules replay exactly ([(seed, plan)] pure),
    that a faulted FIR sweep quarantines deterministically and renders
    byte-identical partial reports at [jobs=1] vs [jobs=N], and that
    the [Collect] overflow policy degrades gracefully (run completes,
    faults recorded).  The [faults] gate of {!Gates}. *)

(** The canonical crash-mode gate plan (seed 42, bitflips + forced
    overflows under {!Fault.Plan.Force_raise}). *)
val plan : unit -> Fault.Plan.t

(** Run the gate; [jobs] (at least 2, see {!Gates.jobs}) is the
    parallel side of the quarantine comparison. *)
val run : jobs:int -> Check.t list
