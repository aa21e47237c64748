(** Trace-determinism gate: per sweep strategy, (1) counters JSON at
    [jobs=1] vs [jobs=N] must be byte-identical, and (2) attaching the
    counting sink must leave the ordinary sweep report byte-identical
    (observer neutrality).  Wired into [fxrefine check]. *)

(** The {!Sweep_check} rows the gate replays (grid, bisect, pareto). *)
val strategies : string list

(** Run the gate at [jobs=1] vs [jobs] (at least 2 — comparing jobs=1
    against itself would prove nothing; see {!Gates.jobs}): per
    strategy, a [<strategy>/counters] and a [<strategy>/observer]
    check. *)
val run : jobs:int -> Check.t list
