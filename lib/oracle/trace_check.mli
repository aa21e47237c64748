(** Trace-determinism gate: per sweep strategy, (1) counters JSON at
    [jobs=1] vs [jobs=N] must be byte-identical, and (2) attaching the
    counting sink must leave the ordinary sweep report byte-identical
    (observer neutrality).  Wired into [fxrefine check]. *)

type result = {
  strategy : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;
  counters_identical : bool;
      (** counters JSON at jobs=1 vs jobs=N byte-equal *)
  observer_neutral : bool;
      (** report JSON with vs without counters byte-equal *)
}

type report = { results : result list }

(** The {!Sweep_check} rows the gate replays (grid, bisect, pareto). *)
val strategies : string list

(** Run the gate at [jobs=1] vs [jobs] (at least 2 — comparing jobs=1
    against itself would prove nothing; see {!Gates.jobs}). *)
val run : jobs:int -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
