(** Sweep-determinism gate — oracle for the parallel exploration
    engine.

    Runs a table of small sweeps — a (label, workload, generator) row
    each — at [jobs=1] and [jobs=N] and compares the canonical JSON
    reports byte-for-byte; any scheduling dependence (order-sensitive
    merging, shared worker state) fails the gate. *)

(** [sweep ~jobs label] runs the row [label] once — the FIR workload
    under [grid], [grid-63] (a 63-candidate grid, not a multiple of
    {!Sweep.Pool.lane_width}), [bisect] or [pareto], or the closed
    synchronizer under a small grid ([sync]: [n_symbols] 48, f 6–8,
    seeds 0 and 1) — through the counting sink when [counters] and the
    evaluation cache when [cache].  Raises [Invalid_argument] on an
    unknown label. *)
val sweep :
  jobs:int ->
  ?counters:bool ->
  ?cache:Refine.Eval.cache ->
  string ->
  Sweep.Report.t

(** Run every row at [jobs=1] and at [jobs] (at least 2, see
    {!Gates.jobs}): one check per row, named after it, passing when the
    two JSON reports are byte-identical. *)
val run : jobs:int -> Check.t list
