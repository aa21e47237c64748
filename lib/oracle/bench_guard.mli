(** Throughput regression guard: re-measures the bench rows of
    [bench/main.ml] and compares them against the committed baselines,
    one guard per [BENCH_*.json] file — the dual-simulation rows of
    [simbench] ([BENCH_sim.json]) and [syncbench] ([BENCH_sync.json]),
    the compiled-executor rows of [compilebench] ([BENCH_compile.json])
    and the verification rows of [verifybench] ([BENCH_verify.json]).

    Timing is inherently machine- and load-dependent, so this guard is
    deliberately {e not} part of [dune runtest]; it runs inside
    [fxrefine check] (skippable with [--no-bench]) and fails only on a
    drastic regression — measured throughput below 0.8× baseline.  Every reported figure is the {e median of three}
    independently timed measurements, since load noise only ever slows
    a run down — a single preempted sample must not fail the gate. *)

type entry = {
  bench : string;
  samples_per_run : int;
  baseline : float;  (** the baseline file's [after] figure *)
  measured : float;
  ratio : float;  (** measured / baseline *)
}

type report = {
  title : string;  (** e.g. ["compiled bench guard"] *)
  entries : entry list;
  note : string option;  (** set when the guard was skipped *)
}

(** One measured row.  [prepare ()] builds the row's design once and
    returns one timed measurement: one warm-up run, then whole-run
    repetitions for [budget] seconds of CPU time, as
    [(work units per run, units/sec)]. *)
type row = {
  name : string;  (** the baseline key in the guard's file *)
  scenario : string;
      (** the design measured: a {!Scenario.names} entry, or a pinned
          {!Verify.Designs} exemplar *)
  prepare : unit -> budget:float -> int * float;
}

type guard = {
  gate : string;  (** the [check] gate name *)
  title : string;
  file : string;  (** the committed baseline file *)
  rows : row list;
}

(** Extract [(name, after)] pairs from a baseline JSON (naive string
    scan; the files are machine-written by [bench/main.ml]). *)
val parse_baselines : string -> (string * float) list

(** Samples/sec of [budget] seconds of whole [reset]+[run] repetitions
    after one warm-up run. *)
val measure :
  budget:float -> Refine.Flow.design -> samples_per_run:int -> float

(** The [simbench] designs as [(row name, scenario, build)]: the LMS
    equalizer at 4000 symbols and the timing-recovery loop at 8000
    samples, both from {!Scenario}. *)
val sim_designs :
  (string * string * (unit -> Refine.Flow.design * int)) list

(** [BENCH_sim.json]: {!sim_designs}. *)
val sim : guard

(** [BENCH_compile.json]: the extracted lms and timing flowgraphs on the
    flat-schedule executor at batch 1 and 64; throughput counts
    lane-samples (steps × batch). *)
val compiled : guard

(** [BENCH_verify.json]: one whole verification run per repetition —
    the exhaustive biquad no-overflow proof and the bounded lms
    limit-cycle closure — in transitions/sec. *)
val verify : guard

(** [BENCH_sync.json]: the closed ML-TED 4-PAM and Gardner 2-PAM loops
    ({!Scenario.sync}, 4000 symbols) in samples/sec. *)
val sync : guard

(** Median-of-three measurement of every row, as
    [(name, units_per_run, units_per_sec)] — what the bench harness
    records. *)
val measure_rows :
  budget_seconds:float -> guard -> (string * int * float) list

(** Measure the rows present in the guard's baseline file (budget 0.5 s
    per measurement) and compare.  A missing or unparseable baseline
    file yields an empty, passing report with [note] set. *)
val run : guard -> report

(** An empty, passing report with [note] set. *)
val skipped : guard -> string -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
