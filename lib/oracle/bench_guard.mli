(** Throughput regression guard: re-measures the bench rows and compares
    them against the committed baselines, one guard per baseline file —
    the dual-simulation rows ({!sim}, {!sync}), the compiled-executor
    rows ({!compiled}) and the verification rows ({!verify}).  This
    module is the one writer ({!record}, [bench/main.exe simbench] and
    friends) and the one reader ({!read}) of those files.

    A baseline file is one flat JSON object: the guard's [unit]
    under ["unit"], then one figure per row, keyed by row name, in the
    guard's row order:
    {[
      {
        "unit": "samples/sec",
        "lms-equalizer": 547978,
        "timing-recovery": 287300
      }
    ]}

    Timing is inherently machine- and load-dependent, so this guard is
    deliberately {e not} part of [dune runtest]; it runs inside
    [fxrefine check] (skippable with [--no-bench]) and fails only on a
    drastic regression — measured throughput below 0.8× baseline.  Every reported figure is the {e median of three}
    independently timed measurements, since load noise only ever slows
    a run down — a single preempted sample must not fail the gate. *)

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
  unit : string;  (** what a figure counts, e.g. ["samples/sec"] *)
  rows : row list;
}

(** The LMS equalizer at 4000 symbols and the timing-recovery loop at
    8000 samples ({!Scenario}), in samples/sec. *)
val sim : guard

(** The extracted lms and timing flowgraphs on the flat-schedule
    executor at batch 1 and 64, in lane-samples/sec (steps × batch). *)
val compiled : guard

(** [compiled_throughput prog ~steps ~budget] is the lane-samples/sec
    of [prog] over [steps] ticks of a fixed sine stimulus: one warm-up
    run, then whole runs for [budget] seconds of CPU time (the
    {!compiled} rows' measurement). *)
val compiled_throughput : Compile.t -> steps:int -> budget:float -> float

(** One whole verification run per repetition — the exhaustive biquad
    no-overflow proof and the bounded lms limit-cycle closure — in
    transitions/sec. *)
val verify : guard

(** The closed ML-TED 4-PAM and Gardner 2-PAM loops ({!Scenario.sync},
    4000 symbols) in samples/sec. *)
val sync : guard

(** Render a baseline file from [(row, figure)] pairs, in the order
    given. *)
val write : guard -> (string * float) list -> string

(** Parse a baseline file's text into [(row, figure)] for every row of
    the guard, in the guard's order.  [Error], naming the file and the
    row, when the text is not a flat JSON object, its ["unit"] is not
    the guard's, a guarded row is missing or not a positive number, or a
    row is not guarded. *)
val read : guard -> string -> ((string * float) list, string) result

(** Measure every row (median of three at a 1 s budget), print each
    with the guard's unit, and rewrite the guard's file (relative to the
    working directory) with the figures rounded to whole units. *)
val record : guard -> unit

(** Read the guard's baseline file, then measure every row (budget 0.5 s
    per measurement) and {!score} it.  A missing file yields one passing
    check, named after the file, that says the guard was skipped; a
    file that does not {!read} yields one failing check carrying the
    error, before any measurement. *)
val run : guard -> Check.t list

(** One check per measured [(row, units/sec)] figure against its
    [(row, baseline)] pair (every measured row must have a baseline):
    named after the row, printing both figures in the guard's unit, and
    failing below 0.8× the baseline. *)
val score :
  guard -> (string * float) list -> (string * float) list -> Check.t list
