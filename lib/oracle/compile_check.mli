(** Compiled-executor gate — the differential oracle for {!Compile}.

    The flat-schedule executor earns its speed only if it is
    {e indistinguishable} from the reference interpreter.  This gate
    runs compiled-vs-interpreted byte-equality (every node, every step,
    every lane) over the flowgraphs of the conformance workloads (all six) —
    both the freshly {e extracted} graph and, where a block has one, the
    hand-written {e analytic} twin — at batch sizes 1, 4 and 64, with
    and without a deterministic fault plan replayed into both executors.
    A final check asserts that the sweep's compiled candidate evaluation
    ({!Refine.Eval.evaluate_compiled}) reproduces the clock-true
    interpreter's metrics bit-for-bit on the FIR sweep workload.  The
    candidate-lane checks pack four FIR candidates with different
    dtypes (f = 2, 6, 10 saturating and one overflowing wrap set) into
    one {!Compile.compile_lanes} program: every lane's metrics
    ({!Refine.Eval.evaluate_lanes}) must equal one-lane
    {!Refine.Eval.evaluate_compiled} and the interpreter, and every
    lane's node traces must equal its own graph's interpreter run, with
    and without the fault plan.

    The [compiled] gate of {!Gates}. *)

type result = {
  name : string;
  detail : string;  (** human-readable evidence line *)
  ok : bool;
}

type report = { results : result list }

(** Steps each equality run simulates (per lane). *)
val steps : int

(** Run the gate over every conformance workload. *)
val run : unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
