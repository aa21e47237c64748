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

(** Steps each equality run simulates (per lane). *)
val steps : int

(** ["equality(B=1/4/64,48 steps)"]: the batch sizes and steps
    {!mismatches} runs, for a report line. *)
val equality_label : string

(** [stimulus plan g] is the sample [stim name lane step] fed to input
    [name]: a {!Fault.Plan.draw} spread over the input node's declared
    interval ([[-1, 1]] when that interval is non-finite, empty or
    wider than 10{^6}).  Pure in its arguments. *)
val stimulus : Fault.Plan.t -> Sfg.Graph.t -> string -> int -> int -> float

(** Node samples (every node, step and lane, at each batch size of
    {!equality_label}) where the compiled executor's bits differ from
    {!Sfg.Graph.simulate} fed the same [stim] (and, when given, the same
    per-lane [fault] function). *)
val mismatches :
  ?fault:(int -> name:string -> step:int -> float -> float) ->
  stim:(string -> int -> int -> float) ->
  Sfg.Graph.t ->
  int

(** Run the gate over every conformance workload: one check per graph,
    source and fault setting, one for the sweep metrics and three for
    the candidate lanes. *)
val run : unit -> Check.t list
