(** Cache payloads for evaluation results, plus the binding of a
    {!Cache} into the evaluator's {!Refine.Eval.cache} hook.

    The payload is {!Refine.Eval.encode_metrics}' bit-exact record, so
    a decoded hit is bit-indistinguishable from the freshly computed
    metrics — the property that keeps warm re-sweep reports
    byte-identical to cold ones (the serve gate's contract). *)

(** Version string folded into every cache key via {!context}.  Bump it
    whenever evaluation semantics or the metrics encoding change: old
    entries stop being addressable — invalidation without deletion. *)
val evaluator_version : string

(** {!Refine.Eval.encode_metrics}. *)
val encode : Refine.Eval.metrics -> string

(** {!Refine.Eval.decode_metrics}: [None] (a miss) on any deviation. *)
val decode : string -> Refine.Eval.metrics option

(** The key context of an evaluation: {!evaluator_version}.  Faulted
    sweeps never take the compiled or cached path, so no fault plan
    enters a key. *)
val context : unit -> string

(** [eval_cache cache] — bind [cache] into the hook
    {!Refine.Eval.evaluate_compiled} and {!Sweep.Pool.run} accept:
    lookups decode, inserts encode, and the context pins
    {!evaluator_version} into every key.  Domain-safe, like {!Cache}
    itself. *)
val eval_cache : Cache.t -> Refine.Eval.cache
