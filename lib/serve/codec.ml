(** The glue binding a {!Cache} into the evaluator's
    {!Refine.Eval.cache} hook.  The payload is
    {!Refine.Eval.encode_metrics}' bit-exact record — the same bytes a
    sweep wave journal embeds — so a warm re-sweep renders a report
    byte-identical to the cold one; a payload that fails to decode is a
    miss, which can cost performance, never correctness. *)

(* Bump on ANY change to what an evaluation computes (or to the metrics
   encoding): the string is folded into every cache key, so old entries
   simply stop being addressable — invalidation without deletion. *)
let evaluator_version = "fxeval/1"

let encode = Refine.Eval.encode_metrics
let decode = Refine.Eval.decode_metrics

let context () = evaluator_version

let eval_cache cache =
  {
    Refine.Eval.context = context ();
    lookup = (fun key -> Option.bind (Cache.lookup cache key) decode);
    insert =
      (fun key m ->
        (* the compiled path never produces counters, but the hook
           stays total: a counter-carrying record is simply not cached *)
        if m.Refine.Eval.counters = None then
          Cache.insert cache key (encode m));
  }
