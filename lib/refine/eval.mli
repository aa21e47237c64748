(** One-shot candidate evaluation — the inner step of every wordlength
    search, factored out of {!Flow}: apply a per-signal dtype
    assignment, reset, run one stimulus set, read the monitors back.
    This is the entry point the parallel sweep engine drives, once per
    candidate point, on a private design instance. *)

(** The monitor read-back of one evaluation. *)
type metrics = {
  sqnr_db : float option;
      (** {!Flow.sqnr_db} at the probe ([None]: no samples) *)
  total_bits : int;  (** Σ n over all signals with a declared dtype *)
  overflow_count : int;  (** Σ overflow events over all signals *)
  probe_err_max : float;
      (** max |ε_p| at the probe; [0.] without a probe *)
  probe_values : Stats.Running.t option;
      (** copy of the probe's value monitor (mergeable) *)
  probe_err : Stats.Err_stats.t option;
      (** copy of the probe's error monitor (mergeable) *)
  counters : Trace.Counters.t option;
      (** event counters over this evaluation's run (only when requested
          with [~counters:true]; mergeable) *)
}

(** Serialize metrics bit-exactly: every float as a [%h] hex literal,
    the probe monitors through {!Stats.Running.raw} /
    {!Stats.Err_stats.raw}, as the labelled lines [fxmetrics 1],
    [sqnr], [bits], [ovf], [errmax], [pv], [pe].  A decoded record is
    bit-indistinguishable from the computed one, which keeps warm-cache
    and resumed sweep reports byte-identical.  Raises
    [Invalid_argument] on a counter-carrying record (counters are
    per-run observations, not results). *)
val encode_metrics : metrics -> string

(** Strict inverse of {!encode_metrics}; [None] on any deviation (wrong
    header, malformed field, wrong monitor arity). *)
val decode_metrics : string -> metrics option

(** Σ n over the environment's typed signals. *)
val total_bits : Sim.Env.t -> int

(** Σ overflow events over the environment's signals. *)
val overflow_count : Sim.Env.t -> int

(** Retype exactly the named signals.  Raises [Invalid_argument] on an
    unknown name — a sweep candidate names its signals explicitly, so a
    miss is a generator bug, not a partial type definition. *)
val apply_assigns : Sim.Env.t -> (string * Fixpt.Dtype.t) list -> unit

(** [evaluate ~assigns ~probe design] applies [assigns], resets, runs
    once, and gathers {!metrics} (probe resolution as {!Flow.sqnr_db_at}:
    unknown probe raises).  [on_run] is invoked after the simulation —
    callers that count monitored runs (e.g. {!Flow.refine}-style
    drivers) hook their counter here.

    [counters:true] attaches a fresh {!Trace.Counters} sink for exactly
    this evaluation's run (reset-hook initialization included, like the
    env monitors) and returns it in [metrics.counters]; a sink the
    caller had attached is restored afterwards. *)
val evaluate :
  ?assigns:(string * Fixpt.Dtype.t) list ->
  ?probe:string ->
  ?on_run:(unit -> unit) ->
  ?counters:bool ->
  Flow.design ->
  metrics

(** What a workload must provide for its candidates to be evaluated on
    the compiled executor instead of the clock-true simulator. *)
type compiled_eval = {
  extract : unit -> Sfg.Graph.t;
      (** record one cycle of the (just reset, freshly retyped) design
          and return its closed flowgraph — called once per evaluation
          so the candidate's quantizers are fused into the program *)
  cycles : int;  (** stimulus length of one run *)
  stimulus : seed:int -> string -> int -> float;
      (** [stimulus ~seed name step] — the {e same} sample the design's
          own [reset]/[run] pair would feed input node [name] at
          [step] under stimulus seed [seed]; must be pure in all three
          (partial application per seed may precompute) *)
}

(** The hook a content-addressed evaluation cache plugs into
    {!evaluate_compiled}.  The record decouples this library from the
    cache's storage ({!Serve.Cache} provides the standard store): the
    evaluator only computes keys and calls [lookup]/[insert].  A hook
    that raises is degraded to a miss (lookup) or a no-op (insert) — a
    broken cache must never fail an evaluation. *)
type cache = {
  context : string;
      (** caller-pinned disambiguator folded into every key: evaluator
          version, … — bump it to invalidate en masse *)
  lookup : string -> metrics option;
      (** [lookup key] — the previously inserted metrics, if any *)
  insert : string -> metrics -> unit;
      (** [insert key m] — record a freshly computed result *)
}

(** [cache_key ~design ~assigns ~probe ~seed ~cycles ~context] — the
    content address of one compiled evaluation: an MD5 hex digest over
    canonical JSON assembling the extracted graph's
    {!Sfg.Graph.canonical_json} ([design]), the explicit assignment
    list, the probe, the stimulus seed, the run length, and the
    caller's [context] string.  Deterministic across processes and
    runs — equal inputs give equal keys, and any bit-level difference
    in a numeric parameter changes the graph JSON and hence the key. *)
val cache_key :
  design:string ->
  assigns:(string * Fixpt.Dtype.t) list ->
  probe:string option ->
  seed:int ->
  cycles:int ->
  context:string ->
  string

(** {2 Candidate lanes}

    {!evaluate_compiled} in two halves, so that a sweep can run many
    candidates of one design as the lanes of a single compiled program:
    {!prepare} does the per-candidate work on the design instance
    (retype, reset, extract, cache key and lookup), {!evaluate_lanes}
    compiles the prepared graphs into one program and runs it. *)

(** A candidate extracted for compiled evaluation and not yet run. *)
type prepared = private {
  graph : Sfg.Graph.t;
      (** its extracted flowgraph, or, after {!join}, the first lane's
          graph of the same shape *)
  quants : Fixpt.Quantize.compiled array;
      (** its own quantizer table ({!Compile.quantizers}) *)
  seed : int;  (** its stimulus seed *)
  bits : int;  (** {!total_bits} of the retyped environment *)
  key : string option;  (** its cache key, when a cache was given *)
}

(** [join ~first p] — [p] as a lane beside [first]: [Some] [p] re-pointed
    at [first]'s graph when the two graphs are {!Compile.same_shape}
    (only [p]'s quantizer table differs, and [p]'s own graph can be
    collected at once), [None] otherwise. *)
val join : first:prepared -> prepared -> prepared option

(** [prepare ?assigns ?probe ?cache ~seed ce design] applies [assigns],
    resets [design], extracts the candidate's graph and, with a cache,
    computes its key and looks it up: [`Hit m] on a hit, [`Miss p]
    otherwise.  [design] is free for the next candidate as soon as this
    returns.  Raises what extraction raises. *)
val prepare :
  ?assigns:(string * Fixpt.Dtype.t) list ->
  ?probe:string ->
  ?cache:cache ->
  seed:int ->
  compiled_eval ->
  Flow.design ->
  [ `Hit of metrics | `Miss of prepared ]

(** [evaluate_lanes ?probe ?cache ce ps] runs every prepared candidate
    as one lane of a single program ({!Compile.compile_lanes},
    dual-lattice), folds the probe monitors per lane, and returns the
    metrics in order; each is inserted into [cache] under its key.
    Lane [l]'s metrics are bit-identical to {!evaluate_compiled} of
    candidate [l] alone — one-lane evaluation is this function on a
    one-element array.

    Every element must share the first one's graph ({!join}); an
    array that does not, a NaN reaching a cast, or a probe missing from
    the graph raises (an exception for which {!falls_back} holds), and
    nothing is inserted. *)
val evaluate_lanes :
  ?probe:string ->
  ?cache:cache ->
  compiled_eval ->
  prepared array ->
  metrics array

(** Raised by {!evaluate_lanes} when the probe's monitor points are not
    where the recorded assignment pipeline puts them. *)
exception Fallback of string

(** [falls_back e] — [e] is one of the exceptions after which
    {!evaluate_compiled} drops to the interpreter: {!Fallback},
    {!Compile.Cannot_compile}, [Invalid_argument] or [Not_found]. *)
val falls_back : exn -> bool

(** [evaluate_compiled ~assigns ~probe ~seed ce design] — {!evaluate},
    but on the flat-schedule executor: {!prepare}, then
    {!evaluate_lanes} on the one candidate: apply [assigns], reset,
    extract the candidate's graph, compile it (dual-lattice), run
    [ce.cycles] ticks of [ce.stimulus ~seed], and rebuild {!metrics}
    from the program's probe chain and fused overflow counters.

    For a design/probe whose recorded pipeline matches the clock-true
    monitors (no error injection at the probe, saturation annotations
    that never clamp on the run's stimulus), the metrics are
    bit-identical to {!evaluate}'s — the property the sweep determinism
    gate and [test_compile] rely on.

    Falls back to {!evaluate} (interpreted) when the extractor cannot
    close the design, compilation fails, or the probe cannot be located
    in the extracted graph ({!falls_back}).  When {!Trace.Spans}
    collection is on, each fallback records a ["fallback"] span
    (category ["eval"]) whose ["reason"] arg is the printed exception;
    like every span it is outside the determinism contracts.
    [metrics.counters] is always [None]: a counter-attached evaluation
    observes env events the compiled run does not generate, so the pool
    routes [~counters:true] requests to the interpreter.

    [?cache] short-circuits the compile-and-run on a content-address
    hit (see {!cache}); misses are inserted after computing.  The
    interpreter fallback is never cached — its inputs are not captured
    by the key. *)
val evaluate_compiled :
  ?assigns:(string * Fixpt.Dtype.t) list ->
  ?probe:string ->
  ?cache:cache ->
  seed:int ->
  compiled_eval ->
  Flow.design ->
  metrics
