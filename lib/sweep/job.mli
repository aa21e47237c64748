(** A sweep job — the one description of a sweep request, shared by
    [fxrefine sweep], [fxrefine faultsim], [fxrefine submit] and the
    [serve] daemon ([Serve.Protocol.sweep_params] is this record).

    {!resolve} is the only place a job is checked and turned into a
    workload and a generator, and {!checkpoint_key} the only derivation
    of its wave-journal key, so the CLI and the daemon cannot disagree
    on either.  Running the job stays {!Pool.run}'s business: callers
    add their own cache, checkpoint, drain and fault wiring. *)

type t = {
  workload : string;  (** built-in workload name, e.g. ["fir"] *)
  strategy : string;  (** [grid], [bisect] or [pareto] *)
  f_min : int;
  f_max : int;
  seeds : int;  (** stimulus seeds [0..N-1] *)
  jobs : int;  (** worker domains for this job *)
  budget : int option;  (** cap on evaluated candidates *)
  target_db : float;  (** bisect's SQNR target *)
  timeout_s : float option;  (** wall-clock limit, checked between waves *)
}

(** Every strategy name, in the order the docs list them:
    [["grid"; "bisect"; "pareto"]]. *)
val strategies : string list

(** [resolve ?strategies job] — the job's workload ({!Workload.find})
    and its strategy's generator over [0..seeds-1], or a one-line error
    ["<field>: <problem>"] naming the offending field: an unknown
    [workload], a [strategy] not in [strategies] (default
    {!strategies}), [f_min > f_max], or [seeds], [jobs] or [budget]
    below 1.  Never raises. *)
val resolve :
  ?strategies:string list -> t -> (Workload.t * Generator.t, string) result

(** [checkpoint_key ~context job] — the {!Checkpoint.sweep_key} of
    everything that determines the job's report byte for byte:
    workload, strategy, [context] (the evaluator version), f range,
    seeds, budget and target.  [jobs] and [timeout_s] are left out —
    they affect scheduling and wall-clock, never results — so a job
    resumed at another parallelism still finds its journal. *)
val checkpoint_key : context:string -> t -> string
