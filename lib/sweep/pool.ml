(** The parallel evaluation pool — wordlength exploration across
    domains (OCaml 5 [Domain], no external dependency).

    The pool runs the generator's wave protocol: each wave's candidates
    are independent, so they are distributed over [jobs] worker domains
    pulling units of work from an atomic counter — a chunk of up to
    {!lane_width} compiled candidates evaluated as the lanes of one
    program, or a single interpreted candidate.  Worker [i] owns a
    private workload instance, created lazily inside its first domain and
    reused across waves — worker 0 is the calling domain, the others
    are spawned per wave and joined before the next, so the hand-off is
    race-free by happens-before.

    Determinism: a candidate's metrics are a pure function of
    (baseline snapshot, candidate), whichever chunk and lane it ran in
    (lane metrics are bit-identical to one-lane ones); results land in
    a slot indexed by wave position, and the report folds them in
    candidate-id order — so the output is byte-identical for any
    [jobs], which the oracle's sweep gate checks. *)

type progress = { wave : int; evaluated : int; total_so_far : int }

(** A worker domain died outside the per-candidate containment (e.g.
    instance construction failed).  Raised only after {e every} domain
    of the wave has been joined, so no domain is left running and no
    result slot is silently unclaimed. *)
exception Worker_failure of { worker : int; candidate : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Worker_failure { worker; candidate; exn } ->
        Some
          (Printf.sprintf
             "Sweep.Pool.Worker_failure: worker %d died on candidate %d: %s"
             worker candidate (Printexc.to_string exn))
    | _ -> None)

(* Restore the baseline, point the stimulus at the candidate's seed,
   and evaluate — the only path by which candidates touch an env.
   [tid] is the worker-domain lane of the optional wall-clock span. *)
let eval_candidate ?cache ~counters ~tid (workload : Workload.t)
    (inst : Workload.instance) (c : Candidate.t) =
  let spanned = Trace.Spans.enabled () in
  let t0 = if spanned then Trace.Spans.now () else 0.0 in
  Sim.Env.restore_into inst.baseline inst.env;
  inst.set_seed c.Candidate.stim_seed;
  let metrics =
    (* compiled fast path when the workload supports it; a counter
       sweep stays interpreted — counters observe env assignment events
       the compiled run does not generate *)
    match inst.Workload.compiled with
    | Some ce when not counters ->
        Refine.Eval.evaluate_compiled
          ~assigns:(Candidate.to_dtypes c)
          ~probe:workload.Workload.probe ?cache ~seed:c.Candidate.stim_seed
          ce inst.Workload.design
    | _ ->
        Refine.Eval.evaluate ~counters
          ~assigns:(Candidate.to_dtypes c)
          ~probe:workload.Workload.probe inst.Workload.design
  in
  if spanned then
    Trace.Spans.record ~cat:"sweep" ~tid
      ~name:(Printf.sprintf "candidate %d" c.Candidate.id)
      ~args:
        [
          ("seed", string_of_int c.Candidate.stim_seed);
          ("total_bits", string_of_int (Candidate.total_bits c));
        ]
      ~t0 ~t1:(Trace.Spans.now ()) ();
  (c, metrics)

let instance_of (workload : Workload.t) instances i =
  match instances.(i) with
  | Some inst -> inst
  | None ->
      let inst = workload.Workload.make_instance () in
      instances.(i) <- Some inst;
      inst

(* Per-candidate containment: one evaluation attempt, retried once on a
   {e fresh} instance (the first failure may have corrupted the
   worker's private env in ways the baseline restore cannot undo — the
   replacement also protects every later candidate on this worker).  A
   persistent failure is quarantined as an [Error] carrying the printed
   exception and the attempt count — a pure function of (baseline,
   candidate), so the quarantine list is identical for any [jobs]. *)
let eval_candidate_contained ?cache ~counters ~tid (workload : Workload.t)
    instances wi (c : Candidate.t) =
  let inst = instance_of workload instances wi in
  match eval_candidate ?cache ~counters ~tid workload inst c with
  | (_, m) -> (c, Ok m)
  | exception _first ->
      let fresh = workload.Workload.make_instance () in
      instances.(wi) <- Some fresh;
      (match eval_candidate ?cache ~counters ~tid workload fresh c with
      | (_, m) -> (c, Ok m)
      | exception exn2 -> (c, Error (Printexc.to_string exn2, 2)))

(* --- candidate lanes ------------------------------------------------------ *)

let lane_width = 32

(* Candidates per chunk on the compiled path: at most [lane_width], and
   small enough that a short wave still gives every worker a chunk. *)
let chunk_size ~jobs len = max 1 (min lane_width ((len + jobs - 1) / jobs))

type slot =
  | Done of (Refine.Eval.metrics, string * int) result
  | Lane of Refine.Eval.prepared
  | Single  (** evaluate alone, through the per-candidate containment *)

(* A chunk of compiled candidates on worker [wi]: prepare each one on
   the worker's instance (a cache hit is done there), run the misses
   that share the first miss's shape as the lanes of one program, and
   send everything else — a different shape, a preparation or chunk
   that raised — through {!eval_candidate_contained}, which re-evaluates
   it from the baseline exactly as an unbatched sweep would.  Lane
   metrics are bit-identical to one-lane metrics, so the outcomes do
   not depend on how candidates were chunked. *)
let eval_chunk ?cache ~tid (workload : Workload.t) instances wi
    (cs : Candidate.t array) =
  let spanned = Trace.Spans.enabled () in
  let t0 = if spanned then Trace.Spans.now () else 0.0 in
  let probe = workload.Workload.probe in
  (* the first miss fixes the chunk's shape; each later one joins it
     (dropping its own graph) or is evaluated alone *)
  let first = ref None in
  let join ce p =
    match !first with
    | None ->
        first := Some (ce, p);
        Lane p
    | Some (_, first) -> (
        match Refine.Eval.join ~first p with Some p -> Lane p | None -> Single)
  in
  let slots =
    Array.map
      (fun (c : Candidate.t) ->
        let inst = instance_of workload instances wi in
        match inst.Workload.compiled with
        | None -> Single
        | Some ce -> (
            Sim.Env.restore_into inst.Workload.baseline inst.Workload.env;
            inst.Workload.set_seed c.Candidate.stim_seed;
            match
              Refine.Eval.prepare
                ~assigns:(Candidate.to_dtypes c)
                ~probe ?cache ~seed:c.Candidate.stim_seed ce
                inst.Workload.design
            with
            | `Hit m -> Done (Ok m)
            | `Miss p -> join ce p
            | exception e ->
                (* the interpreter fallbacks leave the instance usable;
                   anything else may have corrupted it, so the chunk's
                   later candidates get a fresh one *)
                if not (Refine.Eval.falls_back e) then
                  instances.(wi) <- Some (workload.Workload.make_instance ());
                Single))
      cs
  in
  let lanes =
    List.filter_map
      (fun i -> match slots.(i) with Lane p -> Some (i, p) | _ -> None)
      (List.init (Array.length cs) Fun.id)
  in
  (match !first with
  | None -> ()
  | Some (ce, _) -> (
      match
        Refine.Eval.evaluate_lanes ~probe ?cache ce
          (Array.of_list (List.map snd lanes))
      with
      | ms -> List.iteri (fun j (i, _) -> slots.(i) <- Done (Ok ms.(j))) lanes
      | exception _ -> List.iter (fun (i, _) -> slots.(i) <- Single) lanes));
  if spanned then
    Trace.Spans.record ~cat:"sweep" ~tid
      ~name:
        (Printf.sprintf "candidates %d..%d" cs.(0).Candidate.id
           cs.(Array.length cs - 1).Candidate.id)
      ~args:[ ("lanes", string_of_int (List.length lanes)) ]
      ~t0 ~t1:(Trace.Spans.now ()) ();
  Array.to_list
    (Array.mapi
       (fun i c ->
         match slots.(i) with
         | Done r -> (c, r)
         | Lane _ | Single ->
             eval_candidate_contained ?cache ~counters:false ~tid workload
               instances wi c)
       cs)

(* The wave's units of work: chunks of compiled candidates, or single
   interpreted ones (counter sweeps, workloads without a compiled path)
   so that long candidates still spread evenly over the workers. *)
let units ~jobs ~batched wave_arr =
  let len = Array.length wave_arr in
  let size = if batched then chunk_size ~jobs len else 1 in
  Array.init ((len + size - 1) / size) (fun u ->
      Array.sub wave_arr (u * size) (min size (len - (u * size))))

let eval_unit ?cache ~counters ~batched ~tid workload instances wi cs =
  if batched then eval_chunk ?cache ~tid workload instances wi cs
  else
    List.map
      (eval_candidate_contained ?cache ~counters ~tid workload instances wi)
      (Array.to_list cs)

(* One wave, [nw] workers (the calling domain and [nw - 1] spawned ones)
   pulling units from a shared atomic cursor — at [jobs = 1] no domain
   is spawned and the calling domain runs every unit;
   results land by unit index so completion order is irrelevant.  A
   domain that dies outside the per-candidate containment parks its
   exception (and the first candidate id of its unit); every domain is
   joined before anything re-raises — no abandoned domains, no
   unclaimed slots. *)
let eval_units ?cache workload instances ~jobs ~counters ~batched units =
  let len = Array.length units in
  let results = Array.make len None in
  let cursor = Atomic.make 0 in
  let nw = min jobs len in
  let worker_err = Array.make nw None in
  let worker wi () =
    let rec pull () =
      let k = Atomic.fetch_and_add cursor 1 in
      if k < len then begin
        (try
           results.(k) <-
             Some
               (eval_unit ?cache ~counters ~batched ~tid:wi workload
                  instances wi units.(k))
         with exn ->
           worker_err.(wi) <- Some (exn, units.(k).(0).Candidate.id);
           raise Exit);
        pull ()
      end
    in
    try pull () with Exit -> ()
  in
  (* the calling domain is worker 0 rather than idling in a join: one
     spawn fewer per wave, and its own share of the major GC's work
     keeps pace with the workers' allocation *)
  let domains =
    Array.init (nw - 1) (fun wi -> Domain.spawn (worker (wi + 1)))
  in
  worker 0 ();
  (* join ALL domains first: re-raising at the first failed join would
     abandon running domains and leave slots unclaimed *)
  Array.iter Domain.join domains;
  Array.iteri
    (fun wi err ->
      match err with
      | Some (exn, candidate) ->
          raise (Worker_failure { worker = wi; candidate; exn })
      | None -> ())
    worker_err;
  List.concat_map
    (function
      | Some r -> r
      | None -> assert false (* every slot below [len] was claimed *))
    (Array.to_list results)

let eval_wave ?cache workload instances ~jobs ~counters wave =
  match wave with
  | [] -> []
  | (c0 : Candidate.t) :: _ ->
      (* worker 0's instance tells whether the workload has a compiled
         path; building it here (before any domain of the wave exists)
         fails like any other worker instance *)
      let inst0 =
        try instance_of workload instances 0
        with exn ->
          raise
            (Worker_failure { worker = 0; candidate = c0.Candidate.id; exn })
      in
      let batched = (not counters) && inst0.Workload.compiled <> None in
      eval_units ?cache workload instances ~jobs ~counters ~batched
        (units ~jobs ~batched (Array.of_list wave))

let run ?(jobs = 1) ?budget ?cache ?checkpoint ?on_wave ?(counters = false)
    ~workload ~generator () =
  if jobs < 1 then invalid_arg "Sweep.Pool.run: jobs < 1";
  (match budget with
  | Some b when b < 1 -> invalid_arg "Sweep.Pool.run: budget < 1"
  | _ -> ());
  if counters && checkpoint <> None then
    invalid_arg
      "Sweep.Pool.run: counter-carrying sweeps cannot be checkpointed";
  let instances = Array.make jobs None in
  let remaining = ref budget in
  let all = ref [] in
  let failures = ref [] in
  let wave_no = ref 0 in
  let rec loop prev =
    let wave = Generator.next generator prev in
    (* budget is a candidate count: truncate the wave, never exceed *)
    let wave =
      match !remaining with
      | None -> wave
      | Some r ->
          let take = List.filteri (fun i _ -> i < r) wave in
          remaining := Some (r - List.length take);
          take
    in
    match wave with
    | [] -> ()
    | wave ->
        incr wave_no;
        (* a journaled wave replays instead of re-evaluating; a fresh
           one is evaluated then durably journaled before the sweep
           advances — so a kill mid-wave loses at most that wave *)
        let outcomes =
          match checkpoint with
          | None -> eval_wave ?cache workload instances ~jobs ~counters wave
          | Some cp -> (
              match Checkpoint.lookup cp ~wave:!wave_no wave with
              | Some outcomes -> outcomes
              | None ->
                  let outcomes =
                    eval_wave ?cache workload instances ~jobs ~counters wave
                  in
                  Checkpoint.record cp ~wave:!wave_no outcomes;
                  outcomes)
        in
        (* quarantined candidates are kept out of the generator's view
           (it can only score metrics) but still count as evaluated *)
        let results, failed =
          List.partition_map
            (fun (c, r) ->
              match r with
              | Ok m -> Either.Left (c, m)
              | Error (error, attempts) ->
                  Either.Right
                    { Report.candidate = c; error; attempts })
            outcomes
        in
        all := List.rev_append results !all;
        failures := List.rev_append failed !failures;
        (match on_wave with
        | Some f ->
            f
              {
                wave = !wave_no;
                evaluated = List.length outcomes;
                total_so_far =
                  List.length !all + List.length !failures;
              }
        | None -> ());
        loop results
  in
  loop [];
  Report.make ~workload:workload.Workload.name
    ~strategy:(Generator.name generator) ~probe:workload.Workload.probe
    ~conclusion:(Generator.conclusion generator) ~failures:!failures
    !all
