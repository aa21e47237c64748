(** Sweep-determinism gate — the oracle for the parallel exploration
    engine.

    The sweep pool's contract is scheduling independence: the same
    workload, strategy and seeds must render a byte-identical report
    whatever the worker-domain count.  This gate runs each row of a
    small sweep table once at [jobs=1] (the sequential reference) and
    once at [jobs=N], and compares the canonical JSON renderings as strings — any
    divergence (evaluation order leaking into ids, non-commutative
    monitor merging, shared mutable state between worker instances)
    fails it. *)

type result = {
  label : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;  (** evaluated by each side *)
  identical : bool;  (** sequential and parallel JSON byte-equal *)
}

type report = { results : result list }

(* Small but not trivial: 2 stimulus seeds × a few fractional positions
   exercise multi-candidate waves; 128 cycles keeps the gate fast.  The
   sync row runs the closed synchronizer, which has no compiled fast
   path (data-dependent control flow), so it also pins the
   interpreter-only pool path. *)
let cases =
  let fir () = Sweep.Workload.fir ~n:128 () in
  let seeds = [ 0; 1 ] in
  [
    ("grid", fir, fun specs -> Sweep.Generator.grid ~specs ~f_min:4 ~f_max:7 ~seeds);
    ( "grid-63",
      fir,
      (* 9 f x 7 seeds: not a multiple of the pool's lane width, so a
         partial chunk of candidate lanes runs at every [jobs] *)
      fun specs ->
        Sweep.Generator.grid ~specs ~f_min:2 ~f_max:10
          ~seeds:(List.init 7 Fun.id) );
    ( "bisect",
      fir,
      fun specs ->
        Sweep.Generator.bisect ~specs ~f_min:2 ~f_max:10 ~target_db:30.0
          ~seeds );
    ( "pareto",
      fir,
      fun specs ->
        Sweep.Generator.pareto ~coarse:3 ~specs ~f_min:2 ~f_max:10 ~seeds () );
    ( "sync",
      (fun () -> Sweep.Workload.sync ~n_symbols:48 ()),
      fun specs -> Sweep.Generator.grid ~specs ~f_min:6 ~f_max:8 ~seeds );
  ]

(* generators are stateful wave protocols — build a fresh
   workload/generator pair per side *)
let run_case ~jobs ?counters (_, workload, generator) =
  let workload = workload () in
  let generator = generator workload.Sweep.Workload.specs in
  Sweep.Pool.run ~jobs ?counters ~workload ~generator ()

let sweep ~jobs ?counters label =
  match List.find_opt (fun (l, _, _) -> String.equal l label) cases with
  | Some case -> run_case ~jobs ?counters case
  | None -> invalid_arg ("Sweep_check.sweep: unknown row " ^ label)

let run ~jobs =
  let results =
    List.map
      (fun ((label, _, _) as case) ->
        let sequential = run_case ~jobs:1 case in
        let parallel = run_case ~jobs case in
        {
          label;
          jobs;
          candidates = List.length sequential.Sweep.Report.entries;
          identical =
            Sweep.Report.to_json sequential = Sweep.Report.to_json parallel;
        })
      cases
  in
  { results }

let passed t = List.for_all (fun r -> r.identical) t.results

let pp_report ppf t =
  Format.fprintf ppf "sweep determinism:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8s %3d candidates, jobs 1 vs %d: %s@." r.label
        r.candidates r.jobs
        (if r.identical then "identical" else "DIVERGED"))
    t.results
