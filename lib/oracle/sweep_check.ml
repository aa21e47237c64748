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
let run_case ~jobs ?counters ?cache (_, workload, generator) =
  let workload = workload () in
  let generator = generator workload.Sweep.Workload.specs in
  Sweep.Pool.run ~jobs ?counters ?cache ~workload ~generator ()

let sweep ~jobs ?counters ?cache label =
  match List.find_opt (fun (l, _, _) -> String.equal l label) cases with
  | Some case -> run_case ~jobs ?counters ?cache case
  | None -> invalid_arg ("Sweep_check.sweep: unknown row " ^ label)

let run ~jobs =
  List.map
    (fun ((label, _, _) as case) ->
      let sequential = run_case ~jobs:1 case in
      let parallel = run_case ~jobs case in
      let identical =
        Sweep.Report.to_json sequential = Sweep.Report.to_json parallel
      in
      {
        Check.name = label;
        ok = identical;
        detail =
          Printf.sprintf "%d candidates, jobs 1 vs %d: %s"
            (List.length sequential.Sweep.Report.entries)
            jobs
            (if identical then "identical" else "diverged");
      })
    cases
