(* The gates of [fxrefine check], declared once as an ordered table. *)

type ctx = {
  seed : int;
  per_combo : int;
  update_golden : bool;
  golden_dir : string option;
  jobs : int;
  no_bench : bool;
}

type t =
  | Gate : {
      name : string;
      run : ctx -> 'r;
      passed : 'r -> bool;
      pp : Format.formatter -> 'r -> unit;
    }
      -> t

let jobs = function
  | Some j -> max 2 j
  | None -> max 2 (min 4 (Domain.recommended_domain_count ()))

let bench (guard : Bench_guard.guard) =
  Gate
    {
      name = guard.Bench_guard.gate;
      run =
        (fun c ->
          if c.no_bench then Bench_guard.skipped guard "skipped (--no-bench)"
          else Bench_guard.run guard);
      passed = Bench_guard.passed;
      pp = Bench_guard.pp_report;
    }

(* The chaos gate forks, and OCaml 5 forbids [Unix.fork] once any
   domain was ever created in the process — so it runs before every
   gate that spawns worker domains (sweep, trace, faults, compiled,
   serve, sync). *)
let all =
  [
    Gate
      {
        name = "differential";
        run =
          (fun c -> Differential.run ~seed:c.seed ~per_combo:c.per_combo ());
        passed = Differential.passed;
        pp = Differential.pp_report;
      };
    Gate
      {
        name = "metamorphic";
        run = (fun _ -> Metamorphic.run_all ());
        passed = Metamorphic.passed;
        pp = Metamorphic.pp_report;
      };
    Gate
      {
        name = "golden";
        run =
          (fun c -> Golden.check ~update:c.update_golden ?dir:c.golden_dir ());
        passed = Golden.passed;
        pp = Golden.pp_result;
      };
    Gate
      {
        name = "chaos";
        run = (fun c -> Chaos_check.run ~jobs:c.jobs ~seed:c.seed);
        passed = Chaos_check.passed;
        pp = Chaos_check.pp_report;
      };
    Gate
      {
        name = "sweep";
        run = (fun c -> Sweep_check.run ~jobs:c.jobs);
        passed = Sweep_check.passed;
        pp = Sweep_check.pp_report;
      };
    Gate
      {
        name = "trace";
        run = (fun c -> Trace_check.run ~jobs:c.jobs);
        passed = Trace_check.passed;
        pp = Trace_check.pp_report;
      };
    Gate
      {
        name = "faults";
        run = (fun c -> Fault_check.run ~jobs:c.jobs);
        passed = Fault_check.passed;
        pp = Fault_check.pp_report;
      };
    Gate
      {
        name = "compiled";
        run = (fun _ -> Compile_check.run ());
        passed = Compile_check.passed;
        pp = Compile_check.pp_report;
      };
    bench Bench_guard.sim;
    bench Bench_guard.compiled;
    Gate
      {
        name = "verify";
        run =
          (fun c -> Verify_check.run ~update:c.update_golden ?dir:c.golden_dir ());
        passed = Verify_check.passed;
        pp = Verify_check.pp_report;
      };
    bench Bench_guard.verify;
    Gate
      {
        name = "serve";
        run = (fun c -> Serve_check.run ~jobs:c.jobs);
        passed = Serve_check.passed;
        pp = Serve_check.pp_report;
      };
    Gate
      {
        name = "sync";
        run = (fun _ -> Sync_check.run ());
        passed = Sync_check.passed;
        pp = Sync_check.pp_report;
      };
    bench Bench_guard.sync;
  ]

let run_all ctx =
  List.fold_left
    (fun ok (Gate g) ->
      let r = g.run ctx in
      Format.printf "%a@." g.pp r;
      g.passed r && ok)
    true all
