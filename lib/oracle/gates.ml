(* The gates of [fxrefine check], declared once as an ordered table. *)

type ctx = {
  seed : int;
  per_combo : int;
  update_golden : bool;
  golden_dir : string option;
  jobs : int;
  no_bench : bool;
}

type t = { name : string; run : ctx -> Check.t list }

let jobs = function
  | Some j -> max 2 j
  | None -> max 2 (min 4 (Domain.recommended_domain_count ()))

let bench (guard : Bench_guard.guard) =
  {
    name = guard.Bench_guard.gate;
    run =
      (fun c ->
        if c.no_bench then
          [
            {
              Check.name = guard.Bench_guard.file;
              ok = true;
              detail = "skipped (--no-bench)";
            };
          ]
        else Bench_guard.run guard);
  }

(* The chaos gate forks, and OCaml 5 forbids [Unix.fork] once any
   domain was ever created in the process — so it runs before every
   gate that spawns worker domains (sweep, trace, faults, compiled,
   serve, sync). *)
let all =
  [
    {
      name = "differential";
      run =
        (fun c ->
          Differential.checks
            (Differential.run ~seed:c.seed ~per_combo:c.per_combo ()));
    };
    {
      name = "metamorphic";
      run = (fun _ -> Metamorphic.checks (Metamorphic.run_all ()));
    };
    {
      name = "golden";
      run =
        (fun c ->
          Golden.checks
            (Golden.check ~update:c.update_golden ?dir:c.golden_dir ()));
    };
    { name = "chaos"; run = (fun c -> Chaos_check.run ~jobs:c.jobs ~seed:c.seed) };
    { name = "sweep"; run = (fun c -> Sweep_check.run ~jobs:c.jobs) };
    { name = "trace"; run = (fun c -> Trace_check.run ~jobs:c.jobs) };
    { name = "faults"; run = (fun c -> Fault_check.run ~jobs:c.jobs) };
    { name = "compiled"; run = (fun _ -> Compile_check.run ()) };
    bench Bench_guard.sim;
    bench Bench_guard.compiled;
    {
      name = "verify";
      run =
        (fun c -> Verify_check.run ~update:c.update_golden ?dir:c.golden_dir ());
    };
    bench Bench_guard.verify;
    { name = "serve"; run = (fun c -> Serve_check.run ~jobs:c.jobs) };
    { name = "sync"; run = (fun _ -> Sync_check.run ()) };
    bench Bench_guard.sync;
  ]

let run_all ctx =
  List.fold_left
    (fun ok g ->
      let checks = g.run ctx in
      Format.printf "%s:@.%a" g.name Check.pp checks;
      Check.passed checks && ok)
    true all
