(* Bench regression guard: the bench rows re-measured against the
   committed baseline files, one guard per file — and the one writer and
   reader of those files. *)

type row = {
  name : string;
  scenario : string;
  prepare : unit -> budget:float -> int * float;
}

type guard = {
  gate : string;
  title : string;
  file : string;
  unit : string;
  rows : row list;
}

let threshold = 0.8

(* Deflake: wall-clock throughput on a shared machine is noisy in one
   direction only (preemption can slow a run down, never speed it up),
   so every guard scores the median of three independently timed
   measurements against the threshold instead of trusting a single
   sample. *)
let median3 f =
  match List.sort compare [ f (); f (); f () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

(* One warm-up run, then whole-run repetitions for the time budget. *)
let timed ~budget once =
  once ();
  let reps = ref 0 in
  let t0 = Sys.time () in
  let elapsed () = Sys.time () -. t0 in
  while elapsed () < budget || !reps = 0 do
    once ();
    incr reps
  done;
  Float.of_int !reps /. elapsed ()

(* --- the dual-simulation rows (samples/sec) ------------------------------ *)

let of_scenario (sc : _ Scenario.t) = (sc.Scenario.design, sc.Scenario.cycles)

(* Samples/sec of whole [reset]+[run] repetitions of the design. *)
let design_row (name, scenario, build) =
  {
    name;
    scenario;
    prepare =
      (fun () ->
        let (design : Refine.Flow.design), samples_per_run = build () in
        fun ~budget ->
          ( samples_per_run,
            Float.of_int samples_per_run
            *. timed ~budget (fun () ->
                   design.Refine.Flow.reset ();
                   design.Refine.Flow.run ()) ));
  }

let sim =
  {
    gate = "bench";
    title = "bench guard";
    file = "BENCH_sim.json";
    unit = "samples/sec";
    rows =
      List.map design_row
        [
          ("lms-equalizer", "lms", fun () -> of_scenario (Scenario.lms ()));
          ( "timing-recovery",
            "timing",
            fun () -> of_scenario (Scenario.timing ()) );
        ];
  }

(* Dual-simulation samples/sec of the closed loop, per detector. *)
let sync =
  {
    gate = "bench-sync";
    title = "sync bench guard";
    file = "BENCH_sync.json";
    unit = "samples/sec";
    rows =
      List.map design_row
        [
          ( "sync-ml-pam4",
            "sync",
            fun () ->
              of_scenario (Scenario.sync ~ted:Dsp.Synchronizer.Ml ~m:4 ()) );
          ( "sync-gardner-pam2",
            "sync",
            fun () ->
              of_scenario
                (Scenario.sync ~ted:Dsp.Synchronizer.Gardner ~m:2 ()) );
        ];
  }

(* --- compiled-executor throughput (lane-samples/sec) --------------------- *)

(* The graphs the compiled and verify rows run: the extracted flowgraphs
   of the conformance workloads — the same extraction the sweep's
   compiled candidate path uses. *)
let scenario_graph name =
  match Workloads.find name with
  | None -> failwith ("Bench_guard: unknown workload " ^ name)
  | Some w -> Workloads.flowgraph w

(* Throughput counts lane-samples (steps x batch): the quantity a
   batched sweep consumes. *)
let compiled_throughput prog ~steps =
  let buf = Array.init 8192 (fun i -> Float.sin (Float.of_int i) *. 0.75) in
  let inputs _name ~lane step =
    Array.unsafe_get buf ((lane + (step * 31)) land 8191)
  in
  fun ~budget ->
    Float.of_int (steps * Compile.batch prog)
    *. timed ~budget (fun () -> Compile.run prog ~steps ~inputs)

let compiled_row (name, scenario, batch, steps) =
  {
    name;
    scenario;
    prepare =
      (fun () ->
        let measure =
          compiled_throughput
            (Compile.compile ~batch (scenario_graph scenario))
            ~steps
        in
        fun ~budget -> (steps, measure ~budget));
  }

let compiled =
  {
    gate = "bench-compiled";
    title = "compiled bench guard";
    file = "BENCH_compile.json";
    unit = "lane-samples/sec";
    rows =
      List.map compiled_row
        [
          ("lms-compiled-b1", "lms", 1, 4000);
          ("lms-compiled-b64", "lms", 64, 4000);
          ("timing-compiled-b1", "timing", 1, 8000);
          ("timing-compiled-b64", "timing", 64, 8000);
        ];
  }

(* --- verification-engine throughput (transitions/sec) -------------------- *)

(* The measured unit is one whole verification run (compile, search, and
   for the biquad the graph rebuild) — the wall-clock a verify-gate
   caller pays — and throughput counts executed transitions/sec, the
   verifier's analogue of samples/sec.  The biquad row measures a
   pinned {!Verify.Designs} exemplar, the only row outside the
   scenario registry. *)
let verify_row (name, scenario, once) =
  {
    name;
    scenario;
    prepare =
      (fun () ->
        let once = once () in
        fun ~budget ->
          let per = ref 0 in
          let rate =
            timed ~budget (fun () ->
                per := (once ()).Verify.Engine.stats.Verify.Engine.transitions)
          in
          (!per, Float.of_int !per *. rate));
  }

let verify =
  let run prop g =
    Verify.Engine.verify ~max_bits:10 ~depth:48 ~max_states:4096 prop g
  in
  {
    gate = "bench-verify";
    title = "verify bench guard";
    file = "BENCH_verify.json";
    unit = "transitions/sec";
    rows =
      List.map verify_row
        [
          ( "verify-biquad-proof",
            "biquad-repaired",
            fun () () ->
              run Verify.Engine.No_overflow (Verify.Designs.biquad_repaired ())
          );
          ( "verify-lms-closure",
            "lms",
            fun () ->
              let lms = scenario_graph "lms" in
              fun () -> run Verify.Engine.No_limit_cycle lms );
        ];
  }

(* --- the baseline file ---------------------------------------------------- *)

(* One flat object: the guard's unit, then one figure per row, in the
   guard's row order. *)
let write g figures =
  let field (k, v) = Printf.sprintf "  %s: %s" (Trace.Json.string_lit k) v in
  let figure (name, v) = (name, Trace.Json.float_lit v) in
  Printf.sprintf "{\n%s\n}\n"
    (String.concat ",\n"
       (List.map field
          (("unit", Trace.Json.string_lit g.unit) :: List.map figure figures)))

let read g text =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (g.file ^ ": " ^ m)) fmt in
  let* fields =
    match Trace.Json.parse_object text with
    | Ok fields -> Ok fields
    | Error e -> fail "%s" e
  in
  let* () =
    match List.assoc_opt "unit" fields with
    | Some (Trace.Json.String u) when String.equal u g.unit -> Ok ()
    | _ -> fail "unit is not %S" g.unit
  in
  let stray (k, _) =
    k <> "unit" && not (List.exists (fun r -> String.equal r.name k) g.rows)
  in
  let* () =
    match List.find_opt stray fields with
    | Some (k, _) -> fail "row %s is not guarded" k
    | None -> Ok ()
  in
  List.fold_left
    (fun acc r ->
      let* acc = acc in
      match List.assoc_opt r.name fields with
      | Some (Trace.Json.Int v) when v > 0 ->
          Ok ((r.name, Float.of_int v) :: acc)
      | Some (Trace.Json.Float v) when v > 0.0 -> Ok ((r.name, v) :: acc)
      | _ -> fail "row %s: no positive baseline figure" r.name)
    (Ok []) g.rows
  |> Result.map List.rev

(* --- the guard ----------------------------------------------------------- *)

(* [(name, units per run, units/sec)] of every row, median of three. *)
let measure_rows ~budget_seconds g =
  List.map
    (fun r ->
      let measure = r.prepare () in
      let per = ref 0 in
      let rate =
        median3 (fun () ->
            let p, v = measure ~budget:budget_seconds in
            per := p;
            v)
      in
      (r.name, !per, rate))
    g.rows

let record g =
  Format.printf "@.==================== %s: %s ====================@." g.title
    g.unit;
  let rows = measure_rows ~budget_seconds:1.0 g in
  List.iter
    (fun (name, per, rate) ->
      Format.printf "%-20s %7d per run: %12.0f %s@." name per rate g.unit)
    rows;
  let figures =
    List.map (fun (name, _, rate) -> (name, Float.round rate)) rows
  in
  Out_channel.with_open_bin g.file (fun oc ->
      output_string oc (write g figures));
  Format.printf "wrote %s@." g.file

let score g baselines measured =
  List.map
    (fun (name, measured) ->
      let baseline = List.assoc name baselines in
      let ratio = measured /. baseline in
      {
        Check.name;
        ok = ratio >= threshold;
        detail =
          Printf.sprintf "%.0f %s vs baseline %.0f (%.2fx, fails below %.2fx)"
            measured g.unit baseline ratio threshold;
      })
    measured

let run g =
  let file_check ok detail = [ { Check.name = g.file; ok; detail } ] in
  if not (Sys.file_exists g.file) then
    file_check true "baseline not found: skipped"
  else
    match
      Result.bind
        (try Ok (In_channel.with_open_bin g.file In_channel.input_all)
         with Sys_error e -> Error e)
        (read g)
    with
    | Error e -> file_check false ("broken baseline: " ^ e)
    | Ok baselines ->
        score g baselines
          (List.map
             (fun (name, _, rate) -> (name, rate))
             (measure_rows ~budget_seconds:0.5 g))
