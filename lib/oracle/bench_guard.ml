(* Bench regression guard: the bench rows re-measured against the
   committed BENCH_*.json baselines, one guard per file. *)

type entry = {
  bench : string;
  samples_per_run : int;
  baseline : float;
  measured : float;
  ratio : float;
}

type report = { title : string; entries : entry list; note : string option }

type row = {
  name : string;
  scenario : string;
  prepare : unit -> budget:float -> int * float;
}

type guard = { gate : string; title : string; file : string; rows : row list }

let threshold = 0.8

(* --- baseline parsing (no JSON dependency) ------------------------------ *)

(* Scan for ["name": "<w>"] followed by ["after": <float>]; the file is
   machine-written by bench/main.ml's simbench with exactly this shape. *)
let parse_baselines text =
  let find_from pat i =
    let n = String.length text and m = String.length pat in
    let rec go i =
      if i + m > n then None
      else if String.sub text i m = pat then Some (i + m)
      else go (i + 1)
    in
    go i
  in
  let number_at i =
    let n = String.length text in
    let rec skip i = if i < n && text.[i] = ' ' then skip (i + 1) else i in
    let i = skip i in
    let rec stop j =
      if
        j < n
        && (match text.[j] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      then stop (j + 1)
      else j
    in
    let j = stop i in
    if j = i then None else float_of_string_opt (String.sub text i (j - i))
  in
  let rec entries i acc =
    match find_from "\"name\": \"" i with
    | None -> List.rev acc
    | Some i -> (
        match String.index_from_opt text i '"' with
        | None -> List.rev acc
        | Some q -> (
            let name = String.sub text i (q - i) in
            match find_from "\"after\":" q with
            | None -> List.rev acc
            | Some j -> (
                match number_at j with
                | None -> entries j acc
                | Some v -> entries j ((name, v) :: acc))))
  in
  entries 0 []

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

let measure ~budget (design : Refine.Flow.design) ~samples_per_run =
  Float.of_int samples_per_run
  *. timed ~budget (fun () ->
         design.Refine.Flow.reset ();
         design.Refine.Flow.run ())

(* --- the dual-simulation rows (BENCH_sim.json, BENCH_sync.json) --------- *)

let of_scenario (sc : _ Scenario.t) = (sc.Scenario.design, sc.Scenario.cycles)

let sim_designs =
  [
    ("lms-equalizer", "lms", fun () -> of_scenario (Scenario.lms ()));
    ("timing-recovery", "timing", fun () -> of_scenario (Scenario.timing ()));
  ]

let design_row (name, scenario, build) =
  {
    name;
    scenario;
    prepare =
      (fun () ->
        let design, samples_per_run = build () in
        fun ~budget -> (samples_per_run, measure ~budget design ~samples_per_run));
  }

let sim =
  {
    gate = "bench";
    title = "bench guard";
    file = "BENCH_sim.json";
    rows = List.map design_row sim_designs;
  }

(* Dual-simulation samples/sec of the closed loop, per detector. *)
let sync =
  {
    gate = "bench-sync";
    title = "sync bench guard";
    file = "BENCH_sync.json";
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

(* --- compiled-executor throughput (BENCH_compile.json) ------------------ *)

(* The graphs the compiled and verify rows run: the extracted flowgraphs
   of the conformance workloads — the same extraction the sweep's
   compiled candidate path uses. *)
let scenario_graph name =
  match Workloads.find name with
  | None -> failwith ("Bench_guard: unknown workload " ^ name)
  | Some w -> (
      let b = w.Workloads.build () in
      match b.Workloads.extract_graph with
      | Some f -> f ()
      | None -> failwith ("Bench_guard: workload has no extractor: " ^ name))

(* Throughput counts lane-samples (steps x batch): the quantity a
   batched sweep consumes. *)
let compiled_row (name, scenario, batch, steps) =
  {
    name;
    scenario;
    prepare =
      (fun () ->
        let prog = Compile.compile ~batch (scenario_graph scenario) in
        let buf =
          Array.init 8192 (fun i -> Float.sin (Float.of_int i) *. 0.75)
        in
        let inputs _name ~lane step =
          Array.unsafe_get buf ((lane + (step * 31)) land 8191)
        in
        fun ~budget ->
          ( steps,
            Float.of_int (steps * Compile.batch prog)
            *. timed ~budget (fun () -> Compile.run prog ~steps ~inputs) ));
  }

let compiled =
  {
    gate = "bench-compiled";
    title = "compiled bench guard";
    file = "BENCH_compile.json";
    rows =
      List.map compiled_row
        [
          ("lms-compiled-b1", "lms", 1, 4000);
          ("lms-compiled-b64", "lms", 64, 4000);
          ("timing-compiled-b1", "timing", 1, 8000);
          ("timing-compiled-b64", "timing", 64, 8000);
        ];
  }

(* --- verification-engine throughput (BENCH_verify.json) ---------------- *)

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

(* --- the guard ----------------------------------------------------------- *)

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

let skipped g note = { title = g.title; entries = []; note = Some note }

let run g =
  if not (Sys.file_exists g.file) then
    skipped g (Printf.sprintf "baseline %s not found: skipped" g.file)
  else
    let baselines =
      try parse_baselines (In_channel.with_open_bin g.file In_channel.input_all)
      with Sys_error _ -> []
    in
    if baselines = [] then
      skipped g (Printf.sprintf "no baselines parsed from %s: skipped" g.file)
    else
      let rows = List.filter (fun r -> List.mem_assoc r.name baselines) g.rows in
      let entries =
        List.map
          (fun (bench, samples_per_run, measured) ->
            let baseline = List.assoc bench baselines in
            { bench; samples_per_run; baseline; measured; ratio = measured /. baseline })
          (measure_rows ~budget_seconds:0.5 { g with rows })
      in
      { title = g.title; entries; note = None }

let passed r = List.for_all (fun e -> e.ratio >= threshold) r.entries

let pp_report ppf r =
  (match r.note with
  | Some n -> Format.fprintf ppf "%s: %s" r.title n
  | None ->
      Format.fprintf ppf "%s (fail below %.2fx baseline):" r.title threshold);
  List.iter
    (fun e ->
      Format.fprintf ppf "@.  %-18s %9.0f samples/sec vs baseline %9.0f (%.2fx)%s"
        e.bench e.measured e.baseline e.ratio
        (if e.ratio >= threshold then "" else "  REGRESSION"))
    r.entries
