(* Workload refine-verify: the paper's single-design flow, repeated.

   One job is one pass over the design set: [Refine.Flow.refine] on
   every [Oracle.Workloads] design with a design view (fir, lms, timing,
   sync), then [Verify.Engine.verify] of the listed properties, every
   REFUTED verdict confirmed with [Verify.Engine.confirm] as the flow
   requires.  The verify set keeps the decided exemplars (fir and cordic
   overflow, the two biquads) and the BOUNDED OUT properties ROADMAP
   item 6 targets (lms, timing and ddc overflow, fir and lms limit
   cycle), at the conformance gate's budgets; the long limit-cycle
   searches on timing, sync and ddc (seconds each) are left out so that
   one pass stays near 0.2 s.

   Each refine report must equal its golden [*.refine] file, and no
   verdict may contradict the known-answer table below. *)

open Pb_util

let golden_dir = "test/conformance/golden"
let max_bits = 10
let depth = 48
let max_states = 4096

type truth = Holds | Fails | Unknown

(* Known answers at these budgets.  [Unknown] accepts any verdict
   (they are BOUNDED OUT today; a PROVED or a confirmed REFUTED would be
   progress, not an error). *)
let verify_set =
  let o = Verify.Engine.No_overflow and lc = Verify.Engine.No_limit_cycle in
  [
    ("fir", [ (o, Fails); (lc, Unknown) ]);
    ("cordic", [ (o, Fails) ]);
    ("lms", [ (o, Unknown); (lc, Unknown) ]);
    ("timing", [ (o, Unknown) ]);
    ("ddc", [ (o, Unknown) ]);
    ("biquad-under", [ (o, Fails); (lc, Fails) ]);
    ("biquad-repaired", [ (o, Holds); (lc, Fails) ]);
  ]

let refine_designs = [ "fir"; "lms"; "timing"; "sync" ]

let graph_of name =
  match List.assoc_opt name Verify.Designs.all with
  | Some mk -> mk ()
  | None -> (
      let b = (Option.get (Oracle.Workloads.find name)).Oracle.Workloads.build () in
      match (b.Oracle.Workloads.extract_graph, b.Oracle.Workloads.graph) with
      | Some f, _ -> f ()
      | None, Some g -> g
      | None, None -> failwith ("no flowgraph for " ^ name))

let build name =
  let b = (Option.get (Oracle.Workloads.find name)).Oracle.Workloads.build () in
  (b, Option.get b.Oracle.Workloads.design)

(* The golden refine report rendering (the format of the files under
   [golden_dir]). *)
let render name (design : Refine.Flow.design) (r : Refine.Flow.result) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let hex = Printf.sprintf "%h" in
  Format.fprintf ppf "fxrefine golden refine report: workload %s@." name;
  Format.fprintf ppf "iterations msb=%d lsb=%d simulation_runs=%d@."
    r.Refine.Flow.msb_iterations r.Refine.Flow.lsb_iterations r.Refine.Flow.simulation_runs;
  List.iter (fun it -> Format.fprintf ppf "%a@." Refine.Flow.pp_iteration it) r.Refine.Flow.iterations;
  Option.iter (fun v -> Format.fprintf ppf "sqnr_before_db %s@." (hex v)) r.Refine.Flow.sqnr_before_db;
  Option.iter (fun v -> Format.fprintf ppf "sqnr_after_db %s@." (hex v)) r.Refine.Flow.sqnr_after_db;
  List.iter
    (fun (n, dt) -> Format.fprintf ppf "type %-12s %s@." n (Fixpt.Dtype.to_string dt))
    r.Refine.Flow.types;
  Format.fprintf ppf "%s@."
    (Refine.Report.summary design.Refine.Flow.env r.Refine.Flow.msb_decisions
       r.Refine.Flow.lsb_decisions);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Per-pass observations (the traced ones fill the layer fields). *)
type pass = {
  wall : float;
  refine_s : float;
  verify_s : float;
  sim_s : float;  (** time inside [design.run] during the flows *)
  sim_runs : int;
  sim_samples : int;
  sim_words : float;
  iterations : int;
  decided : int;
  states : int;
  transitions : int;
  truncated : int;
  confirm_s : float;
  confirms : int;
  checks : int;  (** outputs checked *)
  wrong : int;  (** of those, failing their check *)
  minor_words : float;
  major : int;
}

let contradicts truth (v : Verify.Engine.verdict) =
  match (truth, v) with
  | Holds, Verify.Engine.Refuted _ | Fails, Verify.Engine.Proved -> true
  | _ -> false

let one_pass ~traced ~golden ~tamper =
  let sim_s = ref 0.0 and sim_runs = ref 0 and sim_samples = ref 0 and sim_words = ref 0.0 in
  let checks = ref 0 and wrong = ref 0 in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let iterations = ref 0 in
  List.iter
    (fun name ->
      let b, design = build name in
      let design =
        if not traced then design
        else
          let env = design.Refine.Flow.env in
          {
            design with
            Refine.Flow.run =
              (fun () ->
                let w0 = Gc.minor_words () and c0 = Sim.Env.time env in
                let (), dt = time design.Refine.Flow.run in
                sim_s := !sim_s +. dt;
                incr sim_runs;
                sim_words := !sim_words +. (Gc.minor_words () -. w0);
                sim_samples := !sim_samples + (Sim.Env.time env - c0));
          }
      in
      let r = Refine.Flow.refine ~sqnr_signal:b.Oracle.Workloads.probe design in
      iterations := !iterations + r.Refine.Flow.msb_iterations + r.Refine.Flow.lsb_iterations;
      incr checks;
      if not (String.equal (render name design r) (List.assoc name golden)) then incr wrong)
    refine_designs;
  let t1 = now () in
  let decided = ref 0 and states = ref 0 and transitions = ref 0 and truncated = ref 0 in
  let confirm_s = ref 0.0 and confirms = ref 0 in
  let flipped = ref (not tamper) in
  List.iter
    (fun (name, props) ->
      let g = graph_of name in
      List.iter
        (fun (prop, truth) ->
          let r = Verify.Engine.verify ~max_bits ~depth ~max_states prop g in
          let st = r.Verify.Engine.stats in
          states := !states + st.Verify.Engine.states;
          transitions := !transitions + st.Verify.Engine.transitions;
          if st.Verify.Engine.truncated then incr truncated;
          let verdict =
            match r.Verify.Engine.verdict with
            | Verify.Engine.Refuted _ when not !flipped ->
                (* self-test: a flipped verdict must be caught *)
                flipped := true;
                Verify.Engine.Proved
            | v -> v
          in
          incr checks;
          (match verdict with
          | Verify.Engine.Proved -> incr decided
          | Verify.Engine.Refuted ce ->
              incr decided;
              let ok, dt = time (fun () -> Verify.Engine.confirm g ce) in
              confirm_s := !confirm_s +. dt;
              incr confirms;
              if Result.is_error ok then incr wrong
          | Verify.Engine.Bounded_out _ -> ());
          if contradicts truth verdict then incr wrong)
        props)
    verify_set;
  let t2 = now () in
  let g1 = Gc.quick_stat () in
  {
    wall = t2 -. t0;
    refine_s = t1 -. t0;
    verify_s = t2 -. t1;
    sim_s = !sim_s;
    sim_runs = !sim_runs;
    sim_samples = !sim_samples;
    sim_words = !sim_words;
    iterations = !iterations;
    decided = !decided;
    states = !states;
    transitions = !transitions;
    truncated = !truncated;
    confirm_s = !confirm_s;
    confirms = !confirms;
    checks = !checks;
    wrong = !wrong;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Set-up (timed by [Pb_util.setup_probe]): the designs built and the
   verify graphs extracted. *)
let setup () =
  List.iter (fun n -> ignore (build n)) refine_designs;
  List.iter (fun (n, _) -> ignore (graph_of n)) verify_set

(* Design checks per pass: each refine flow and each property verdict. *)
let checks_per_pass = List.length refine_designs + List.fold_left (fun a (_, ps) -> a + List.length ps) 0 verify_set

let run ctx =
  let golden =
    List.map (fun n -> (n, read_file (Filename.concat golden_dir (n ^ ".refine")))) refine_designs
  in
  let setup = if ctx.trace then 0.0 else setup_probe ~workload:"refine-verify" ~seed:ctx.seed () in
  (* warm-up pass, unmeasured but checked like the others *)
  let warm = one_pass ~traced:false ~golden ~tamper:false in
  let passes = ref [] in
  let t_end = now () +. ctx.seconds in
  let i = ref 0 in
  while now () < t_end do
    let traced = traced_iteration ctx !i in
    passes := (traced, one_pass ~traced ~golden ~tamper:(ctx.tamper && !i = 0)) :: !passes;
    incr i
  done;
  let all = warm :: List.map snd !passes in
  let attempted = List.fold_left (fun a p -> a + p.checks) 0 all in
  let failed = List.fold_left (fun a p -> a + p.wrong) 0 all in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) !passes in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) !passes in
  let walls = List.map (fun p -> p.wall) untraced in
  let n = List.length walls in
  let tail_ms, tail_pct, tail_blocks = tail (List.map (fun x -> x *. 1e3) walls) in
  let med f ps = median (List.map f ps) in
  let metrics =
    if ctx.trace then
      let tot f = List.fold_left (fun a p -> a +. f p) 0.0 traced in
      let nt = fi (List.length traced) in
      [
        m "flow.refine_s" "s" (med (fun p -> p.refine_s) traced);
        m "flow.sim_runs" "count" (tot (fun p -> fi p.sim_runs) /. nt);
        m "flow.iterations" "count" (tot (fun p -> fi p.iterations) /. nt);
        m "flow.sim_frac" "frac" (ratio (tot (fun p -> p.sim_s)) (tot (fun p -> p.refine_s)));
        m "interp.us_per_cand" "us" (ratio (tot (fun p -> p.sim_s)) (tot (fun p -> fi p.sim_runs)) *. 1e6);
        m "interp.ns_per_sample" "ns" (ratio (tot (fun p -> p.sim_s)) (tot (fun p -> fi p.sim_samples)) *. 1e9);
        m "interp.minor_words_per_sample" "words"
          (ratio (tot (fun p -> p.sim_words)) (tot (fun p -> fi p.sim_samples)));
        m "verify.verify_s" "s" (med (fun p -> p.verify_s) traced);
        m "verify.decided" "count" (tot (fun p -> fi p.decided) /. nt);
        m "verify.states" "count" (tot (fun p -> fi p.states) /. nt);
        m "verify.transitions" "count" (tot (fun p -> fi p.transitions) /. nt);
        m "verify.transitions_per_s" "1/s" (ratio (tot (fun p -> fi p.transitions)) (tot (fun p -> p.verify_s)));
        m "verify.truncated" "count" (tot (fun p -> fi p.truncated) /. nt);
        m "verify.confirm_ms" "ms" (ratio (tot (fun p -> p.confirm_s)) (tot (fun p -> fi p.confirms)) *. 1e3);
        m "gc.minor_words_per_cand" "words" (tot (fun p -> p.minor_words) /. (nt *. fi checks_per_pass));
        m "gc.major_collections" "count" (tot (fun p -> fi p.major) /. nt);
        m "trace.overhead_frac" "frac"
          (overhead_frac ~traced:(List.map (fun p -> p.wall) traced) ~untraced:walls);
      ]
    else
      [
        m "setup_s" "s" setup;
        m "jobs_per_s" "1/s" (1.0 /. median walls);
        m "job_p50_ms" "ms" (median walls *. 1e3);
        m "job_tail_ms" "ms" tail_ms;
        m "candidates_per_s" "1/s" (fi checks_per_pass /. median walls);
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
  in
  {
    attempted;
    failed;
    metrics;
    detail =
      [
        ("passes", string_of_int n);
        ("checks_per_pass", string_of_int checks_per_pass);
        ("pass_ms_percentiles", percentiles_json [ 10.; 25.; 50.; 75.; 90. ] (List.map (fun x -> x *. 1e3) walls));
        ("job_tail_percentile", json_num tail_pct);
        ("job_tail_blocks", string_of_int tail_blocks);
        ("refine_s", json_num (med (fun p -> p.refine_s) untraced));
        ("verify_s", json_num (med (fun p -> p.verify_s) untraced));
        ("verify_decided", string_of_int warm.decided);
        ( "budgets",
          Printf.sprintf "{\"max_bits\": %d, \"depth\": %d, \"max_states\": %d}" max_bits depth max_states );
      ];
  }
