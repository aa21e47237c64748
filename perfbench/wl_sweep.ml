(* Workloads sweep-fir and sweep-sync: repeated grid sweeps through
   [Sweep.Pool.run] at jobs = nproc, without cache or checkpoint.

   One job is one sweep (what one [fxrefine sweep] invocation does): the
   pool run plus the canonical JSON report.  Every sweep of a run
   covers the same grid, so every report must be byte-equal to the
   jobs=1 reference computed before timing starts (which also warms the
   code). *)

open Pb_util

type shape = {
  name : string;
  make : unit -> Sweep.Workload.t;
  f_min : int;
  f_max : int;
  n_seeds : int;  (** stimulus seeds per f: sets the candidate count *)
  interp_checks : int;
      (** candidates re-evaluated on the clock-true interpreter *)
  replays : int;  (** candidates replayed layer by layer (traced run) *)
  borrowed : (string list * (ctx -> outcome)) option;
      (** metric prefixes this workload's traced run measures by running
          an ungated workload for a few seconds (see [run]) *)
}

(* fir: 9 f × 60 seeds = 540 candidates per sweep, the compiled fast
   path.  sync: 9 f × 20 seeds = 180 candidates, every one on the
   interpreter; its candidates are ~4× longer, so the count is
   smaller to keep a sweep near the fir one in wall time. *)
let fir =
  {
    name = "sweep-fir";
    make = (fun () -> Sweep.Workload.fir ());
    f_min = 2;
    f_max = 10;
    n_seeds = 60;
    interp_checks = 16;
    replays = 90;
    borrowed =
      Some
        ( [ "key."; "cache."; "codec."; "checkpoint."; "journal."; "daemon."; "wire." ],
          Wl_serve.run );
  }

let sync =
  {
    name = "sweep-sync";
    make = (fun () -> Sweep.Workload.sync ());
    f_min = 2;
    f_max = 10;
    n_seeds = 20;
    interp_checks = 0;
    replays = 0;
    borrowed = Some ([ "flow."; "verify." ], Wl_refine.run);
  }

let stim_seeds ctx shape = List.init shape.n_seeds (fun i -> (1000 * ctx.seed) + i)

let grid ctx shape (w : Sweep.Workload.t) =
  Sweep.Generator.grid ~specs:w.Sweep.Workload.specs ~f_min:shape.f_min
    ~f_max:shape.f_max ~seeds:(stim_seeds ctx shape)

(* Set-up (timed by [Pb_util.setup_probe]): everything a sweep needs
   before its first candidate — the workload, the generator, one
   instance per worker and, on the compiled path, one extracted graph
   per instance. *)
let setup ctx shape =
  let w = shape.make () in
  ignore (grid ctx shape w);
  List.iter
    (fun (inst : Sweep.Workload.instance) ->
      match inst.Sweep.Workload.compiled with
      | Some ce ->
          inst.Sweep.Workload.design.Refine.Flow.reset ();
          ignore (ce.Refine.Eval.extract ())
      | None -> ())
    (List.init ctx.jobs (fun _ -> w.Sweep.Workload.make_instance ()))

(* --- the traced sweep -------------------------------------------------------- *)

(* Per-instance counters: each instance belongs to one worker domain at
   a time, so plain mutable fields are race-free. *)
type lane = {
  mutable extracts : int;
  mutable extract_s : float;
  mutable nodes : int;
  mutable runs : int;
  mutable run_s : float;
  mutable run_words : float;
  mutable run_samples : int;
  mutable fallbacks : int;
  mutable extracted : bool;  (** the current candidate was extracted *)
}

(* Wrap the workload's closures: [extract] (the extract layer),
   [design.run] (the interpreter) and [set_seed] (one call per
   candidate, which delimits candidates for the fallback count: a
   candidate that was extracted and then ran on the interpreter fell
   back). *)
let instrument (w : Sweep.Workload.t) =
  let lanes = ref [] and lock = Mutex.create () in
  let make_instance () =
    let inst = w.Sweep.Workload.make_instance () in
    let l =
      {
        extracts = 0;
        extract_s = 0.0;
        nodes = 0;
        runs = 0;
        run_s = 0.0;
        run_words = 0.0;
        run_samples = 0;
        fallbacks = 0;
        extracted = false;
      }
    in
    Mutex.protect lock (fun () -> lanes := l :: !lanes);
    let d = inst.Sweep.Workload.design in
    let env = d.Refine.Flow.env in
    let run () =
      if l.extracted then l.fallbacks <- l.fallbacks + 1;
      let w0 = Gc.minor_words () and c0 = Sim.Env.time env in
      let (), dt = time d.Refine.Flow.run in
      l.run_s <- l.run_s +. dt;
      l.run_words <- l.run_words +. (Gc.minor_words () -. w0);
      l.run_samples <- l.run_samples + (Sim.Env.time env - c0);
      l.runs <- l.runs + 1
    in
    let compiled =
      Option.map
        (fun (ce : Refine.Eval.compiled_eval) ->
          {
            ce with
            Refine.Eval.extract =
              (fun () ->
                let g, dt = time ce.Refine.Eval.extract in
                l.extract_s <- l.extract_s +. dt;
                l.extracts <- l.extracts + 1;
                l.nodes <- Sfg.Graph.node_count g;
                l.extracted <- true;
                g);
          })
        inst.Sweep.Workload.compiled
    in
    {
      inst with
      Sweep.Workload.design = { d with Refine.Flow.run };
      compiled;
      set_seed =
        (fun s ->
          l.extracted <- false;
          inst.Sweep.Workload.set_seed s);
    }
  in
  ({ w with Sweep.Workload.make_instance }, lanes)

type traced = {
  mutable sweeps : int;
  mutable cands : int;
  mutable gen_calls : int;
  mutable gen_s : float;
  mutable waves : int;
  mutable wave_s : float;
  mutable wave_tail_s : float;
  mutable busy_s : float;
  mutable minor_words : float;
  mutable major : int;
  mutable lanes : lane list;
}

let traced_totals () =
  {
    sweeps = 0;
    cands = 0;
    gen_calls = 0;
    gen_s = 0.0;
    waves = 0;
    wave_s = 0.0;
    wave_tail_s = 0.0;
    busy_s = 0.0;
    minor_words = 0.0;
    major = 0;
    lanes = [];
  }

(* One sweep with every hook on: wrapped workload closures, a timed
   generator, [on_wave] wave boundaries, and the pool's own candidate
   spans ([Trace.Spans]), which give each worker's busy time per wave. *)
let traced_sweep ctx shape tr =
  let w, lanes = instrument (shape.make ()) in
  let gen = grid ctx shape w in
  let wave_start = ref 0.0 and waves = ref [] in
  let generator =
    {
      gen with
      Sweep.Generator.next =
        (fun prev ->
          let r, dt = time (fun () -> gen.Sweep.Generator.next prev) in
          tr.gen_calls <- tr.gen_calls + 1;
          tr.gen_s <- tr.gen_s +. dt;
          wave_start := now ();
          r);
    }
  in
  let on_wave _ = waves := (!wave_start, now ()) :: !waves in
  let g0 = Gc.quick_stat () in
  Trace.Spans.reset ();
  Trace.Spans.set_enabled true;
  let (report, json), dt =
    Fun.protect
      ~finally:(fun () -> Trace.Spans.set_enabled false)
      (fun () ->
        time (fun () ->
            let r =
              Sweep.Pool.run ~jobs:ctx.jobs ~on_wave ~workload:w ~generator ()
            in
            (r, Sweep.Report.to_json r)))
  in
  let g1 = Gc.quick_stat () in
  let spans =
    List.filter (fun (s : Trace.Spans.span) -> s.Trace.Spans.cat = "sweep") (Trace.Spans.drain ())
  in
  List.iter
    (fun (ws, we) ->
      let per_tid = Hashtbl.create 4 in
      List.iter
        (fun (s : Trace.Spans.span) ->
          if s.Trace.Spans.t0 >= ws && s.Trace.Spans.t1 <= we then begin
            let d = s.Trace.Spans.t1 -. s.Trace.Spans.t0 in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt per_tid s.Trace.Spans.tid) in
            Hashtbl.replace per_tid s.Trace.Spans.tid (prev +. d);
            tr.busy_s <- tr.busy_s +. d
          end)
        spans;
      let busiest = Hashtbl.fold (fun _ v acc -> Float.max v acc) per_tid 0.0 in
      tr.waves <- tr.waves + 1;
      tr.wave_s <- tr.wave_s +. (we -. ws);
      tr.wave_tail_s <- tr.wave_tail_s +. (we -. ws -. busiest))
    !waves;
  tr.sweeps <- tr.sweeps + 1;
  tr.cands <- tr.cands + List.length report.Sweep.Report.entries + List.length report.Sweep.Report.failures;
  tr.minor_words <- tr.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  tr.major <- tr.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  tr.lanes <- !lanes @ tr.lanes;
  (report, json, dt)

let traced_metrics ctx tr =
  let lanes = tr.lanes in
  let fold f = List.fold_left (fun acc l -> acc + f l) 0 lanes in
  let foldf f = List.fold_left (fun acc l -> acc +. f l) 0.0 lanes in
  let extracts = fold (fun l -> l.extracts) in
  let runs = fold (fun l -> l.runs) and fallbacks = fold (fun l -> l.fallbacks) in
  let samples = fold (fun l -> l.run_samples) in
  let interpreted = runs in
  let per_sweep x = ratio x (fi tr.sweeps) in
  [
    m "generator.next_ms" "ms" (ratio tr.gen_s (fi tr.gen_calls) *. 1e3);
    m "pool.busy_frac" "frac" (ratio tr.busy_s (fi ctx.jobs *. tr.wave_s));
    m "pool.wave_tail_ms" "ms" (ratio tr.wave_tail_s (fi tr.waves) *. 1e3);
    m "pool.waves" "count" (per_sweep (fi tr.waves));
    m "eval.compiled_frac" "frac" (ratio (fi (tr.cands - interpreted)) (fi tr.cands));
    m "eval.fallbacks" "count" (per_sweep (fi fallbacks));
    m "interp.us_per_cand" "us" (ratio (foldf (fun l -> l.run_s)) (fi runs) *. 1e6);
    m "interp.ns_per_sample" "ns" (ratio (foldf (fun l -> l.run_s)) (fi samples) *. 1e9);
    m "interp.minor_words_per_sample" "words" (ratio (foldf (fun l -> l.run_words)) (fi samples));
    m "gc.minor_words_per_cand" "words" (ratio tr.minor_words (fi tr.cands));
    m "gc.major_collections" "count" (per_sweep (fi tr.major));
  ]
  @
  (* the extract layer as the end-to-end sweep saw it; compile and exec
     come from the layer replay *)
  if extracts = 0 then []
  else
    [
      m "extract.us_per_cand" "us" (foldf (fun l -> l.extract_s) /. fi extracts *. 1e6);
      m "extract.graph_nodes" "count"
        (fi (List.fold_left (fun acc l -> max acc l.nodes) 0 lanes));
    ]

(* --- correctness --------------------------------------------------------------- *)

(* Re-evaluate a spread sample of the reference report on the
   clock-true interpreter ([Refine.Eval.evaluate], independent of
   [Compile]); returns (checked, mismatches). *)
let interp_check shape (w : Sweep.Workload.t) (reference : Sweep.Report.t) =
  let entries = Array.of_list reference.Sweep.Report.entries in
  let n = Array.length entries in
  let k = min shape.interp_checks n in
  if k = 0 then (0, 0)
  else
    let inst = w.Sweep.Workload.make_instance () in
    let bad = ref 0 in
    for i = 0 to k - 1 do
      let e = entries.(i * n / k) in
      let c = e.Sweep.Report.candidate in
      Sim.Env.restore_into inst.Sweep.Workload.baseline inst.Sweep.Workload.env;
      inst.Sweep.Workload.set_seed c.Sweep.Candidate.stim_seed;
      let mi =
        Refine.Eval.evaluate ~assigns:(Sweep.Candidate.to_dtypes c)
          ~probe:w.Sweep.Workload.probe inst.Sweep.Workload.design
      in
      if not (Layers.same_metrics mi e.Sweep.Report.metrics) then incr bad
    done;
    (k, !bad)

(* The traced run's layer replay over a spread sample of the reference
   report, each candidate's rebuilt metrics checked against the
   end-to-end ones; plus the report layer ([Sweep.Report.make] and
   [to_json]) replayed over the whole result set. *)
let replay_layers shape (w : Sweep.Workload.t) (reference : Sweep.Report.t)
    ref_json =
  let entries = Array.of_list reference.Sweep.Report.entries in
  let n = Array.length entries in
  let tot = Layers.totals () in
  let bad = ref 0 in
  let k = min shape.replays n in
  if k > 0 then begin
    let inst = w.Sweep.Workload.make_instance () in
    for i = 0 to k - 1 do
      let e = entries.(i * n / k) in
      match Layers.replay tot ~probe:w.Sweep.Workload.probe inst e.Sweep.Report.candidate with
      | _, Layers.Computed mr when Layers.same_metrics mr e.Sweep.Report.metrics -> ()
      | _ -> incr bad
    done
  end;
  let results =
    List.map (fun (e : Sweep.Report.entry) -> (e.Sweep.Report.candidate, e.Sweep.Report.metrics))
      reference.Sweep.Report.entries
  in
  let report, make_s =
    time (fun () ->
        Sweep.Report.make ~workload:reference.Sweep.Report.workload
          ~strategy:reference.Sweep.Report.strategy ~probe:reference.Sweep.Report.probe
          ~conclusion:reference.Sweep.Report.conclusion
          ~failures:reference.Sweep.Report.failures results)
  in
  let json, json_s = time (fun () -> Sweep.Report.to_json report) in
  if not (String.equal json ref_json) then incr bad;
  ( k + 1,
    !bad,
    (* extract comes from the end-to-end sweep itself (its wrapped
       closure), and an uncached sweep computes no key *)
    (if k > 0 then
       List.filter
         (fun (x : metric) ->
           not (String.starts_with ~prefix:"extract." x.name || String.starts_with ~prefix:"key." x.name))
         (Layers.metrics tot)
     else [])
    @ [ m "report.make_ms" "ms" (make_s *. 1e3); m "report.json_ms" "ms" (json_s *. 1e3) ] )

(* --- the run --------------------------------------------------------------------- *)

let run ctx shape =
  (* before any domain exists: spawning is simplest from a one-domain
     process, and OCaml refuses to fork once a domain was spawned *)
  let setup = if ctx.trace then 0.0 else setup_probe ~workload:shape.name ~seed:ctx.seed () in
  (* serve-mix and refine-verify are not gated (their figures drifted
     with the host, see README.md), so the traced runs of the sweeps
     measure their layers: sweep-fir with a 3 s traced serve-mix (same
     fir workload), sweep-sync with a 3 s traced refine-verify *)
  let borrowed =
    match shape.borrowed with
    | Some (prefixes, run) when ctx.trace ->
        Some (prefixes, run { ctx with seconds = 3.0; state = Filename.concat ctx.state "borrowed" })
    | _ -> None
  in
  let w = shape.make () in
  let sweep ~jobs =
    time (fun () ->
        let r = Sweep.Pool.run ~jobs ~workload:w ~generator:(grid ctx shape w) () in
        (r, Sweep.Report.to_json r))
  in
  let (reference, ref_json), _ = sweep ~jobs:1 in
  let per_sweep =
    List.length reference.Sweep.Report.entries + List.length reference.Sweep.Report.failures
  in
  let tr = traced_totals () in
  let untraced = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_end = now () +. ctx.seconds in
  let i = ref 0 in
  while now () < t_end do
    let report, json, dt =
      if traced_iteration ctx !i then traced_sweep ctx shape tr
      else
        let (r, j), dt = sweep ~jobs:ctx.jobs in
        (r, j, dt)
    in
    (if traced_iteration ctx !i then traced := dt :: !traced
     else untraced := dt :: !untraced);
    (* every sweep's report must equal the jobs=1 reference (checked
       at once, so that no report outlives its sweep) *)
    let json =
      if ctx.tamper && !i = 0 then String.map (function '1' -> '2' | c -> c) json else json
    in
    attempted := !attempted + per_sweep;
    failed := !failed + List.length report.Sweep.Report.failures;
    if not (String.equal json ref_json) then failed := !failed + per_sweep;
    incr i
  done;
  let peak = peak_rss_mb () in
  let checked, bad = interp_check shape w reference in
  attempted := !attempted + checked;
  failed := !failed + bad;
  let layer_metrics =
    if ctx.trace then begin
      let checked, bad, ms = replay_layers shape w reference ref_json in
      attempted := !attempted + checked;
      failed := !failed + bad;
      ms
    end
    else []
  in
  let layer_metrics =
    match borrowed with
    | None -> layer_metrics
    | Some (prefixes, (o : outcome)) ->
        attempted := !attempted + o.attempted;
        failed := !failed + o.failed;
        layer_metrics
        @ List.filter
            (fun (x : metric) -> List.exists (fun prefix -> String.starts_with ~prefix x.name) prefixes)
            o.metrics
  in
  let walls = !untraced in
  let n = List.length walls in
  let tail_ms, tail_pct, tail_blocks = tail (List.map (fun x -> x *. 1e3) walls) in
  let metrics =
    if ctx.trace then
      traced_metrics ctx tr @ layer_metrics
      @ [ m "trace.overhead_frac" "frac" (overhead_frac ~traced:!traced ~untraced:walls) ]
    else
      [
        m "setup_s" "s" setup;
        m "jobs_per_s" "1/s" (1.0 /. median walls);
        m "job_p50_ms" "ms" (median walls *. 1e3);
        m "job_tail_ms" "ms" tail_ms;
        m "candidates_per_s" "1/s" (fi per_sweep /. median walls);
        m "peak_rss_mb" "MB" peak;
      ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    detail =
      [
        ("candidates_per_sweep", string_of_int per_sweep);
        ("sweeps", string_of_int n);
        ("job_tail_percentile", json_num tail_pct);
        ("job_tail_blocks", string_of_int tail_blocks);
        ("f_range", Printf.sprintf "[%d, %d]" shape.f_min shape.f_max);
        ("stim_seeds", Printf.sprintf "[%d, %d]" (1000 * ctx.seed) ((1000 * ctx.seed) + shape.n_seeds - 1));
        ("interp_checked", string_of_int checked);
      ];
  }
