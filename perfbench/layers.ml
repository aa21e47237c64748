(* The compiled evaluation path, one layer at a time.

   [Refine.Eval.evaluate_compiled] runs extract → key → lookup →
   compile → exec as one call, so its layers cannot be timed from
   outside.  [replay] calls the same public functions in the same
   order on the same candidate and times each; the caller checks that
   the metrics it rebuilds equal the ones the end-to-end call
   returned, which keeps the split honest. *)

open Pb_util

(* Per-layer totals over the replayed candidates. *)
type totals = {
  mutable cands : int;
  mutable extract_s : float;
  mutable graph_nodes : int;
  mutable keys : int;
  mutable key_s : float;
  mutable key_bytes : int;
  mutable compiles : int;
  mutable compile_s : float;
  mutable instrs : int;
  mutable exec_s : float;
  mutable exec_words : float;
  mutable exec_cycles : int;
}

let totals () =
  {
    cands = 0;
    extract_s = 0.0;
    graph_nodes = 0;
    keys = 0;
    key_s = 0.0;
    key_bytes = 0;
    compiles = 0;
    compile_s = 0.0;
    instrs = 0;
    exec_s = 0.0;
    exec_words = 0.0;
    exec_cycles = 0;
  }

(* The probe's monitor points in the compiled program, located the way
   the evaluator locates them: through the [_sat] saturation and the
   [_q] quantizer that the recorded assignment pipeline inserts. *)
let probe_monitors g prog probe =
  match Compile.find prog probe with
  | None -> None
  | Some pid -> (
      let nd = Sfg.Graph.node g pid in
      match (nd.Sfg.Node.op, nd.Sfg.Node.inputs) with
      | (Sfg.Node.Alias | Sfg.Node.Delay _), [ src ] -> (
          let src =
            let s = Sfg.Graph.node g src in
            match (s.Sfg.Node.op, s.Sfg.Node.inputs) with
            | Sfg.Node.Saturate _, [ inner ]
              when String.equal s.Sfg.Node.name (probe ^ "_sat") ->
                inner
            | _ -> src
          in
          let post = Sfg.Graph.node g src in
          match (post.Sfg.Node.op, post.Sfg.Node.inputs) with
          | Sfg.Node.Quantize _, [ pre ]
            when String.equal post.Sfg.Node.name (probe ^ "_q") ->
              Some (pre, src)
          | _ -> Some (src, src))
      | _ -> None)

type step = Hit of Refine.Eval.metrics | Computed of Refine.Eval.metrics

(* Replay one candidate on [inst] (restored to its baseline first).
   [key] = Some context computes the cache key, and [lookup] is then
   consulted with it exactly where the evaluator would; [None] skips
   both, as an uncached sweep does. *)
let replay ?key ?(lookup = fun _ -> None) tot ~probe
    (inst : Sweep.Workload.instance) (c : Sweep.Candidate.t) =
  let ce =
    match inst.Sweep.Workload.compiled with
    | Some ce -> ce
    | None -> invalid_arg "Layers.replay: workload has no compiled path"
  in
  let design = inst.Sweep.Workload.design in
  let env = design.Refine.Flow.env in
  Sim.Env.restore_into inst.Sweep.Workload.baseline env;
  inst.Sweep.Workload.set_seed c.Sweep.Candidate.stim_seed;
  let assigns = Sweep.Candidate.to_dtypes c in
  let seed = c.Sweep.Candidate.stim_seed in
  Refine.Eval.apply_assigns env assigns;
  design.Refine.Flow.reset ();
  tot.cands <- tot.cands + 1;
  let g, dt = time ce.Refine.Eval.extract in
  tot.extract_s <- tot.extract_s +. dt;
  tot.graph_nodes <- Sfg.Graph.node_count g;
  let key =
    Option.map
      (fun context ->
        let (k, bytes), dt =
          time (fun () ->
              let json = Sfg.Graph.canonical_json g in
              ( Refine.Eval.cache_key ~design:json ~assigns ~probe:(Some probe)
                  ~seed ~cycles:ce.Refine.Eval.cycles ~context,
                String.length json ))
        in
        tot.keys <- tot.keys + 1;
        tot.key_s <- tot.key_s +. dt;
        tot.key_bytes <- bytes;
        k)
      key
  in
  match Option.bind key lookup with
  | Some m -> (key, Hit m)
  | None ->
      let prog, dt = time (fun () -> Compile.compile ~dual:true g) in
      tot.compiles <- tot.compiles + 1;
      tot.compile_s <- tot.compile_s +. dt;
      tot.instrs <- Compile.instr_count prog;
      let pre, post =
        match probe_monitors g prog probe with
        | Some pm -> pm
        | None -> failwith ("Layers.replay: probe not in the compiled graph: " ^ probe)
      in
      let vals = Stats.Running.create () in
      let errs = Stats.Err_stats.create () in
      let stim = ce.Refine.Eval.stimulus ~seed in
      let inputs name ~lane:_ step = stim name step in
      let on_step _ =
        let fxpre = Compile.value prog ~id:pre ~lane:0 in
        let flpre = Compile.value_ref prog ~id:pre ~lane:0 in
        let fxpost = Compile.value prog ~id:post ~lane:0 in
        Stats.Running.add vals fxpre;
        Stats.Err_stats.record errs ~consumed:(flpre -. fxpre)
          ~produced:(flpre -. fxpost)
      in
      let cycles = ce.Refine.Eval.cycles in
      let w0 = Gc.minor_words () in
      let (), dt = time (fun () -> Compile.run ~on_step prog ~steps:cycles ~inputs) in
      tot.exec_words <- tot.exec_words +. (Gc.minor_words () -. w0);
      tot.exec_s <- tot.exec_s +. dt;
      tot.exec_cycles <- tot.exec_cycles + cycles;
      let produced = Stats.Err_stats.produced errs in
      ( key,
        Computed
          {
            Refine.Eval.sqnr_db = Refine.Flow.sqnr_db_of ~values:vals ~errors:produced;
            total_bits = Refine.Eval.total_bits env;
            overflow_count = Compile.overflow_count prog;
            probe_err_max = Stats.Running.max_abs produced;
            probe_values = Some vals;
            probe_err = Some errs;
            counters = None;
          } )

(* Bit-exact equality of two metrics records (the cache codec is
   bit-exact, so equal encodings mean equal records). *)
let same_metrics a b = String.equal (Serve.Codec.encode a) (Serve.Codec.encode b)

(* The per-layer metrics of the compiled path (0 for a layer no
   replayed candidate reached). *)
let metrics tot =
  let per n s scale = if n = 0 then 0.0 else s /. fi n *. scale in
  [
    m "extract.us_per_cand" "us" (per tot.cands tot.extract_s 1e6);
    m "extract.graph_nodes" "count" (fi tot.graph_nodes);
    m "key.us_per_cand" "us" (per tot.keys tot.key_s 1e6);
    m "key.json_bytes" "bytes" (fi tot.key_bytes);
    m "compile.us_per_cand" "us" (per tot.compiles tot.compile_s 1e6);
    m "compile.instrs" "count" (fi tot.instrs);
    m "exec.ns_per_lane_cycle" "ns" (per tot.exec_cycles tot.exec_s 1e9);
    m "exec.minor_words_per_cycle" "words" (per tot.exec_cycles tot.exec_words 1.0);
  ]
