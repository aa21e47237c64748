(* The six standard conformance workloads.  Everything here is
   deterministic: fixed environment seeds, fixed stimulus generator
   seeds, fixed sample counts — so a build+run is bit-reproducible and
   its trace can be snapshotted as a golden file. *)

type built = {
  env : Sim.Env.t;
  workload : string;
  probe : string;
  run : unit -> unit;
  graph : Sfg.Graph.t option;
  extract_graph : (unit -> Sfg.Graph.t) option;
  divergence_bound : float option;
  max_divergence : unit -> float;
  sqnr : Stats.Sqnr.t;
  predicted_sqnr_db : (unit -> float) option;
  sqnr_tolerance_db : float;
  stat_tolerance : float;
  design : Refine.Flow.design option;
  vcd : unit -> string;
}

type t = { name : string; build : unit -> built }

(* How many leading cycles each run samples into its VCD trace. *)
let vcd_cycles = 64

(* Per-probe trackers shared by every workload: SQNR of fixed vs float
   at the probe, the worst observed divergence, and the VCD text of the
   last run. *)
type tracker = {
  tk_sqnr : Stats.Sqnr.t;
  tk_div : float ref;
  tk_vcd : string ref;
}

let tracker () =
  { tk_sqnr = Stats.Sqnr.create (); tk_div = ref 0.0; tk_vcd = ref "" }

let reset_tracker tk =
  Stats.Sqnr.reset tk.tk_sqnr;
  tk.tk_div := 0.0

let observe tk probe =
  let fx = Sim.Signal.peek_fx probe and fl = Sim.Signal.peek_fl probe in
  Stats.Sqnr.add tk.tk_sqnr ~reference:fl ~actual:fx;
  let d = Float.abs (fl -. fx) in
  if d > !(tk.tk_div) then tk.tk_div := d

(* Run [body sample] with a fresh VCD capturing [signals]; [sample t]
   records the probes at time [t] for the first {!vcd_cycles} cycles. *)
let with_vcd tk ~name ~signals body =
  let vcd = Sim.Vcd.create () in
  List.iter (Sim.Vcd.probe vcd) signals;
  Sim.Vcd.start ~date:("fxrefine conformance: " ^ name) vcd;
  body (fun time -> if time < vcd_cycles then Sim.Vcd.sample vcd ~time);
  tk.tk_vcd := Sim.Vcd.contents vcd

(* Worst-case error amplification of a CORDIC x/y chain:
   prod (1 + 2^-i) over the iterations. *)
let cordic_amplification iters =
  let a = ref 1.0 in
  for i = 0 to iters - 1 do
    a := !a *. (1.0 +. (2.0 ** Float.of_int (-i)))
  done;
  !a

(* --- FIR: loop-free, fully analysable ---------------------------------- *)

let fir_coefs = [| 0.25; 0.5; 0.25 |]

let build_fir () =
  let name = "fir" in
  let n_samples = 600 in
  let rng = Stats.Rng.create ~seed:701 in
  let stimulus =
    Array.init n_samples (fun _ -> Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5)
  in
  let env = Sim.Env.create ~seed:7 () in
  let sat = Fixpt.Overflow_mode.Saturate in
  let x_dtype = Fixpt.Dtype.make "T_in" ~n:8 ~f:6 ~overflow:sat () in
  let acc_dtype = Fixpt.Dtype.make "T_acc" ~n:14 ~f:10 ~overflow:sat () in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.5) 1.5;
  let fir =
    Dsp.Fir.create env ~delay_dtype:x_dtype ~acc_dtype ~coefs:fir_coefs ()
  in
  let probe = "v[3]" in
  let probe_sig = Sim.Env.find_exn env probe in
  let tk = tracker () in
  let run () =
    with_vcd tk ~name ~signals:[ x; probe_sig ] (fun sample ->
        Sim.Engine.run env ~cycles:n_samples (fun cycle ->
            let open Sim.Ops in
            x <-- Sim.Value.of_float stimulus.(cycle);
            ignore (Dsp.Fir.step fir !!x);
            observe tk probe_sig;
            sample cycle))
  in
  let graph =
    let g = Sfg.Graph.create () in
    ignore (Dsp.Fir.to_sfg g ~coefs:fir_coefs ~input_range:(-1.5, 1.5));
    g
  in
  let qx = Fixpt.Dtype.step x_dtype and qacc = Fixpt.Dtype.step acc_dtype in
  let gain = Dsp.Fir.worst_case_gain fir_coefs in
  (* input quantization through every tap, plus one accumulator cast per
     chain stage (the products land on the accumulator grid here, so the
     acc terms are pure margin) *)
  let bound = (gain *. qx /. 2.0) +. (3.0 *. qacc /. 2.0) in
  let predicted_sqnr_db () =
    let n = Stats.Sqnr.count tk.tk_sqnr in
    if n = 0 then Float.neg_infinity
    else
      let p_sig = Stats.Sqnr.signal_energy tk.tk_sqnr /. Float.of_int n in
      let p_noise =
        Array.fold_left
          (fun acc c -> acc +. (c *. c *. qx *. qx /. 12.0))
          (3.0 *. qacc *. qacc /. 12.0)
          fir_coefs
      in
      10.0 *. Float.log10 (p_sig /. p_noise)
  in
  let design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          Sim.Env.reset env;
          reset_tracker tk);
      run;
    }
  in
  let extract_graph () =
    Sim.Extract.graph env
      ~step:(fun () ->
        let open Sim.Ops in
        x <-- Sim.Value.of_float stimulus.(0);
        ignore (Dsp.Fir.step fir !!x))
      ()
  in
  {
    env;
    workload = name;
    probe;
    run;
    graph = Some graph;
    extract_graph = Some extract_graph;
    divergence_bound = Some bound;
    max_divergence = (fun () -> !(tk.tk_div));
    sqnr = tk.tk_sqnr;
    predicted_sqnr_db = Some predicted_sqnr_db;
    sqnr_tolerance_db = 6.0;
    stat_tolerance = 0.05;
    design = Some design;
    vcd = (fun () -> !(tk.tk_vcd));
  }

(* --- registry designs: LMS, timing recovery, synchronizer -------------- *)

(* A conformance workload over a registry scenario: the monitored run
   clocks the scenario's [step] and samples the probe each cycle;
   [vcd_signals probe] lists the traced signals. *)
let of_scenario ~name ~vcd_signals ?graph ~stat_tolerance
    (sc : _ Scenario.t) =
  let env = sc.Scenario.env in
  let probe_sig = Sim.Env.find_exn env sc.Scenario.probe in
  let tk = tracker () in
  let run () =
    with_vcd tk ~name ~signals:(vcd_signals probe_sig) (fun sample ->
        Sim.Engine.run env ~cycles:sc.Scenario.cycles (fun cycle ->
            sc.Scenario.step ();
            observe tk probe_sig;
            sample cycle))
  in
  let design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          sc.Scenario.design.Refine.Flow.reset ();
          reset_tracker tk);
      run;
    }
  in
  {
    env;
    workload = name;
    probe = sc.Scenario.probe;
    run;
    graph;
    extract_graph = Some (fun () -> sc.Scenario.extract ());
    divergence_bound = None (* feedback loops: no closed form *);
    max_divergence = (fun () -> !(tk.tk_div));
    sqnr = tk.tk_sqnr;
    predicted_sqnr_db = None;
    sqnr_tolerance_db = 0.0;
    stat_tolerance;
    design = Some design;
    vcd = (fun () -> !(tk.tk_vcd));
  }

(* The motivational example.  No [b_range] on the analytical twin: it
   must explode on the adaptation loop (b, w, ...), exactly as the
   paper's first iteration reports; the bounded feed-forward part (x,
   d, c, v) stays comparable. *)
let build_lms () =
  let sc = Scenario.lms ~n_symbols:1200 () in
  let eq = sc.Scenario.block and r = sc.Scenario.input_range in
  of_scenario ~name:"lms" ~stat_tolerance:0.25
    ~graph:(Dsp.Lms_equalizer.to_sfg ~input_range:(-.r, r) ())
    ~vcd_signals:(fun probe -> Dsp.Lms_equalizer.[ x eq; probe; b eq; y eq ])
    sc

(* --- CORDIC rotator: deep feed-forward --------------------------------- *)

let build_cordic () =
  let name = "cordic" in
  let iters = 10 in
  let n_rotations = 400 in
  let rng = Stats.Rng.create ~seed:3101 in
  let stimulus =
    Array.init n_rotations (fun _ ->
        let x = Stats.Rng.uniform rng ~lo:(-0.55) ~hi:0.55 in
        let y = Stats.Rng.uniform rng ~lo:(-0.55) ~hi:0.55 in
        let z = Stats.Rng.uniform rng ~lo:(-1.2) ~hi:1.2 in
        (x, y, z))
  in
  let env = Sim.Env.create ~seed:31 () in
  let cor = Dsp.Cordic.create env ~iters () in
  let dtype =
    Fixpt.Dtype.make "T_stage" ~n:12 ~f:10
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  List.iter (fun s -> Sim.Signal.set_dtype s dtype) (Dsp.Cordic.signals cor);
  let x_out, _, _ = Dsp.Cordic.stage_signals cor iters in
  let x_in, _, z_in = Dsp.Cordic.stage_signals cor 0 in
  let probe = Sim.Signal.name x_out in
  let tk = tracker () in
  let run () =
    with_vcd tk ~name ~signals:[ x_in; z_in; x_out ] (fun sample ->
        Sim.Engine.run env ~cycles:n_rotations (fun cycle ->
            let x, y, z = stimulus.(cycle) in
            ignore
              (Dsp.Cordic.rotate cor ~x:(Sim.Value.of_float x)
                 ~y:(Sim.Value.of_float y) ~z:(Sim.Value.of_float z));
            observe tk x_out;
            sample cycle))
  in
  let step = Fixpt.Dtype.step dtype in
  (* every stage casts x and y once (≤ step/2 each) and the per-stage
     amplification is (1 + 2^-i); decisions are fixed-point-steered, so
     the float reference follows the same rotation directions *)
  let bound =
    cordic_amplification iters *. Float.of_int (iters + 1) *. step /. 2.0
    *. 1.5
  in
  let extract_graph () =
    Sim.Extract.graph env
      ~step:(fun () ->
        let x, y, z = stimulus.(0) in
        ignore
          (Dsp.Cordic.rotate cor ~x:(Sim.Value.of_float x)
             ~y:(Sim.Value.of_float y) ~z:(Sim.Value.of_float z)))
      ()
  in
  {
    env;
    workload = name;
    probe;
    run;
    graph = None;
    extract_graph = Some extract_graph;
    divergence_bound = Some bound;
    max_divergence = (fun () -> !(tk.tk_div));
    sqnr = tk.tk_sqnr;
    predicted_sqnr_db = None;
    sqnr_tolerance_db = 0.0;
    stat_tolerance = 0.1;
    design = None;
    vcd = (fun () -> !(tk.tk_vcd));
  }

(* --- PAM timing recovery: the feedback-heavy complex example ----------- *)

let build_timing () =
  let sc = Scenario.timing ~n_symbols:700 () in
  of_scenario ~name:"timing" ~stat_tolerance:0.25
    ~vcd_signals:(fun probe ->
      [ Dsp.Timing_recovery.input_signal sc.Scenario.block; probe ])
    sc

(* --- Closed ML-TED synchronizer: drifting-tau M-PAM, decision-directed - *)

let build_sync () =
  let sc = Scenario.sync ~n_symbols:700 () in
  of_scenario ~name:"sync" ~stat_tolerance:0.25
    ~vcd_signals:(fun probe ->
      [ Dsp.Synchronizer.input_signal sc.Scenario.block; probe ])
    sc

(* --- DDC: NCO + CORDIC mixer + CIC decimators -------------------------- *)

let build_ddc () =
  let name = "ddc" in
  let n_samples = 1200 in
  let rate = 8 and order = 2 in
  let rng = Stats.Rng.create ~seed:1301 in
  let stimulus =
    Array.init n_samples (fun _ -> Stats.Rng.uniform rng ~lo:(-0.9) ~hi:0.9)
  in
  let env = Sim.Env.create ~seed:13 () in
  let x_dtype =
    Fixpt.Dtype.make "T_if" ~n:10 ~f:8 ~overflow:Fixpt.Overflow_mode.Saturate
      ()
  in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let ddc = Dsp.Ddc.create env ~fcw:0.21 ~rate ~order () in
  let i_out, q_out = Dsp.Ddc.outputs ddc in
  let probe = Sim.Signal.name i_out in
  let tk = tracker () in
  let run () =
    with_vcd tk ~name
      ~signals:[ Dsp.Ddc.phase ddc; i_out; q_out ]
      (fun sample ->
        Sim.Engine.run env ~cycles:n_samples (fun cycle ->
            let open Sim.Ops in
            x <-- Sim.Value.of_float stimulus.(cycle);
            (match Dsp.Ddc.step ddc !!x with
            | Some _ -> observe tk i_out
            | None -> ());
            sample cycle))
  in
  let qx = Fixpt.Dtype.step x_dtype in
  (* the only cast is the input: its ≤ qx/2 error is scaled by 1/K,
     amplified by the CORDIC chain, then summed by the CIC whose l1
     gain is rate^order (all-positive impulse response) *)
  let bound =
    qx /. 2.0
    /. Dsp.Cordic.gain Dsp.Ddc.cordic_iters
    *. cordic_amplification Dsp.Ddc.cordic_iters
    *. (Float.of_int rate ** Float.of_int order)
    *. 1.25
  in
  let extract_graph () =
    Sim.Extract.graph env
      ~step:(fun () ->
        let open Sim.Ops in
        x <-- Sim.Value.of_float stimulus.(0);
        ignore (Dsp.Ddc.step ddc !!x))
      ()
  in
  {
    env;
    workload = name;
    probe;
    run;
    graph = None;
    extract_graph = Some extract_graph;
    divergence_bound = Some bound;
    max_divergence = (fun () -> !(tk.tk_div));
    sqnr = tk.tk_sqnr;
    predicted_sqnr_db = None;
    sqnr_tolerance_db = 0.0;
    stat_tolerance = 0.75;
    design = None;
    vcd = (fun () -> !(tk.tk_vcd));
  }

let all =
  [
    { name = "fir"; build = build_fir };
    { name = "lms"; build = build_lms };
    { name = "cordic"; build = build_cordic };
    { name = "timing"; build = build_timing };
    { name = "sync"; build = build_sync };
    { name = "ddc"; build = build_ddc };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let flowgraph w =
  let b = w.build () in
  match (b.extract_graph, b.graph) with
  | Some extract, _ -> extract ()
  | None, Some g -> g
  | None, None -> failwith ("no flowgraph for workload " ^ w.name)
