(* The scenario registry: each example design declared once.  See the
   interface for the contract. *)

type 'block t = {
  env : Sim.Env.t;
  block : 'block;
  probe : string;
  cycles : int;
  step : unit -> unit;
  design : Refine.Flow.design;
  reseed : int -> unit;
  sent : unit -> float array;
  output : Sim.Channel.t;
  input_range : float;
  extract : ?outputs:string list -> unit -> Sfg.Graph.t;
}

let names =
  [ "fir"; "lms"; "timing"; "sync"; "cordic-12"; "ddc-frontend"; "fft-16" ]

(* A seeded stimulus generator that every rewind replays from its
   current seed ([reseed] sets the seed the next rewind uses). *)
type seeded = { rng : Stats.Rng.t; seed : int ref }

let seeded seed = { rng = Stats.Rng.create ~seed; seed = ref seed }
let rewind_seeded s = Stats.Rng.reseed s.rng ~seed:!(s.seed)

(* A generated channel stimulus.  [gen rng] returns the sample function,
   the transmitted symbols and the run length; the stream regenerates
   on the first rewind after [reseed] changed its generator seed, so a
   design that is never reseeded generates exactly once. *)
type stream = {
  input : Sim.Channel.t;
  rewind : unit -> unit;
  reseed_to : int -> unit;
  symbols : unit -> float array;
  length : int;
}

let stream ~name ~seed gen =
  let stim0, sent0, length = gen (Stats.Rng.create ~seed) in
  let stim = ref stim0 and sent = ref sent0 in
  let made = ref seed and wanted = ref seed in
  let input = Sim.Channel.of_fun name (fun i -> !stim i) in
  let rewind () =
    Sim.Channel.clear input;
    if !wanted <> !made then begin
      let s, a, _ = gen (Stats.Rng.create ~seed:!wanted) in
      stim := s;
      sent := a;
      made := !wanted
    end
  in
  {
    input;
    rewind;
    reseed_to = (fun s -> wanted := s);
    symbols = (fun () -> !sent);
    length;
  }

(* One clocked design: reset rewinds the environment and the stimulus,
   a run clocks [step] for [cycles]. *)
let make ~env ~block ~probe ~cycles ~step ~rewind ~reseed ~sent ~output
    ~input_range =
  let design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          Sim.Env.reset env;
          rewind ());
      run = (fun () -> Sim.Engine.run env ~cycles (fun _ -> step ()));
    }
  in
  {
    env;
    block;
    probe;
    cycles;
    step;
    design;
    reseed;
    sent;
    output;
    input_range;
    extract = (fun ?outputs () -> Sim.Extract.graph env ?outputs ~step ());
  }

(* A channel-fed loop: one [step] per input sample; a rewind also clears
   the output channel and the [extra] ones. *)
let channel_scenario ~env ~block ~probe ~(stream : stream) ~output
    ?(extra = []) ~input_range ~step () =
  make ~env ~block ~probe ~cycles:stream.length ~step
    ~rewind:(fun () ->
      stream.rewind ();
      Sim.Channel.clear output;
      List.iter Sim.Channel.clear extra)
    ~reseed:stream.reseed_to ~sent:stream.symbols ~output ~input_range

let range env name lo hi = Sim.Signal.range (Sim.Env.find_exn env name) lo hi

(* The paper's five knowledge-based saturation choices for a timing
   loop (§6.1): the NCO's fractional interval, the loop-filter error,
   the detector error, the interpolant and the decision-instant
   output. *)
let loop_ranges env ~mu ~error =
  Sim.Signal.range mu 0.0 1.0;
  range env "lf_lferr" (-0.25) 0.25;
  Sim.Signal.range error (-4.0) 4.0;
  range env "ip_out" (-2.0) 2.0;
  range env "out" (-2.0) 2.0

(* --- the 5-tap FIR ------------------------------------------------------- *)

let fir_coefs = [| 0.1; 0.25; 0.3; 0.25; 0.1 |]

type fir_source = Uniform | Channel

let uniform_samples ~seed n =
  let rng = Stats.Rng.create ~seed:12 in
  Stats.Rng.reseed rng ~seed;
  Array.init n (fun _ -> Stats.Rng.uniform_sym rng 1.0)

let fir ?(n = 512) ?(source = Uniform) ?(typed_input = false) () =
  let env = Sim.Env.create ~seed:3 () in
  let sample, rewind, reseed, sent =
    match source with
    | Uniform ->
        let src = seeded 12 in
        ( (fun () -> Stats.Rng.uniform_sym src.rng 1.0),
          (fun () -> rewind_seeded src),
          (fun s -> src.seed := s),
          fun () -> [||] )
    | Channel ->
        let s =
          stream ~name:"in" ~seed:12 (fun rng ->
              let stim, sent =
                Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n ()
              in
              (stim, sent, n))
        in
        ((fun () -> Sim.Channel.get s.input), s.rewind, s.reseed_to, s.symbols)
  in
  let dtype =
    if typed_input then Some (Fixpt.Dtype.make "T" ~n:8 ~f:6 ()) else None
  in
  let x = Sim.Signal.create env ?dtype "x" in
  Sim.Signal.range x (-1.2) 1.2;
  let f = Dsp.Fir.create env ~coefs:fir_coefs () in
  let out = Sim.Signal.create env "out" in
  let step () =
    let open Sim.Ops in
    x <-- Sim.Value.of_float (sample ());
    out <-- Dsp.Fir.step f !!x
  in
  make ~env ~block:f ~probe:"out" ~cycles:n ~step ~rewind ~reseed ~sent
    ~output:(Sim.Channel.create "out") ~input_range:1.2

(* A feed-forward design on a seeded source: one [step] per cycle, no
   output channel, no transmitted symbols unless [sent] says otherwise. *)
let feed_forward ~env ~block ~probe ~cycles ~step ~src ?(rewind = ignore)
    ?(sent = fun () -> [||]) () =
  make ~env ~block ~probe ~cycles ~step
    ~rewind:(fun () ->
      rewind_seeded src;
      rewind ())
    ~reseed:(fun s -> src.seed := s)
    ~sent ~output:(Sim.Channel.create probe) ~input_range:1.0

(* --- the LMS equalizer (Fig. 1, Tables 1-2) ------------------------------ *)

let lms ?(n_symbols = 4000) ?(seed = 2024) ?(noise_sigma = 0.02)
    ?(steered = true) ?(typed_input = true) ?(record = false) () =
  let env = Sim.Env.create ~seed:11 () in
  let stream =
    stream ~name:"rx" ~seed (fun rng ->
        let stim, sent =
          Dsp.Channel_model.isi_awgn ~noise_sigma ~rng ~n_symbols ()
        in
        (stim, sent, n_symbols))
  in
  let output = Sim.Channel.create ~record "decisions" in
  let x_dtype =
    if typed_input then
      Some
        (Fixpt.Dtype.make "T_input" ~n:7 ~f:5
           ~overflow:Fixpt.Overflow_mode.Saturate ())
    else None
  in
  let eq =
    Dsp.Lms_equalizer.create env ~steered ?x_dtype ~input:stream.input
      ~output ()
  in
  let input_range = 1.5 in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-.input_range) input_range;
  channel_scenario ~env ~block:eq ~probe:"w" ~stream ~output ~input_range
    ~step:(fun () -> Dsp.Lms_equalizer.step eq)
    ()

(* --- the Gardner PAM timing-recovery loop (Fig. 5, §6.1) ----------------- *)

let timing ?(n_symbols = 4000) ?(seed = 99) ?(noise_sigma = 0.01)
    ?(input_bits = (10, 8)) ?(knowledge_ranges = true) ?kp ?ki
    ?(record = false) () =
  let env = Sim.Env.create ~seed:5 () in
  let stream =
    stream ~name:"rx" ~seed (fun rng ->
        Dsp.Channel_model.timing_offset_pam ~rng ~n_symbols ~tau:0.3
          ~noise_sigma ())
  in
  let output = Sim.Channel.create ~record "symbols" in
  let n, f = input_bits in
  let x_dtype =
    Fixpt.Dtype.make "T_input" ~n ~f ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let tr =
    Dsp.Timing_recovery.create env ?kp ?ki ~x_dtype ~input:stream.input
      ~output ()
  in
  let input_range = 1.6 in
  Sim.Signal.range
    (Dsp.Timing_recovery.input_signal tr)
    (-.input_range) input_range;
  if knowledge_ranges then
    loop_ranges env
      ~mu:(Dsp.Nco.mu (Dsp.Timing_recovery.nco tr))
      ~error:(Sim.Env.find_exn env "ted_err");
  channel_scenario ~env ~block:tr ~probe:"out" ~stream ~output ~input_range
    ~step:(fun () -> Dsp.Timing_recovery.step tr)
    ()

(* --- the closed ML-TED / Gardner M-PAM synchronizer ---------------------- *)

let sync ?(n_symbols = 4000) ?(seed = 463) ?(ted = Dsp.Synchronizer.Ml)
    ?(m = 4) ?(input_range = 1.6) ?(record = false) ?decisions () =
  let env = Sim.Env.create ~seed:17 () in
  let stream =
    stream ~name:"rx" ~seed (fun rng ->
        Dsp.Channel_model.drifting_tau_pam ~rng ~n_symbols ~m ~tau0:0.3
          ~tau_drift:1e-4 ~phase:0.05 ~noise_sigma:0.01 ())
  in
  let output = Sim.Channel.create ~record "symbols" in
  let x_dtype =
    Fixpt.Dtype.make "T_input" ~n:10 ~f:8
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let sy =
    Dsp.Synchronizer.create env ~ted ~m ~x_dtype ~input:stream.input ~output
      ?decisions ()
  in
  Sim.Signal.range
    (Dsp.Synchronizer.input_signal sy)
    (-.input_range) input_range;
  loop_ranges env
    ~mu:(Dsp.Nco.mu (Dsp.Synchronizer.nco sy))
    ~error:(Dsp.Synchronizer.error_signal sy);
  (* the ML-TED's derivative matched filter swings harder than the
     interpolant *)
  Option.iter
    (fun s -> Sim.Signal.range s (-4.0) 4.0)
    (Sim.Env.find env "ip_dout");
  channel_scenario ~env ~block:sy ~probe:"out" ~stream ~output
    ~extra:(Option.to_list decisions) ~input_range
    ~step:(fun () -> Dsp.Synchronizer.step sy)
    ()

(* §6.1: the NCO phase register's float/fixed error monitoring is
   meaningless under decision-steered feedback — the designer overrules
   it with [error()] before refinement instead of waiting for the
   divergence detector (the loop is self-correcting, so the spurious
   monitor reading may stay formally bounded while still being noise).
   The annotation survives {!Sim.Env.reset}. *)
let overrule_nco_phase sc config =
  let auto_error_lsb = -8 in
  let h = Refine.Lsb_rules.error_halfwidth_of_lsb auto_error_lsb in
  Sim.Signal.error (Dsp.Nco.phase (Dsp.Synchronizer.nco sc.block)) h;
  {
    config with
    Refine.Flow.auto_error_lsb;
    error_overrides = [ ("nco_eta", h) ];
  }

(* --- the 12-stage CORDIC rotator ----------------------------------------- *)

let cordic ?(n = 2000) ?(seed = 4) () =
  let env = Sim.Env.create ~seed:31 () in
  let src = seeded seed in
  let rotator = Dsp.Cordic.create env ~iters:12 () in
  (* unit-circle vectors and |z| <= 1.5, quantized as if from a 12-bit
     front end *)
  let dtype = Fixpt.Dtype.make "T_in" ~n:12 ~f:10 () in
  let xin = Sim.Signal.create env ~dtype "xin" in
  let yin = Sim.Signal.create env ~dtype "yin" in
  let zin = Sim.Signal.create env ~dtype "zin" in
  Sim.Signal.range xin (-1.0) 1.0;
  Sim.Signal.range yin (-1.0) 1.0;
  Sim.Signal.range zin (-1.6) 1.6;
  let step () =
    let open Sim.Ops in
    let phi = Stats.Rng.uniform src.rng ~lo:0.0 ~hi:(2.0 *. Float.pi) in
    let z = Stats.Rng.uniform src.rng ~lo:(-1.5) ~hi:1.5 in
    xin <-- Sim.Value.of_float (cos phi);
    yin <-- Sim.Value.of_float (sin phi);
    zin <-- Sim.Value.of_float z;
    ignore (Dsp.Cordic.rotate rotator ~x:!!xin ~y:!!yin ~z:!!zin)
  in
  feed_forward ~env ~block:rotator ~probe:"cor_x[12]" ~cycles:n ~step ~src ()

(* --- the DDC front end --------------------------------------------------- *)

let ddc ?(n = 4096) () =
  let fcw = 0.15625 (* 5/32 cycles/sample *) and rate = 4 and order = 2 in
  let env = Sim.Env.create ~seed:7 () in
  let src = seeded 31 in
  let dtype = Fixpt.Dtype.make "T_if" ~n:10 ~f:8 () in
  let x = Sim.Signal.create env ~dtype "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let ddc = Dsp.Ddc.create env ~fcw ~rate ~order () in
  (* knowledge-based bound on the modulo-1 NCO phase *)
  Sim.Signal.range (Dsp.Ddc.phase ddc) 0.0 1.0;
  (* CIC integrators are the one place where no statistical rule gives
     the right answer: their true values ramp without bound, and the
     correct designer type is wrap-around at the Hogenauer width
     (N·log2 R + B_in bits) — modular arithmetic makes the decimated
     comb output exact anyway.  Pre-type them (the "partial type
     definition" includes architecture knowledge, not just inputs). *)
  let cic =
    Fixpt.Dtype.make "T_cic"
      ~n:((order * 2 (* log2 rate *)) + 10)
      ~f:8 ~overflow:Fixpt.Overflow_mode.Wrap ~round:Fixpt.Round_mode.Floor ()
  in
  List.iter
    (fun s ->
      let name = Sim.Signal.name s in
      if
        String.starts_with ~prefix:"ddc_ci_" name
        || String.starts_with ~prefix:"ddc_cq_" name
      then Sim.Signal.set_dtype s cic)
    (Sim.Env.signals env);
  (* a 0.7 tone at the carrier plus uniform noise *)
  let t = ref 0 in
  let step () =
    let open Sim.Ops in
    let tone = 0.7 *. cos (2.0 *. Float.pi *. fcw *. Float.of_int !t) in
    incr t;
    let noise = 0.05 *. Stats.Rng.uniform src.rng ~lo:(-1.0) ~hi:1.0 in
    x <-- Sim.Value.of_float (tone +. noise);
    ignore (Dsp.Ddc.step ddc !!x)
  in
  feed_forward ~env ~block:ddc ~probe:"ddc_i" ~cycles:n ~step ~src
    ~rewind:(fun () -> t := 0)
    ()

(* --- the 16-point FFT ---------------------------------------------------- *)

let fft ?(transforms = 200) ~scale () =
  let n = 16 in
  let env = Sim.Env.create ~seed:17 () in
  let src = seeded 23 in
  let dtype = Fixpt.Dtype.make "T_in" ~n:10 ~f:8 () in
  let xr = Sim.Sig_array.create env ~dtype "xr" n in
  Sim.Sig_array.range xr (-1.0) 1.0;
  let fft = Dsp.Fft.create env ~scale ~n () in
  (* uniform amplitudes (not ±1): exactly-representable inputs would
     enter the transform noiselessly and defeat the LSB analysis *)
  let sample rng = Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let step () =
    let open Sim.Ops in
    let input =
      Array.init n (fun i ->
          let s = Sim.Sig_array.get xr i in
          s <-- Sim.Value.of_float (sample src.rng);
          (!!s, cst 0.0))
    in
    ignore (Dsp.Fft.transform fft input)
  in
  feed_forward ~env ~block:fft
    ~probe:(Printf.sprintf "fft_re%d[0]" (Dsp.Fft.stage_count fft))
    ~cycles:transforms ~step ~src
    ~sent:(fun () ->
      let rng = Stats.Rng.create ~seed:!(src.seed) in
      Array.init (transforms * n) (fun _ -> sample rng))
    ()
