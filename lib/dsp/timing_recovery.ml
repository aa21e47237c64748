(** The complex evaluation example (§6.1, Fig. 5): a timing-recovery
    loop for PAM signals.

    {v
       in ──▶ Interpolator ──▶ out
                 │  ▲ mu,ctr
                 ▼  │
        Timing error detector
                 │ err
                 ▼
            Loop filter ──lferr──▶ NCO
    v}

    The receiver runs at two samples per symbol.  Every input sample is
    shifted into the interpolator, which produces an interpolant at the
    NCO's held fractional offset [mu]; the modulo-1 NCO (decrement
    [W ≈ 1/2] per sample) wraps once per symbol, marking the {e symbol
    strobe}.  At a strobe the fresh interpolant is the symbol-instant
    sample and the previous sample's interpolant — half a symbol earlier
    — is Gardner's mid sample; the resulting timing error drives the PI
    loop filter and closes the loop on the NCO control word.

    The fixed-point phenomena the paper reports on this design live
    exactly where it says: the loop-filter integrator and the NCO phase
    are feedback signals whose range propagation explodes, and the NCO
    phase is the signal whose error monitoring diverges (§6.1's
    "D signal inside of NCO"). *)

type t = {
  env : Sim.Env.t;
  x : Sim.Signal.t;  (** receiver input sample *)
  interp : Interpolator.t;
  ted : Gardner_ted.t;
  lf : Loop_filter.t;
  nco : Nco.t;
  out : Sim.Signal.t;  (** symbol-rate output *)
  input : Sim.Channel.t;
  output : Sim.Channel.t;
  mutable n_strobes : int;
}

let sps = 2

(* PI gains: loop bandwidth ~1% of the symbol rate, damping 1/√2, for a
   Gardner detector gain ≈ 2.5 on β = 0.35 raised-cosine binary PAM. *)
let default_kp = 0.0105
let default_ki = 1.4e-4

let create env ?(kp = default_kp) ?(ki = default_ki) ?x_dtype ~input ~output
    () =
  let t =
    {
      env;
      x = Sim.Signal.create env ?dtype:x_dtype "in";
      interp = Interpolator.create env ();
      ted = Gardner_ted.create env ();
      lf = Loop_filter.create env ~kp ~ki ();
      nco = Nco.create env ~sps ();
      out = Sim.Signal.create env "out";
      input;
      output;
      n_strobes = 0;
    }
  in
  Sim.Env.at_reset env (fun () -> t.n_strobes <- 0);
  t

let env t = t.env
let input_signal t = t.x
let output_signal t = t.out
let interpolator t = t.interp
let ted t = t.ted
let loop_filter t = t.lf
let nco t = t.nco

(** Every signal of the design, declaration order — the signal set
    subject to fixed-point refinement (the paper's hand-written version
    counted 61; granularity differs, structure does not). *)
let all_signals t = Sim.Env.signals t.env

(** One input-sample clock cycle. *)
let step t =
  let open Sim.Ops in
  t.x <-- Sim.Value.of_float (Sim.Channel.get t.input);
  Interpolator.shift t.interp !!(t.x);
  let strobed, mu = Nco.step t.nco !!(Loop_filter.output t.lf) in
  let y = Interpolator.interpolate t.interp mu in
  if strobed then begin
    t.n_strobes <- t.n_strobes + 1;
    t.out <-- y;
    Sim.Channel.put t.output !!(t.out).Sim.Value.fx;
    (* ted.mid (a register) still holds the previous sample's
       interpolant: Gardner's half-symbol sample *)
    let err = Gardner_ted.detect t.ted y in
    ignore (Loop_filter.step t.lf err)
  end
  else ignore (Loop_filter.hold t.lf);
  (* record this sample's interpolant: the mid sample candidate for the
     next strobe *)
  Gardner_ted.capture_mid t.ted y

(** Run [samples] input samples. *)
let run t ~samples = Sim.Engine.run t.env ~cycles:samples (fun _ -> step t)

let strobes t = t.n_strobes
