(** Decision-directed maximum-likelihood timing-error detector.

    The ML-TED of the Rice symbol-timing loop (SNIPPETS.md's
    [symTimingLoop.m]): at every symbol strobe the detector multiplies
    the {e symbol decision} by the {e derivative matched filter} sample,

    [err = â_k · y'(k·T + τ̂)],

    where [â_k] is the sliced decision on the interpolant [y] and [y']
    is the μ-derivative of the same interpolator (matched-filter
    derivative form — the derivative of the log-likelihood with respect
    to timing phase, evaluated at the decision).  Unlike Gardner's
    detector it needs only one sample per symbol and extends directly to
    M-PAM (the decision ranges over the whole constellation), at the
    price of being decision-directed: before lock, wrong decisions
    shrink the S-curve but leave its sign intact for moderate timing
    error.

    The decision is made on the fixed-point value and drives both
    simulation tracks (control steering, §4.2), so float and fixed
    recover the same symbol stream until the fixed track degrades. *)

type t = {
  m : int;  (** constellation size (PAM-M, even) *)
  decision : Sim.Signal.t;  (** â_k — the sliced symbol decision *)
  err : Sim.Signal.t;  (** detector output *)
}

let create env ?(prefix = "mlted_") ?(m = 2) () =
  if m < 2 || m mod 2 <> 0 then invalid_arg "Ml_ted.create: bad m";
  {
    m;
    decision = Sim.Signal.create env (prefix ^ "dec");
    err = Sim.Signal.create env (prefix ^ "err");
  }

let constellation t = t.m
let decision t = t.decision
let error t = t.err
let signals t = [ t.decision; t.err ]

(** Compute the timing error at a symbol strobe from the interpolant
    [y] and its μ-derivative [ydot]; drives and returns [err].  The
    decision signal carries the exact constellation point (range ±1 by
    construction).  The output is [−â·y'] — sign matched to this
    library's modulo-1 {e decrementing} NCO ([W = 1/sps + lferr]:
    positive error ⇒ larger W ⇒ earlier strobe, which is what a late
    strobe needs), the negative of Rice's convention, exactly as
    {!Gardner_ted} is. *)
let detect t ~(y : Sim.Value.t) ~(ydot : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  let d = Slicer.decide_pam ~m:t.m y.Sim.Value.fx in
  t.decision <-- Sim.Value.with_range (cst d) Slicer.unit_range;
  t.err <-- Sim.Value.zero -: (!!(t.decision) *: ydot);
  !!(t.err)

(** Float reference for tests: [−decide_pam y · ydot]. *)
let reference ~m ~y ~ydot = -.(Slicer.decide_pam ~m y *. ydot)
