(** PAM decision slicer.

    The motivational example's output stage: a hard ±1 decision on the
    equalized sample ([y = w > 0 ? 1 : -1], §3).  The decision is steered
    by the fixed-point value (§4.2), so the floating-point reference
    follows the same symbol decisions.

    A multi-level variant is provided for PAM-M extensions. *)

type t = { out : Sim.Signal.t }

(** [create env name] — the decision output signal.  PAM-2 decisions are
    exactly representable in 2 integer bits; the signal is typically left
    floating (its LSB analysis yields "no error": Table 2's [y] row). *)
let create env ?dtype name = { out = Sim.Signal.create env ?dtype name }

let output t = t.out

(** Binary decision: drive the output signal from the input value. *)
let step t (w : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  t.out <-- sign w;
  !!(t.out)

(** Multi-level PAM-M slicer on normalized levels
    [±1/(m−1), ±3/(m−1), …, ±1]: snaps the fixed-point input to the
    nearest level (decision on the fixed value, as always).  The level
    index is rounded {e after} the whole affine map — rounding the
    numerator alone yields half-integer indices off the constellation
    for boundary inputs. *)
let decide_pam ~m v =
  if m < 2 || m mod 2 <> 0 then invalid_arg "Slicer.decide_pam: bad m";
  let span = Float.of_int (m - 1) in
  let k = Float.round (((v *. span) +. span) /. 2.0) in
  let k = Float.max 0.0 (Float.min span k) in
  ((2.0 *. k) -. span) /. span

(** The range every normalized decision lies in, [[-1, 1]]. *)
let unit_range = Interval.make (-1.0) 1.0

let step_pam t ~m (w : Sim.Value.t) : Sim.Value.t =
  let open Sim.Ops in
  let decision = decide_pam ~m w.Sim.Value.fx in
  t.out <-- Sim.Value.with_range (cst decision) unit_range;
  !!(t.out)
