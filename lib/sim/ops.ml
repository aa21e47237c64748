(** Overloaded operators on simulation values (§2.2, §4, Fig. 2).

    Each arithmetic operator performs three simultaneous computations:
    the fixed-point arithmetic (on [fx]; quantization happens only at
    assignment), the floating-point reference (on [fl]) and the range
    propagation (interval arithmetic on [[lo, hi]]) — exactly the paper's
    operator-overloading strategy.  When a {!Record} session is active
    a fourth effect runs: the operator adds itself to the signal
    flowgraph being extracted (§4.1 "Analytical").

    Relational operators evaluate on the {e fixed-point} values: "the
    floating-point simulation is steered by fixed-point control
    decisions" (§4.2), so both executions take the same paths and the
    error statistics stay meaningful.

    Representation: {!Value.t} is one flat all-float record
    [{fx; fl; lo; hi; node}] (6 words).  Every operator reads its
    operands' fields directly and builds its result in one allocation,
    with the range computed unboxed in place: no closures, no
    intermediate [Interval.t], no boxed float.  The empty range is
    [lo > hi]; operators test it first and return the canonical
    [+∞, −∞], and otherwise compute exactly what the matching
    {!Interval} operation computes (the agreement is under test).  The
    [node] field is a float only to keep the record flat.  Calls to the
    [Value] accessors or to [Interval]'s arithmetic would box floats
    (the dev profile compiles with [-opaque], so a cross-module accessor
    is an out-of-line call), and [scripts/check.sh] rejects them in this
    file and in [signal.ml].

    Intended to be locally opened:
    {[
      let open Sim.Ops in
      c <-- (!!a *: !!b) +: cst 0.5
    ]} *)

type v = Value.t = {
  fx : float;
  fl : float;
  lo : float;
  hi : float;
  node : float;
}

let cst = Value.const

let[@inline] is_empty a = a.lo > a.hi

(* [Interval]'s endpoint product: inf * 0 is 0, not NaN *)
let[@inline] endpoint_mul x y =
  let p = x *. y in
  if Float.is_nan p then 0.0 else p

(* The recording check comes before the operand list is built, so the
   common not-recording case allocates nothing beyond the result. *)
let recorded1 kind a r =
  match Record.active () with
  | None -> r
  | Some t -> Value.with_node r (Record.op t kind [ a ])

let recorded2 kind a b r =
  match Record.active () with
  | None -> r
  | Some t -> Value.with_node r (Record.op t kind [ a; b ])

let ( +: ) a b =
  let e = is_empty a || is_empty b in
  recorded2 Sfg.Node.Add a b
    {
      fx = a.fx +. b.fx;
      fl = a.fl +. b.fl;
      lo = (if e then Float.infinity else a.lo +. b.lo);
      hi = (if e then Float.neg_infinity else a.hi +. b.hi);
      node = -1.0;
    }

let ( -: ) a b =
  let e = is_empty a || is_empty b in
  recorded2 Sfg.Node.Sub a b
    {
      fx = a.fx -. b.fx;
      fl = a.fl -. b.fl;
      lo = (if e then Float.infinity else a.lo -. b.hi);
      hi = (if e then Float.neg_infinity else a.hi -. b.lo);
      node = -1.0;
    }

let ( *: ) a b =
  let e = is_empty a || is_empty b in
  let p1 = endpoint_mul a.lo b.lo
  and p2 = endpoint_mul a.lo b.hi
  and p3 = endpoint_mul a.hi b.lo
  and p4 = endpoint_mul a.hi b.hi in
  recorded2 Sfg.Node.Mul a b
    {
      fx = a.fx *. b.fx;
      fl = a.fl *. b.fl;
      lo =
        (if e then Float.infinity
         else Float.min (Float.min p1 p2) (Float.min p3 p4));
      hi =
        (if e then Float.neg_infinity
         else Float.max (Float.max p1 p2) (Float.max p3 p4));
      node = -1.0;
    }

(* a divisor range that straddles zero makes the quotient unbounded:
   [−∞, +∞], the explosion signal the MSB analysis wants to see *)
let ( /: ) a b =
  let e = is_empty a || is_empty b in
  let straddles = b.lo <= 0.0 && b.hi >= 0.0 in
  let q1 = a.lo /. b.lo
  and q2 = a.lo /. b.hi
  and q3 = a.hi /. b.lo
  and q4 = a.hi /. b.hi in
  recorded2 Sfg.Node.Div a b
    {
      fx = a.fx /. b.fx;
      fl = a.fl /. b.fl;
      lo =
        (if e then Float.infinity
         else if straddles then Float.neg_infinity
         else Float.min (Float.min q1 q2) (Float.min q3 q4));
      hi =
        (if e then Float.neg_infinity
         else if straddles then Float.infinity
         else Float.max (Float.max q1 q2) (Float.max q3 q4));
      node = -1.0;
    }

let ( ~-: ) a =
  let e = is_empty a in
  recorded1 Sfg.Node.Neg a
    {
      fx = -.a.fx;
      fl = -.a.fl;
      lo = (if e then Float.infinity else -.a.hi);
      hi = (if e then Float.neg_infinity else -.a.lo);
      node = -1.0;
    }

let abs a =
  let e = is_empty a in
  recorded1 Sfg.Node.Abs a
    {
      fx = Float.abs a.fx;
      fl = Float.abs a.fl;
      lo =
        (if e then Float.infinity
         else if a.lo >= 0.0 then a.lo
         else if a.hi <= 0.0 then -.a.hi
         else 0.0);
      hi =
        (if e then Float.neg_infinity
         else if a.lo >= 0.0 then a.hi
         else if a.hi <= 0.0 then -.a.lo
         else Float.max (-.a.lo) a.hi);
      node = -1.0;
    }

let min_ a b =
  let e = is_empty a || is_empty b in
  recorded2 Sfg.Node.Min a b
    {
      fx = Float.min a.fx b.fx;
      fl = Float.min a.fl b.fl;
      lo = (if e then Float.infinity else Float.min a.lo b.lo);
      hi = (if e then Float.neg_infinity else Float.min a.hi b.hi);
      node = -1.0;
    }

let max_ a b =
  let e = is_empty a || is_empty b in
  recorded2 Sfg.Node.Max a b
    {
      fx = Float.max a.fx b.fx;
      fl = Float.max a.fl b.fl;
      lo = (if e then Float.infinity else Float.max a.lo b.lo);
      hi = (if e then Float.neg_infinity else Float.max a.hi b.hi);
      node = -1.0;
    }

(** Multiply by the constant [2^k] — a hardware shift; exact in all three
    components. *)
let shift_left a k =
  let s = Float.ldexp 1.0 k in
  let e = is_empty a in
  let x = endpoint_mul s a.lo and y = endpoint_mul s a.hi in
  let r =
    {
      fx = a.fx *. s;
      fl = a.fl *. s;
      lo = (if e then Float.infinity else Float.min x y);
      hi = (if e then Float.neg_infinity else Float.max x y);
      node = -1.0;
    }
  in
  match Record.active () with
  | None -> r
  | Some t -> Value.with_node r (Record.op t (Sfg.Node.Shift k) [ a ])

let shift_right a k = shift_left a (-k)

(* --- control: fixed-point steered ------------------------------------ *)

let ( <: ) a b = a.fx < b.fx
let ( >: ) a b = a.fx > b.fx
let ( <=: ) a b = a.fx <= b.fx
let ( >=: ) a b = a.fx >= b.fx
let ( =: ) a b = a.fx = b.fx
let ( <>: ) a b = a.fx <> b.fx

(** Two-way select steered by a fixed-point decision.  The propagated
    range is the join (union hull) of both branches (the static analysis
    cannot know which branch runs).  Recorded as a [Select] whose
    condition is the frozen decision — sound for range purposes (both
    branches join). *)
let select cond a b =
  let chosen = if cond then a else b in
  (* [Interval]'s join: an empty side yields the other; a side that
     covers the other is taken as is *)
  let a_covers =
    (not (is_empty a)) && (is_empty b || (b.lo >= a.lo && b.hi <= a.hi))
  in
  let b_covers =
    (not a_covers) && (is_empty a || (a.lo >= b.lo && a.hi <= b.hi))
  in
  let r =
    {
      fx = chosen.fx;
      fl = chosen.fl;
      lo =
        (if a_covers then a.lo else if b_covers then b.lo
         else Float.min a.lo b.lo);
      hi =
        (if a_covers then a.hi else if b_covers then b.hi
         else Float.max a.hi b.hi);
      node = -1.0;
    }
  in
  match Record.active () with
  | None -> r
  | Some t ->
      Value.with_node r
        (Record.op t Sfg.Node.Select
           [ cst (if cond then 1.0 else 0.0); a; b ])

(** Sign slicer: ±1 decision on the fixed-point value (the PAM slicer of
    the motivational example).  Recorded with the data value itself as
    the select condition, so the extracted graph keeps the dependence. *)
let sign a =
  let decision = if a.fx >= 0.0 then 1.0 else -1.0 in
  let r = { fx = decision; fl = decision; lo = -1.0; hi = 1.0; node = -1.0 } in
  match Record.active () with
  | None -> r
  | Some t ->
      Value.with_node r
        (Record.op t Sfg.Node.Select [ a; cst 1.0; cst (-1.0) ])

(** Ablation variant of {!sign}: each execution follows its {e own}
    decision (fixed on [fx], float on [fl]).  This is exactly what the
    paper argues against in §4.2 — when the two decisions disagree the
    difference error jumps by a full decision distance and the error
    statistics lose their meaning.  The benches quantify that. *)
let sign_unsteered a =
  {
    fx = (if a.fx >= 0.0 then 1.0 else -1.0);
    fl = (if a.fl >= 0.0 then 1.0 else -1.0);
    lo = -1.0;
    hi = 1.0;
    node = -1.0;
  }

(* --- signal access ---------------------------------------------------- *)

(** Read a signal. *)
let ( !! ) = Signal.value

(** Explicit cast of an intermediate value through a type (§2.2's [cast]
    operator): quantizes [fx], leaves the float reference untouched, and
    clamps the range into the type's [[min_v, max_v]] if it saturates
    ([Interval]'s clamp: a range already inside is kept as is).  The cast
    scratch is domain-local: sweep workers cast concurrently. *)
let cast_scratch = Domain.DLS.new_key Fixpt.Quantize.create_scratch

let cast dt a =
  let c = Fixpt.Quantize.of_dtype dt in
  let s = Domain.DLS.get cast_scratch in
  Fixpt.Quantize.exec_into c a.fx s;
  let qlo = c.Fixpt.Quantize.min_v and qhi = c.Fixpt.Quantize.max_v in
  let keep =
    (not c.Fixpt.Quantize.saturating)
    || is_empty a
    || (a.lo >= qlo && a.hi <= qhi)
  in
  let r =
    {
      fx = s.Fixpt.Quantize.value;
      fl = a.fl;
      lo = (if keep then a.lo else Float.min (Float.max a.lo qlo) qhi);
      hi = (if keep then a.hi else Float.max (Float.min a.hi qhi) qlo);
      node = -1.0;
    }
  in
  match Record.active () with
  | None -> r
  | Some t -> Value.with_node r (Record.op t (Sfg.Node.Quantize dt) [ a ])

(** Assignment (the paper's overloaded [=]). *)
let ( <-- ) = Signal.assign
