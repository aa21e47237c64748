(** Simulation values.

    The central trick of the design environment (§4, Fig. 2): every
    expression carries {e three} parallel computations at once —

    - [fx]: the fixed-point value (held as a float; quantization happens
      on signal assignment, §2.2);
    - [fl]: the reference floating-point value, used for error
      monitoring;
    - [lo], [hi]: the propagated range, used for quasi-analytical MSB
      estimation ({!iv} reads it back as an {!Interval.t}).

    The overloaded operators in {!Ops} combine all three components, so
    one simulation run simultaneously produces the fixed-point behaviour,
    the float reference, range statistics and error statistics.

    A fourth, normally dormant component is [node]: when a {!Record}
    session is active (the §4.1 "Analytical" technique — automatic
    signal-flowgraph extraction), it carries the id of the graph node
    that produced this value; [no_node] (-1) otherwise.

    Layout: every field is a float, so OCaml stores the record flat — one
    block of five unboxed doubles, 6 words with its header — and an
    operator result is one allocation.  A single non-float field would
    box every float field again; that is why [node] is a float (ids stay
    exact far beyond any graph size, < 2^53).  The empty interval
    ("nothing propagated") is encoded as [lo > hi], canonically
    [lo = +∞, hi = −∞]; a NaN endpoint compares false and so stays a
    non-empty range, exactly as [Interval.Range] holds it. *)

type t = { fx : float; fl : float; lo : float; hi : float; node : float }

let no_node = -1

(** A constant known at "design time": all three components agree.
    Raises [Invalid_argument] on NaN, as {!Interval.of_point} does. *)
let const c =
  if Float.is_nan c then invalid_arg "Interval.make: nan";
  { fx = c; fl = c; lo = c; hi = c; node = -1.0 }

(** An external stimulus sample: fixed and float agree (the error enters
    only at the first quantizing assignment); the propagated range is the
    single point unless the receiving signal declares a wider range. *)
let of_float = const

(** The propagated range as an interval. *)
let iv t =
  if t.lo > t.hi then Interval.empty
  else Interval.Range { lo = t.lo; hi = t.hi }

(** [with_range v iv] overrides the propagated-range component — how a
    signal's [range()] annotation enters expressions. *)
let with_range v = function
  | Interval.Empty -> { v with lo = Float.infinity; hi = Float.neg_infinity }
  | Interval.Range r -> { v with lo = r.lo; hi = r.hi }

(** [with_node v id] attaches graph provenance (recording sessions). *)
let with_node v node = { v with node = Float.of_int node }

let fx t = t.fx
let fl t = t.fl
let node t = Float.to_int t.node

(** Consumed error ε_c = float reference − fixed value (§4.2). *)
let error t = t.fl -. t.fx

let zero = const 0.0
let one = const 1.0

let is_finite t = Float.is_finite t.fx && Float.is_finite t.fl

let pp ppf t =
  Format.fprintf ppf "{fx=%g; fl=%g; iv=%s}" t.fx t.fl (Interval.to_string (iv t))
