(** Simulation values — the central trick of the design environment
    (§4, Fig. 2): every expression carries the fixed-point value [fx]
    (quantization happens on assignment), the float reference [fl]
    (error monitoring), and the propagated range [[lo, hi]]
    (quasi-analytical MSB estimation).  A fourth, normally dormant
    component, [node], carries graph provenance during {!Record}
    sessions.

    The record is all-float, so OCaml stores it flat: five unboxed
    doubles, 6 words with the header, one allocation per operator
    result.  [node] is a float for that reason (a graph id, exact below
    2^53; [-1.] = {!no_node}).  The empty range is encoded as
    [lo > hi] (canonically [+∞, −∞]); NaN endpoints are a non-empty
    range, as in {!Interval}.  Outside the operator layer, read the range
    through {!iv} and set it through {!with_range}. *)

type t = { fx : float; fl : float; lo : float; hi : float; node : float }

(** Sentinel [node] value (-1): no provenance. *)
val no_node : int

(** A constant known at design time: all components agree.  Raises
    [Invalid_argument] on NaN. *)
val const : float -> t

(** An external stimulus sample (alias of {!const}). *)
val of_float : float -> t

(** Override the propagated-range component. *)
val with_range : t -> Interval.t -> t

(** Attach graph provenance (recording sessions). *)
val with_node : t -> int -> t

(** The fixed-point execution's value. *)
val fx : t -> float

(** The float reference execution's value. *)
val fl : t -> float

(** The propagated range ([lo > hi] reads as {!Interval.empty}). *)
val iv : t -> Interval.t

(** Graph provenance, {!no_node} outside recording. *)
val node : t -> int

(** Consumed error ε_c = [fl - fx] (§4.2). *)
val error : t -> float

(** {!const}[ 0.] *)
val zero : t

(** {!const}[ 1.] *)
val one : t

(** Both executions finite (explosion guard). *)
val is_finite : t -> bool

(** Prints [(fx, fl, iv)]. *)
val pp : Format.formatter -> t -> unit
