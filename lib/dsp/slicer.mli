(** PAM decision slicer — the motivational example's output stage
    ([y = w > 0 ? 1 : -1], §3), steered by the fixed-point value
    (§4.2). *)

type t

val create : Sim.Env.t -> ?dtype:Fixpt.Dtype.t -> string -> t
val output : t -> Sim.Signal.t

(** Binary ±1 decision; drives and returns the output signal. *)
val step : t -> Sim.Value.t -> Sim.Value.t

(** Nearest normalized PAM-M level of a fixed-point value. *)
val decide_pam : m:int -> float -> float

(** [[-1, 1]]: the range every normalized decision lies in. *)
val unit_range : Interval.t

(** Multi-level slicer on normalized levels [±1/(m−1) … ±1]. *)
val step_pam : t -> m:int -> Sim.Value.t -> Sim.Value.t
