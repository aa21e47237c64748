(** The one verdict shape of [fxrefine check]: every gate of {!Gates}
    returns a list of named checks, and a gate passes when it produced
    at least one check and every check is [ok]. *)

type t = {
  name : string;  (** what was checked, e.g. ["compile/fir/extracted"] *)
  ok : bool;
  detail : string;  (** the evidence, one line *)
}

(** Every check is [ok] — and there is at least one: a gate that
    produced no checks proved nothing, so [passed []] is [false]. *)
val passed : t list -> bool

(** One [  [ok] name  detail] or [  [FAIL] name  detail] line per check,
    names padded to the longest, each line ending in a newline. *)
val pp : Format.formatter -> t list -> unit
