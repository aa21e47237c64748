(** The gates of [fxrefine check], declared once: an ordered table of
    [{name; run; passed; pp}] entries, every one run by every [check].

    Order matters twice.  It is the order [check] prints its verdicts
    in, and the chaos gate runs right after the golden traces because
    it forks, which OCaml 5 forbids once any domain was ever spawned —
    so it precedes every gate that spawns worker domains (sweep, trace,
    faults, compiled, serve, sync). *)

(** What [check]'s options feed the gates. *)
type ctx = {
  seed : int;  (** differential oracle and chaos kill-point seed *)
  per_combo : int;  (** differential cases per mode combination *)
  update_golden : bool;  (** rewrite golden files instead of comparing *)
  golden_dir : string option;
  jobs : int;  (** the parallel side of every parallel gate, ≥ 2 *)
  no_bench : bool;  (** skip the wall-clock bench guards *)
}

type t =
  | Gate : {
      name : string;
      run : ctx -> 'r;
      passed : 'r -> bool;
      pp : Format.formatter -> 'r -> unit;
    }
      -> t

(** Resolve [check --jobs]: the given count, or the recommended domain
    count clamped to [\[2, 4\]]; never below 2, so the parallel code
    path is exercised even on one core. *)
val jobs : int option -> int

(** The table, in run order: differential, metamorphic, golden, chaos,
    sweep, trace, faults, compiled, bench, bench-compiled, verify,
    bench-verify, serve, sync, bench-sync. *)
val all : t list

(** Run every gate of {!all} in order, printing each report; [true]
    when all passed. *)
val run_all : ctx -> bool
