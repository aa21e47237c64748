(** The gates of [fxrefine check], declared once: an ordered table of
    [{name; run}] entries, every one run by every [check].  A gate's
    verdict is its {!Check.t} list.

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

(** [run] returns the gate's checks; the gate passes when
    {!Check.passed} holds for them. *)
type t = { name : string; run : ctx -> Check.t list }

(** Resolve [check --jobs]: the given count, or the recommended domain
    count clamped to [\[2, 4\]]; never below 2, so the parallel code
    path is exercised even on one core. *)
val jobs : int option -> int

(** The table, in run order: differential, metamorphic, golden, chaos,
    sweep, trace, faults, compiled, bench, bench-compiled, verify,
    bench-verify, serve, sync, bench-sync. *)
val all : t list

(** Run every gate of {!all} in order, printing each gate's name
    followed by its checks ({!Check.pp}); [true] when every gate
    passed. *)
val run_all : ctx -> bool
