(** Synchronizer gate: the closed ML-TED timing loop must lock in float,
    stay within 2 dB MER after §6.1 refinement with the saturating
    integrator and the [error()]-overruled NCO phase visible in the
    decisions.  Its sweep determinism is a row of {!Sweep_check}. *)

type outcome = {
  float_mer_db : float;
  refined_mer_db : float;
  mer_delta_db : float;
  float_rate_err : float;
  refined_rate_err : float;
  sqnr_after_db : float option;
  integrator_dtype : string;
  integrator_saturating : bool;
  integrator_case_b : bool;
  nco_phase_overruled : bool;
}

(** Build, lock, refine and re-lock the registry's synchronizer
    ({!Scenario.sync}, 700 symbols). *)
val run : unit -> outcome

val passed : outcome -> bool
val pp_report : Format.formatter -> outcome -> unit
