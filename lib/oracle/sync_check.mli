(** Synchronizer gate: the closed ML-TED timing loop must lock in float,
    stay within 2 dB MER after §6.1 refinement with the saturating
    integrator and the [error()]-overruled NCO phase visible in the
    decisions.  Its sweep determinism is a row of {!Sweep_check}. *)

(** Build, lock, refine and re-lock the registry's synchronizer
    ({!Scenario.sync}, 700 symbols): one check per condition — float
    MER ≥ 15 dB, float and refined strobe-rate error ≤ 1%, refined MER
    at most 2 dB below float, [lf_integ] saturating and decided as
    case (b), and the [nco_eta] [error()] overrule. *)
val run : unit -> Check.t list
