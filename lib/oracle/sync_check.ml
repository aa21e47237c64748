(** Synchronizer gate — the closed ML-TED timing loop as an oracle.

    The other gates check mechanisms (golden bytes, sweep determinism,
    fault quarantine); this one checks the {e outcome} the paper's §6.1
    flow promises on the flagship feedback workload:

    - the float loop {e locks} on drifting-τ 4-PAM (recovered symbol
      rate within 1% of 1/sps, MER well above the decision threshold);
    - the refined fixed-point loop still locks, with MER within 2 dB of
      float — wordlengths were chosen per signal, not globally;
    - the two knowledge-based annotations of §6.1 are visible in the
      decisions: the loop-filter integrator is a §5.1 case (b) signal
      refined with saturation, and the NCO phase — the "D signal inside
      of NCO" whose error monitoring is meaningless under
      decision-steered feedback — carries the [error()] overrule
      ({!Refine.Decision.Overruled}).

    The synchronizer sweep's jobs-independence is a row of
    {!Sweep_check}. *)

let mer_of ~sent ~output =
  let received = Array.of_list (Sim.Channel.recorded output) in
  fst (Dsp.Pam.best_mer ~skip:300 ~sent ~received ())

let run () =
  let sc = Scenario.sync ~n_symbols:700 ~record:true () in
  let design = sc.Scenario.design and sy = sc.Scenario.block in
  let sent = sc.Scenario.sent () and output = sc.Scenario.output in
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let float_mer_db = mer_of ~sent ~output in
  let float_rate_err = Dsp.Synchronizer.strobe_rate_error sy in
  let config = Scenario.overrule_nco_phase sc Refine.Flow.default_config in
  let result = Refine.Flow.refine ~config ~sqnr_signal:"out" design in
  design.Refine.Flow.reset ();
  design.Refine.Flow.run ();
  let refined_mer_db = mer_of ~sent ~output in
  let refined_rate_err = Dsp.Synchronizer.strobe_rate_error sy in
  let integ_dt = List.assoc_opt "lf_integ" result.Refine.Flow.types in
  let integrator_case_b =
    List.exists
      (fun (d : Refine.Decision.msb) ->
        String.equal d.Refine.Decision.signal "lf_integ"
        && d.Refine.Decision.case = Refine.Decision.Prop_pessimistic)
      result.Refine.Flow.msb_decisions
  in
  let nco_phase_overruled =
    List.exists
      (fun (d : Refine.Decision.lsb) ->
        String.equal d.Refine.Decision.signal "nco_eta"
        && d.Refine.Decision.origin = Refine.Decision.Overruled)
      result.Refine.Flow.lsb_decisions
  in
  let integ =
    match integ_dt with
    | Some dt -> Fixpt.Dtype.to_string dt
    | None -> "<undecided>"
  in
  let integrator_saturating =
    match integ_dt with
    | Some dt -> Fixpt.Overflow_mode.is_saturating (Fixpt.Dtype.overflow dt)
    | None -> false
  in
  let mer_delta_db = float_mer_db -. refined_mer_db in
  (* Lock thresholds: rate within 1% of 1/sps and refined MER within
     2 dB of float; the 15 dB floor is far above a 4-PAM slicing
     threshold yet far below the ~24 dB a locked loop reaches — it only
     rejects a loop that never locked. *)
  [
    {
      Check.name = "float/mer";
      ok = float_mer_db >= 15.0;
      detail = Printf.sprintf "%.2f dB (at least 15 dB)" float_mer_db;
    };
    {
      Check.name = "float/rate";
      ok = float_rate_err <= 0.01;
      detail = Printf.sprintf "strobe rate error %.4f (at most 0.01)" float_rate_err;
    };
    {
      Check.name = "refined/rate";
      ok = refined_rate_err <= 0.01;
      detail =
        Printf.sprintf "strobe rate error %.4f (at most 0.01)" refined_rate_err;
    };
    {
      Check.name = "refined/mer";
      ok = mer_delta_db <= 2.0;
      detail =
        Printf.sprintf "%.2f dB, float - refined = %.2f dB (at most 2 dB)%s"
          refined_mer_db mer_delta_db
          (match result.Refine.Flow.sqnr_after_db with
          | Some v -> Printf.sprintf ", sqnr %.1f dB" v
          | None -> "");
    };
    {
      Check.name = "lf_integ/saturating";
      ok = integrator_saturating;
      detail = integ;
    };
    {
      Check.name = "lf_integ/case-b";
      ok = integrator_case_b;
      detail =
        (if integrator_case_b then "MSB decided as case (b)"
         else "MSB not decided as case (b)");
    };
    {
      Check.name = "nco_eta/overruled";
      ok = nco_phase_overruled;
      detail =
        (if nco_phase_overruled then "error() overrule observed"
         else "error() overrule missing");
    };
  ]
