(* Refining a cable-modem-style digital down-converter front end — the
   application class the paper's introduction motivates.

   CORDIC quadrature mixer + two order-2 CIC decimators (R = 4), driven
   by a noisy IF tone.  The refinement flow meets all three §5.1
   archetypes in one design: bounded feed-forward CORDIC stages, the
   modulo-1 NCO phase, and the wrap-by-design CIC integrators.

   Run with:  dune exec examples/ddc_frontend.exe *)

open Fixrefine

let rate = 4
let order = 2

let () =
  (* the registry's front end: 4096 samples of a noisy 0.7 IF tone at
     fcw = 5/32, the NCO phase bounded to [0, 1] by knowledge, and the
     CIC integrators pre-typed wrap-around at the Hogenauer width *)
  let sc = Scenario.ddc () in
  let env = sc.Scenario.env and design = sc.Scenario.design in
  let result = Refine.Flow.refine ~sqnr_signal:"ddc_i" design in

  Format.printf "=== DDC refinement summary ===@.";
  Format.printf "%s@."
    (Refine.Report.summary env result.Refine.Flow.msb_decisions
       result.Refine.Flow.lsb_decisions);
  List.iter
    (fun it -> Format.printf "%a@." Refine.Flow.pp_iteration it)
    result.Refine.Flow.iterations;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a -> Format.printf "SQNR at I: %.1f dB -> %.1f dB@." b a
  | _ -> ());

  (* the three §5.1 archetypes, as decided by the rules *)
  Format.printf "@.=== archetype check ===@.";
  let show name =
    let s = Sim.Env.find_exn env name in
    let d = Refine.Msb_rules.decide s in
    Format.printf "  %-14s case=%-16s msb=%d mode=%s@." name
      (Refine.Decision.msb_case_to_string d.Refine.Decision.case)
      d.Refine.Decision.msb_pos
      (Fixpt.Overflow_mode.to_string d.Refine.Decision.mode)
  in
  show "ddc_rot_x[7]" (* bounded feed-forward CORDIC stage *);
  show "ddc_phase" (* modulo-1 NCO phase, knowledge-bounded *);
  show "ddc_ci_i[1]" (* CIC integrator: the wrap-by-design accumulator *);
  Format.printf
    "(the CIC integrator is the one §5.1 case where the right designer@.";
  Format.printf
    " answer is wrap-around at the Hogenauer width — %d bits here)@."
    (Dsp.Cic.hogenauer_bits
       (Dsp.Cic.create (Sim.Env.create ()) ~order ~rate ())
       ~input_bits:10);

  (* does the refined front end still down-convert? *)
  let i_sig = Sim.Env.find_exn env "ddc_i" in
  Format.printf "@.I output settled near %.2f (expected ~%.2f = A/2 * R^N)@."
    (Sim.Signal.peek_fx i_sig)
    (0.7 /. 2.0 *. (Float.of_int rate ** Float.of_int order))
