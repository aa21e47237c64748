(* Refining a CORDIC rotator — a deep feed-forward workload, structurally
   unlike the paper's two feedback examples.

   Interesting refinement behaviour to observe:
   - the z (angle) chain shrinks stage by stage (each iteration halves
     the residual angle), so the MSB analysis awards decreasing integer
     weights down the pipeline;
   - the x/y chains grow by the CORDIC gain (~1.647) and need one extra
     integer bit mid-pipeline;
   - the quantization noise of early stages is amplified by later
     stages, so the σ-rule gives the early stages finer LSBs.

   The example cross-checks the refined rotator against the exact
   rotation and reports the angle-domain accuracy. *)

open Fixrefine

let iters = 12

let () =
  (* the registry's rotator: 2000 unit-circle vectors with |z| <= 1.5,
     quantized as if from a 12-bit front end *)
  let sc = Scenario.cordic () in
  let env = sc.Scenario.env and design = sc.Scenario.design in
  let last_x = sc.Scenario.probe in
  let result = Refine.Flow.refine ~sqnr_signal:last_x design in

  Format.printf "=== CORDIC MSB analysis ===@.";
  Refine.Report.print_msb env;
  Format.printf "@.=== CORDIC LSB analysis ===@.";
  Refine.Report.print_lsb env;
  Format.printf "@.MSB iterations %d, LSB iterations %d, runs %d@."
    result.Refine.Flow.msb_iterations result.Refine.Flow.lsb_iterations
    result.Refine.Flow.simulation_runs;
  (match
     (result.Refine.Flow.sqnr_before_db, result.Refine.Flow.sqnr_after_db)
   with
  | Some b, Some a ->
      Format.printf "SQNR at %s: %.1f dB -> %.1f dB@." last_x b a
  | _ -> ());

  (* accuracy of the refined rotator against the exact rotation: replay
     the first 500 vectors, reading each input back from its signal's
     float side *)
  let fl name = Sim.Signal.peek_fl (Sim.Env.find_exn env name) in
  let sq = Stats.Sqnr.create () in
  let max_err = ref 0.0 in
  design.Refine.Flow.reset ();
  for _ = 1 to 500 do
    sc.Scenario.step ();
    let xr, _yr =
      Dsp.Cordic.reference ~iters ~x:(fl "xin") ~y:(fl "yin") ~z:(fl "zin")
    in
    let xo = Sim.Signal.peek_fx (Sim.Env.find_exn env last_x) in
    Stats.Sqnr.add sq ~reference:xr ~actual:xo;
    max_err := Float.max !max_err (Float.abs (xr -. xo))
  done;
  Format.printf
    "refined rotator vs exact rotation: %.1f dB, max |err| = %.2e@."
    (Stats.Sqnr.db sq) !max_err
