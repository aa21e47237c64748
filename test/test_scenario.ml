(* Tests: the scenario registry's feed-forward designs — the CORDIC
   rotator, the DDC front end and the FFT. *)

open Fixrefine

(* One reset+run pass, then every signal's values and monitors, bit for
   bit. *)
let pass (sc : _ Scenario.t) =
  sc.Scenario.design.Refine.Flow.reset ();
  sc.Scenario.design.Refine.Flow.run ();
  List.map
    (fun s ->
      ( Sim.Signal.name s,
        List.map Int64.bits_of_float
          ([ Sim.Signal.peek_fx s; Sim.Signal.peek_fl s ]
          @ Array.to_list (Stats.Running.raw (Sim.Signal.range_stats s))
          @ Array.to_list (Stats.Err_stats.raw (Sim.Signal.err_stats s))),
        (Sim.Signal.assignments s, Sim.Signal.overflows s) ))
    (Sim.Env.signals sc.Scenario.env)

let check_same what a b =
  List.iter2
    (fun (name, v1, c1) (_, v2, c2) ->
      if v1 <> v2 || c1 <> c2 then Alcotest.failf "%s: %s differs" what name)
    a b

(* Two reset+run passes agree; returns the first. *)
let replays (sc : _ Scenario.t) =
  let first = pass sc in
  check_same "second pass" first (pass sc);
  let probe = Sim.Env.find_exn sc.Scenario.env sc.Scenario.probe in
  Alcotest.(check bool) "probe monitored" true
    (Sim.Signal.assignments probe > 0);
  first

let test_cordic_replay () =
  let sc = Scenario.cordic ~n:200 ~seed:4 () in
  let first = replays sc in
  (* another stimulus seed gives another run; the old seed replays *)
  sc.Scenario.reseed 1234;
  if pass sc = first then Alcotest.fail "reseeded run is identical";
  sc.Scenario.reseed 4;
  check_same "after reseeding back" first (pass sc)

let test_ddc_replay () = ignore (replays (Scenario.ddc ~n:256 ()))

let test_fft_replay () =
  List.iter
    (fun scale ->
      let sc = Scenario.fft ~transforms:8 ~scale () in
      ignore (replays sc);
      let sent = sc.Scenario.sent () in
      Alcotest.(check int) "sent: every input sample" (8 * 16)
        (Array.length sent);
      (* the last transform's first input, as [xr[0]] saw it *)
      Alcotest.(check (float 0.0)) "sent matches xr[0]" sent.(7 * 16)
        (Sim.Signal.peek_fl (Sim.Env.find_exn sc.Scenario.env "xr[0]")))
    [ false; true ]

let has_prefix prefix s = String.starts_with ~prefix (Sim.Signal.name s)

let test_ddc_cic_types () =
  let sc = Scenario.ddc ~n:64 () in
  let hogenauer =
    Dsp.Cic.hogenauer_bits
      (Dsp.Cic.create (Sim.Env.create ()) ~order:2 ~rate:4 ())
      ~input_bits:10
  in
  let signals = Sim.Env.signals sc.Scenario.env in
  List.iter
    (fun prefix ->
      let regs = List.filter (has_prefix prefix) signals in
      if regs = [] then Alcotest.failf "no %s registers" prefix;
      List.iter
        (fun s ->
          match Sim.Signal.dtype s with
          | None -> Alcotest.failf "%s untyped" (Sim.Signal.name s)
          | Some dt ->
              let name = Sim.Signal.name s in
              Alcotest.(check int)
                (name ^ " width") hogenauer (Fixpt.Dtype.n dt);
              Alcotest.(check int) (name ^ " frac") 8 (Fixpt.Dtype.f dt);
              Alcotest.(check bool) (name ^ " wraps") true
                (Fixpt.Dtype.overflow dt = Fixpt.Overflow_mode.Wrap);
              Alcotest.(check bool) (name ^ " floors") true
                (Fixpt.Dtype.round dt = Fixpt.Round_mode.Floor))
        regs)
    [ "ddc_ci_"; "ddc_cq_" ]

let suite =
  ( "scenario",
    [
      Alcotest.test_case "cordic-12 replays after reset" `Quick
        test_cordic_replay;
      Alcotest.test_case "ddc-frontend replays after reset" `Quick
        test_ddc_replay;
      Alcotest.test_case "fft-16 replays after reset" `Quick test_fft_replay;
      Alcotest.test_case "ddc CIC registers wrap/floor at Hogenauer width"
        `Quick test_ddc_cic_types;
    ] )
