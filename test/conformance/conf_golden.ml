(* Conformance: golden traces.

   The dune sandbox materializes test/conformance/golden/* next to the
   test binary (see the (deps) clause), so Oracle.Golden.default_dir
   resolves to ./golden here and the suite compares against exactly the
   committed files.  Regenerate after an intentional behaviour change
   with:  dune exec bin/fxrefine.exe -- check --update-golden  *)

open Fixrefine

(* one full generation pass shared by the comparison tests *)
let result = lazy (Oracle.Golden.check ())

let test_goldens_match () =
  let checks = Oracle.Golden.checks (Lazy.force result) in
  if not (Oracle.Check.passed checks) then
    Alcotest.failf
      "%a@.regenerate with: dune exec bin/fxrefine.exe -- check \
       --update-golden"
      Oracle.Check.pp checks

let test_trace_coverage () =
  (* at least the three refine-flow workloads carry both a trace and a
     refinement report *)
  let r = Lazy.force result in
  let files = List.map (fun e -> e.Oracle.Golden.file) r.Oracle.Golden.entries in
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%s present" f) true
        (List.mem f files))
    [
      "fir.trace"; "fir.refine"; "lms.trace"; "lms.refine"; "timing.trace";
      "timing.refine"; "cordic.trace"; "ddc.trace";
    ]

let test_trace_deterministic () =
  (* two fresh builds of the same workload render byte-identical traces:
     the precondition for golden comparison to be meaningful at all *)
  List.iter
    (fun (w : Oracle.Workloads.t) ->
      let render () =
        let b = w.Oracle.Workloads.build () in
        b.Oracle.Workloads.run ();
        Oracle.Golden.trace_of_built b
      in
      Alcotest.(check string)
        (Printf.sprintf "%s trace deterministic" w.Oracle.Workloads.name)
        (render ()) (render ()))
    Oracle.Workloads.all

let test_missing_reported () =
  (* pointing at an empty directory must fail loudly, not silently pass *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fx_no_goldens" in
  let r = Oracle.Golden.check ~dir () in
  Alcotest.(check bool) "missing goldens fail the check" false
    (Oracle.Check.passed (Oracle.Golden.checks r));
  Alcotest.(check bool) "every entry reported missing" true
    (List.for_all
       (fun e -> e.Oracle.Golden.outcome = Oracle.Golden.Missing)
       r.Oracle.Golden.entries)

let suite =
  ( "conformance.golden",
    [
      Alcotest.test_case "traces match committed goldens" `Quick
        test_goldens_match;
      Alcotest.test_case "expected files covered" `Quick test_trace_coverage;
      Alcotest.test_case "traces are deterministic" `Quick
        test_trace_deterministic;
      Alcotest.test_case "missing goldens are failures" `Quick
        test_missing_reported;
    ] )
