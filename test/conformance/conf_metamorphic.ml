(* Conformance: metamorphic invariants over the standard workloads.

   One alcotest case per workload so a failure names the design it broke
   on; the invariants themselves live in Oracle.Metamorphic. *)

open Fixrefine

let run_workload (w : Oracle.Workloads.t) () =
  let r = Oracle.Metamorphic.run_workload w in
  let checks = Oracle.Metamorphic.checks r in
  if not (Oracle.Check.passed checks) then
    Alcotest.failf "%a" Oracle.Check.pp checks;
  Alcotest.(check bool)
    (Printf.sprintf "%s: some invariants checked" w.Oracle.Workloads.name)
    true
    (r.Oracle.Metamorphic.checked > 0)

let test_all_workloads_covered () =
  let names =
    List.map (fun (w : Oracle.Workloads.t) -> w.Oracle.Workloads.name)
      Oracle.Workloads.all
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "workload %s registered" expected)
        true (List.mem expected names))
    [ "fir"; "lms"; "cordic"; "timing"; "ddc"; "sync" ]

let test_run_all_merges () =
  let r = Oracle.Metamorphic.run_all () in
  Alcotest.(check int) "six workloads" 6
    (List.length r.Oracle.Metamorphic.workloads);
  Alcotest.(check bool) "no failures" true
    (Oracle.Check.passed (Oracle.Metamorphic.checks r))

let per_workload_cases =
  List.map
    (fun (w : Oracle.Workloads.t) ->
      Alcotest.test_case
        (Printf.sprintf "invariants: %s" w.Oracle.Workloads.name)
        `Quick (run_workload w))
    Oracle.Workloads.all

let suite =
  ( "conformance.metamorphic",
    Alcotest.test_case "all paper workloads registered" `Quick
      test_all_workloads_covered
    :: per_workload_cases
    @ [ Alcotest.test_case "run_all merges all six" `Quick test_run_all_merges ]
  )
