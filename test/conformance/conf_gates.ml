(* Conformance: the gate table behind `fxrefine check`. *)

open Fixrefine

let names = List.map (fun (Oracle.Gates.Gate g) -> g.name) Oracle.Gates.all

let index name =
  let rec go i = function
    | [] -> Alcotest.failf "gate %s missing from the table" name
    | n :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 names

let test_order () =
  Alcotest.(check (list string))
    "unique, in check's print order"
    [
      "differential"; "metamorphic"; "golden"; "chaos"; "sweep"; "trace";
      "faults"; "compiled"; "bench"; "bench-compiled"; "verify";
      "bench-verify"; "serve"; "sync"; "bench-sync";
    ]
    names

(* OCaml 5 forbids fork after the first Domain.spawn *)
let test_chaos_before_domains () =
  List.iter
    (fun g ->
      if index "chaos" >= index g then
        Alcotest.failf "chaos must run before %s (it spawns domains)" g)
    [ "sweep"; "trace"; "faults"; "compiled"; "serve"; "sync" ]

let test_bench_rows_resolve () =
  List.iter
    (fun (guard : Oracle.Bench_guard.guard) ->
      ignore (index guard.Oracle.Bench_guard.gate);
      List.iter
        (fun (r : Oracle.Bench_guard.row) ->
          let s = r.Oracle.Bench_guard.scenario in
          if
            not
              (List.mem s Scenario.names
              || List.mem_assoc s Verify.Designs.all)
          then
            Alcotest.failf "%s: row %s measures unknown design %s"
              guard.Oracle.Bench_guard.file r.Oracle.Bench_guard.name s)
        guard.Oracle.Bench_guard.rows)
    Oracle.Bench_guard.[ sim; compiled; verify; sync ]

let test_guard_threshold () =
  let report ratio =
    {
      Oracle.Bench_guard.title = "bench guard";
      note = None;
      entries =
        [
          {
            Oracle.Bench_guard.bench = "row";
            samples_per_run = 1;
            baseline = 1.0;
            measured = ratio;
            ratio;
          };
        ];
    }
  in
  Alcotest.(check bool) "0.79x fails" false
    (Oracle.Bench_guard.passed (report 0.79));
  Alcotest.(check bool) "0.80x passes" true
    (Oracle.Bench_guard.passed (report 0.80))

let test_jobs_resolved () =
  Alcotest.(check int) "explicit, clamped to 2" 2 (Oracle.Gates.jobs (Some 1));
  Alcotest.(check int) "explicit" 3 (Oracle.Gates.jobs (Some 3));
  Alcotest.(check bool) "default at least 2" true (Oracle.Gates.jobs None >= 2)

let suite =
  ( "gates",
    [
      Alcotest.test_case "table order" `Quick test_order;
      Alcotest.test_case "chaos before domain gates" `Quick
        test_chaos_before_domains;
      Alcotest.test_case "bench rows resolve" `Quick test_bench_rows_resolve;
      Alcotest.test_case "guard fails below 0.8x" `Quick test_guard_threshold;
      Alcotest.test_case "jobs resolved once" `Quick test_jobs_resolved;
    ] )
