(* Conformance: the gate table behind `fxrefine check`. *)

open Fixrefine

let names = List.map (fun (g : Oracle.Gates.t) -> g.name) Oracle.Gates.all

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

let guards = Oracle.Bench_guard.[ sim; compiled; verify; sync ]

let test_bench_rows_resolve () =
  (* a row's design name resolves to exactly one design *)
  let designs = Scenario.names @ List.map fst Verify.Designs.all in
  List.iter
    (fun d ->
      if List.length (List.filter (String.equal d) designs) > 1 then
        Alcotest.failf "design name %s is declared twice" d)
    designs;
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
    guards

(* A gate that produced no checks proved nothing. *)
let test_no_checks_fail () =
  Alcotest.(check bool) "no checks fail" false (Oracle.Check.passed []);
  let c ok = { Oracle.Check.name = "c"; ok; detail = "" } in
  Alcotest.(check bool) "all ok pass" true (Oracle.Check.passed [ c true ]);
  Alcotest.(check bool) "one failure fails" false
    (Oracle.Check.passed [ c true; c false ])

let test_guard_threshold () =
  let checks ratio =
    Oracle.Bench_guard.score Oracle.Bench_guard.sim
      [ ("row", 1.0) ] [ ("row", ratio) ]
  in
  Alcotest.(check bool) "0.79x fails" false
    (Oracle.Check.passed (checks 0.79));
  Alcotest.(check bool) "0.80x passes" true
    (Oracle.Check.passed (checks 0.80))

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_unit () =
  let g = Oracle.Bench_guard.verify in
  match
    Oracle.Bench_guard.score g
      [ ("verify-biquad-proof", 100.0) ]
      [ ("verify-biquad-proof", 90.0) ]
  with
  | [ c ] ->
      Alcotest.(check string) "named after the row" "verify-biquad-proof"
        c.Oracle.Check.name;
      if not (contains "90 transitions/sec vs baseline 100" c.Oracle.Check.detail)
      then Alcotest.failf "verify row lacks its unit: %s" c.Oracle.Check.detail
  | cs -> Alcotest.failf "one row scored into %d checks" (List.length cs)

let figures (g : Oracle.Bench_guard.guard) =
  List.mapi
    (fun i (r : Oracle.Bench_guard.row) ->
      (r.Oracle.Bench_guard.name, Float.of_int (i + 1) *. 1234567.891))
    g.Oracle.Bench_guard.rows

let rows_t = Alcotest.(result (list (pair string (float 0.0))) string)

let test_baseline_roundtrip () =
  List.iter
    (fun g ->
      let rows = figures g in
      Alcotest.check rows_t g.Oracle.Bench_guard.file (Ok rows)
        Oracle.Bench_guard.(read g (write g rows)))
    guards

(* Each broken shape is an [Error] naming the file (and the row). *)
let test_baseline_broken () =
  let g = Oracle.Bench_guard.sync in
  let good = Oracle.Bench_guard.write g (figures g) in
  let expect_error what text names =
    match Oracle.Bench_guard.read g text with
    | Ok _ -> Alcotest.failf "%s: read Ok" what
    | Error e ->
        List.iter
          (fun sub ->
            if not (contains sub e) then
              Alcotest.failf "%s: error %S does not name %s" what e sub)
          (g.Oracle.Bench_guard.file :: names)
  in
  expect_error "malformed" (String.sub good 0 (String.length good - 3)) [];
  expect_error "wrong unit"
    (Oracle.Bench_guard.write { g with unit = "lane-samples/sec" } (figures g))
    [ "unit" ];
  expect_error "missing row"
    (Oracle.Bench_guard.write g [ List.hd (figures g) ])
    [ "sync-gardner-pam2" ];
  expect_error "stray row"
    (Oracle.Bench_guard.write g (figures g @ [ ("sync-old", 1.0) ]))
    [ "sync-old" ]

(* [run] fails a broken file before measuring anything, and skips (and
   passes) a missing one. *)
let test_baseline_run () =
  let file = Filename.temp_file "bench_guard" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "{\"unit\": ");
  let broken = Oracle.Bench_guard.(run { sync with file }) in
  Sys.remove file;
  Alcotest.(check bool) "broken file fails" false
    (Oracle.Check.passed broken);
  (match broken with
  | [ c ] ->
      Alcotest.(check bool) "broken file is named" true
        (contains file c.Oracle.Check.detail)
  | cs ->
      Alcotest.failf "broken file measured %d rows" (List.length cs - 1));
  let missing = Oracle.Bench_guard.(run { sync with file }) in
  Alcotest.(check bool) "missing file passes" true
    (Oracle.Check.passed missing);
  Alcotest.(check bool) "missing file is skipped" true
    (List.exists (fun c -> contains "skipped" c.Oracle.Check.detail) missing)

(* The committed baselines, at the repo root. *)
let test_committed_baselines () =
  List.iter
    (fun g ->
      let file = g.Oracle.Bench_guard.file in
      match
        Oracle.Bench_guard.read g
          (In_channel.with_open_bin (Filename.concat "../.." file)
             In_channel.input_all)
      with
      | Error e -> Alcotest.fail e
      | Ok rows ->
          Alcotest.(check (list string))
            (file ^ ": every guarded row")
            (List.map
               (fun (r : Oracle.Bench_guard.row) -> r.Oracle.Bench_guard.name)
               g.Oracle.Bench_guard.rows)
            (List.map fst rows);
          if List.mem_assoc "unit" rows then
            Alcotest.failf "%s: a row named unit" file)
    guards

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
      Alcotest.test_case "no checks fail the gate" `Quick test_no_checks_fail;
      Alcotest.test_case "guard fails below 0.8x" `Quick test_guard_threshold;
      Alcotest.test_case "report prints the guard's unit" `Quick
        test_report_unit;
      Alcotest.test_case "baseline write/read round-trip" `Quick
        test_baseline_roundtrip;
      Alcotest.test_case "broken baseline is an error" `Quick
        test_baseline_broken;
      Alcotest.test_case "broken baseline fails the guard" `Quick
        test_baseline_run;
      Alcotest.test_case "committed baselines read" `Quick
        test_committed_baselines;
      Alcotest.test_case "jobs resolved once" `Quick test_jobs_resolved;
    ] )
