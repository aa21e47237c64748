(* perfbench --self-test: checks on the harness itself.

   - every metric name matches [A-Za-z0-9_.-]+ and carries a unit, in
     the catalogue, in BENCHMARK.json and in what the runs emit;
   - a traced run of each workload emits every per-layer metric the
     catalogue says that workload measures, and fails nothing;
   - an untraced run emits every end-to-end metric, non-zero, and with
     one report tampered (sweeps, serve-mix) or one verdict flipped
     (refine-verify) it counts a failure. *)

open Pb_util

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") s;
      if not ok then incr failures)
    fmt

let squeeze s = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s)))

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let catalogue () =
  let names = List.map fst Spec.end_to_end @ List.map (fun (n, _, _) -> n) Spec.per_layer in
  check
    (List.length (List.sort_uniq compare names) = List.length names)
    "metric names are unique (%d)" (List.length names);
  let bench = squeeze (read_file "BENCHMARK.json") in
  List.iter
    (fun n ->
      let u = Option.value ~default:"" (Spec.unit_of n) in
      check (Spec.valid_name n && u <> "") "%s is a valid name with unit %S" n u;
      check
        (contains ~sub:(Printf.sprintf "{\"name\":\"%s\",\"unit\":\"%s\"" n u) bench)
        "BENCHMARK.json lists %s in %s" n u)
    names

let emitted workload (o : outcome) =
  List.iter
    (fun x ->
      check
        (Spec.valid_name x.name && Spec.unit_of x.name = Some x.unit_)
        "%s emits %s with its catalogue unit (%s)" workload x.name x.unit_)
    o.metrics

let run ~state ~run_workload =
  catalogue ();
  List.iteri
    (fun i workload ->
      let ctx trace tamper =
        {
          seed = 1;
          seconds = 2.0;
          trace;
          jobs = nproc ();
          state = Filename.concat state (Printf.sprintf "%d-%b-%b" i trace tamper);
          tamper;
        }
      in
      let go c =
        mkdir_p c.state;
        Fun.protect ~finally:(fun () -> rm_rf state) (fun () -> run_workload c workload)
      in
      let traced = go (ctx true false) in
      emitted workload traced;
      check (traced.failed = 0 && traced.attempted > 0) "%s traced run fails nothing (%d of %d)"
        workload traced.failed traced.attempted;
      List.iter
        (fun (name, _, users) ->
          if List.mem workload users then
            check
              (List.exists (fun x -> x.name = name) traced.metrics)
              "%s traced run measures %s" workload name)
        Spec.per_layer;
      let tampered = go (ctx false true) in
      emitted workload tampered;
      List.iter
        (fun (name, _) ->
          check
            (List.exists (fun x -> x.name = name && x.value > 0.0) tampered.metrics)
            "%s reports %s, non-zero" workload name)
        Spec.end_to_end;
      check (tampered.failed > 0) "%s counts the tampered output (failed %d of %d)" workload
        tampered.failed tampered.attempted)
    (* serve-mix first: it forks daemons, which OCaml 5 refuses once the
       process has spawned a domain, as the sweeps do *)
    [ "serve-mix"; "refine-verify"; "sweep-fir"; "sweep-sync" ];
  Printf.printf "self-test: %s (%d failure%s)\n" (if !failures = 0 then "passed" else "FAILED")
    !failures (if !failures = 1 then "" else "s");
  if !failures = 0 then 0 else 1
