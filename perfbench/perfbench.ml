(* perfbench — the refinement stack's benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
   perfbench --self-test

   One process runs one workload for S seconds, checks every output it
   produced, and prints as its last stdout line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
   end-to-end metrics, measured with every hook off; --trace 1 reports
   the per-layer metrics from a traced run (see README.md). *)

open Pb_util

let usage =
  "usage: perfbench --workload (sweep-fir|sweep-sync|serve-mix|refine-verify) \
   --seed N --seconds S --trace 0|1\n       perfbench --self-test"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let run_workload ctx name =
  match name with
  | "sweep-fir" -> Wl_sweep.run ctx Wl_sweep.fir
  | "sweep-sync" -> Wl_sweep.run ctx Wl_sweep.sync
  | "serve-mix" -> Wl_serve.run ctx
  | "refine-verify" -> Wl_refine.run ctx
  | w -> fail "unknown workload %S\n%s" w usage

(* The reported metric set: exactly the catalogue's end-to-end metrics
   (--trace 0) or per-layer metrics (--trace 1), in catalogue order.  A
   per-layer metric this workload does not measure reads 0; a missing
   end-to-end metric is a bug. *)
let select ~trace workload (o : outcome) =
  let find name = List.find_opt (fun x -> String.equal x.name name) o.metrics in
  if trace then
    List.map
      (fun (name, unit_, _) ->
        match find name with Some x -> x | None -> m name unit_ 0.0)
      Spec.per_layer
  else
    List.map
      (fun (name, _) ->
        match find name with
        | Some x -> x
        | None -> failwith (Printf.sprintf "%s: no end-to-end metric %s" workload name))
      Spec.end_to_end

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str x.name)
           (json_num x.value) (json_str x.unit_))
       ms)

let result_line (o : outcome) ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed (metrics_json ms)

(* The record line: host block, seed, workload, every metric of the
   outcome and the workload's detail fields. *)
let record_line ctx workload ~calibration ~fsync (o : outcome) =
  let fields =
    [
      ("workload", json_str workload);
      ("seed", string_of_int ctx.seed);
      ("seconds", json_num ctx.seconds);
      ("trace", string_of_bool ctx.trace);
      ( "host",
        Printf.sprintf
          "{\"nproc\": %d, \"ocaml\": %s, \"calibration_mops\": %s, \"calibration_fsync_ms\": %s}"
          (nproc ()) (json_str Sys.ocaml_version) (json_num calibration) (json_num fsync) );
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ("failed_frac", json_num (ratio (fi o.failed) (fi o.attempted)));
      ("metrics", "{" ^ metrics_json o.metrics ^ "}");
    ]
    @ o.detail
  in
  "perfbench-record {"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) v) fields)
  ^ "}"

let execute ctx workload =
  let calibration = calibration_score () in
  mkdir_p ctx.state;
  let fsync = fsync_ms ~dir:ctx.state in
  let o =
    Fun.protect ~finally:(fun () -> rm_rf ctx.state) (fun () -> run_workload ctx workload)
  in
  let ms = select ~trace:ctx.trace workload o in
  List.iter
    (fun x -> Printf.printf "%-32s %14.6g %s\n" x.name x.value x.unit_)
    ms;
  print_endline (record_line ctx workload ~calibration ~fsync o);
  print_endline (result_line o ms)

let state_dir workload =
  Filename.concat ".bench_state" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))

let setup_probe workload seed =
  let seed = int_of_string seed in
  (match workload with
  | "sweep-fir" | "sweep-sync" ->
      let shape = if workload = "sweep-fir" then Wl_sweep.fir else Wl_sweep.sync in
      Wl_sweep.setup
        { seed; seconds = 0.0; trace = false; jobs = nproc (); state = ""; tamper = false }
        shape
  | "refine-verify" -> Wl_refine.setup ()
  | w -> fail "no set-up probe for %S" w);
  print_string "r";
  flush stdout

let run_args args =
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> fail "unexpected argument %S\n%s" a usage
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> fail "missing --%s\n%s" k usage in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> fail "--%s: not an integer" k in
  let workload = get "workload" in
  if not (List.mem workload Spec.workloads) then fail "unknown workload %S\n%s" workload usage;
  let trace =
    match get "trace" with "0" -> false | "1" -> true | v -> fail "--trace: %S is not 0 or 1" v
  in
  let seconds = int_of "seconds" in
  if seconds < 1 then fail "--seconds must be >= 1";
  execute
    { seed = int_of "seed"; seconds = fi seconds; trace; jobs = nproc (); state = state_dir workload; tamper = false }
    workload

let () =
  match List.tl (Array.to_list Sys.argv) with
  (* internal: spawned by [Pb_util.setup_probe] *)
  | [ "--setup-probe"; workload; "--seed"; seed ] -> setup_probe workload seed
  | [ "--self-test" ] -> exit (Selftest.run ~state:(state_dir "self-test") ~run_workload)
  | args -> run_args args
