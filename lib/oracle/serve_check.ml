(** Cache-transparency gate — the oracle for the content-addressed
    evaluation cache and the serve daemon.

    The cache's contract is {e invisibility}: plugging it into a sweep
    may change wall-clock, never bytes.  This gate runs the sweep gate's
    [grid] row four ways — no cache; cold cache; warm cache (same
    directory, should answer from disk); warm cache at [jobs=N] — and
    holds all four canonical JSON reports to byte equality, while also
    requiring the warm runs to actually hit (a cache that never hits is
    trivially transparent and a broken one).  A final daemon round
    trip (ping → sweep → stats → shutdown over a real Unix socket)
    checks the serve path returns the byte-identical report of the same
    job run locally. *)

let check name ok detail = { Check.name; ok; detail }

let byte_equal name what a b =
  check name (String.equal a b)
    (what ^ if String.equal a b then ": byte-identical" else ": differ")

(* The job the daemon is sent.  The daemon sweeps its own default-sized
   fir workload, so the reference is the same job resolved locally. *)
let daemon_job =
  {
    Sweep.Job.workload = "fir";
    strategy = "grid";
    f_min = 4;
    f_max = 7;
    seeds = 2;
    jobs = 1;
    budget = None;
    target_db = 40.0;
    timeout_s = Some 300.0;
  }

let daemon_reference () =
  match Sweep.Job.resolve daemon_job with
  | Ok (workload, generator) ->
      Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ~workload ~generator ())
  | Error e -> invalid_arg ("Serve_check.daemon_job: " ^ e)

let request c req =
  match Serve.Client.request c req with
  | r -> Some r
  | exception _ -> None

(* ping, sweep and stats on one connection; the daemon is sent its
   shutdown on a fresh connection whatever happened before, so a failed
   connect or a raised request still ends in [Thread.join] returning
   and the gate printing a failing check instead of hanging. *)
let daemon_trip ~dir =
  let socket = Filename.concat dir "gate.sock" in
  let daemon =
    Thread.create
      (fun () ->
        try Serve.Daemon.run ~cache_dir:(Filename.concat dir "dcache") ~socket ()
        with _ -> ())
      ()
  in
  let bye = ref false in
  let stop () =
    (match Serve.Client.connect_retry socket with
    | exception _ -> ()
    | c ->
        bye :=
          (match request c (Serve.Protocol.Shutdown { id = "q" }) with
          | Some (Serve.Protocol.Bye { id = "q" }) -> true
          | _ -> false);
        Serve.Client.close c);
    Thread.join daemon
  in
  let exchange () =
    match Serve.Client.connect_retry socket with
    | exception e -> Error ("connect failed: " ^ Printexc.to_string e)
    | c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            let ping =
              match request c (Serve.Protocol.Ping { id = "p" }) with
              | Some (Serve.Protocol.Pong { id = "p" }) -> true
              | _ -> false
            in
            let report =
              match
                request c
                  (Serve.Protocol.Sweep { id = "s"; params = daemon_job })
              with
              | Some (Serve.Protocol.Report { id = "s"; report; _ }) ->
                  Some report
              | _ -> None
            in
            let stats =
              match request c (Serve.Protocol.Stats { id = "t" }) with
              | Some (Serve.Protocol.Stats_reply { id = "t"; _ }) -> true
              | _ -> false
            in
            Ok (ping, report, stats))
  in
  let trip = Fun.protect ~finally:stop exchange in
  let reference = daemon_reference () in
  match trip with
  | Error e -> [ check "daemon/round-trip" false e; check "daemon/report" false e ]
  | Ok (ping, report, stats) ->
      [
        check "daemon/round-trip"
          (ping && report <> None && stats && !bye)
          (Printf.sprintf "ping %b, sweep %b, stats %b, shutdown %b" ping
             (report <> None) stats !bye);
        (match report with
        | Some r -> byte_equal "daemon/report" "daemon vs local report" r reference
        | None -> check "daemon/report" false "no report received");
      ]

let run ~jobs =
  Durable.with_temp_dir ~prefix:"fxserve-gate" @@ fun dir ->
  let cache_dir = Filename.concat dir "cache" in
  let sweep ?cache ~jobs () =
    Sweep_check.sweep ~jobs
      ?cache:(Option.map Serve.Codec.eval_cache cache)
      "grid"
  in
  (* reference: no cache at all *)
  let plain = sweep ~jobs:1 () in
  let candidates = List.length plain.Sweep.Report.entries in
  let reference = Sweep.Report.to_json plain in
  (* cold: empty persistent cache *)
  let cold =
    Sweep.Report.to_json
      (sweep ~cache:(Serve.Cache.create ~dir:cache_dir ()) ~jobs:1 ())
  in
  (* warm: a fresh cache value over the same directory — hits must come
     from the persisted entries, not the in-process table *)
  let warm_cache = Serve.Cache.create ~dir:cache_dir () in
  let warm = Sweep.Report.to_json (sweep ~cache:warm_cache ~jobs:1 ()) in
  let hits = (Serve.Cache.stats warm_cache).Serve.Cache.hits in
  (* warm parallel: shared cache under concurrent workers *)
  let warm_jobs = Sweep.Report.to_json (sweep ~cache:warm_cache ~jobs ()) in
  [
    byte_equal "cold-transparent" "no cache vs cold cache" reference cold;
    byte_equal "warm-identical" "cold vs warm re-sweep" cold warm;
    byte_equal "jobs-identical"
      (Printf.sprintf "warm jobs 1 vs %d" jobs)
      warm warm_jobs;
    check "warm-hits" (hits >= candidates)
      (Printf.sprintf "%d hits / %d candidates" hits candidates);
  ]
  @ daemon_trip ~dir
