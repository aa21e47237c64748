(* Workload serve-mix: a [Serve.Daemon] with a persistent cache and a
   journal directory, driven by one closed-loop client that waits for
   each reply before sending its next job.

   The run is a sequence of episodes.  Each episode forks a daemon on
   fresh, empty state directories (the daemon's start until it answers
   a ping is the set-up time), plays the seeded job stream to it, and
   stops it.  Every episode plays the same stream, so one set of local
   references checks them all.  The stream mixes three job classes:

   - novel: a grid over an f window no earlier job touched (fir), or a
     small sync grid (sync bypasses the cache) — cache misses, CRC'd
     fsync'd inserts, a journal intent and new wave checkpoints;
   - overlap: a bisection over the window of an earlier novel fir job,
     so a different sweep key over points already cached — cache reads,
     a handful of waves each;
   - repeat: an identical resubmit of an earlier job.

   One client, not nproc: the daemon's connection threads share one
   OCaml runtime lock, handed over when a job blocks (fsync) or on the
   50 ms tick.  With two clients on a 2-core host throughput stayed the
   same, p50 latency doubled, and every latency figure swung 20-35%
   between runs of the same code — too wide for a bound.  With one
   client every job is sent after the previous reply, so an overlap or
   repeat job always follows its completed original.

   What actually answered each job (checkpoint replay, the cache, or
   fresh evaluation) is measured, not assumed: see [classify]. *)

open Pb_util

type cls = Novel | Overlap | Repeat

let cls_name = function Novel -> "novel" | Overlap -> "overlap" | Repeat -> "repeat"

type job = { cls : cls; params : Serve.Protocol.sweep_params }

let params ~workload ~strategy ~f_min ~f_max ~seeds ~target_db =
  {
    Serve.Protocol.workload;
    strategy;
    f_min;
    f_max;
    seeds;
    jobs = 1;
    budget = None;
    target_db;
    timeout_s = None;
  }

(* The seeded job stream of one episode. *)
let stream ctx =
  let rng = Random.State.make [| ctx.seed; 0x5e4e |] in
  let shuffle l =
    List.map (fun x -> (Random.State.bits rng, x)) l
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let windows = List.filteri (fun i _ -> i < 6) (shuffle (List.init 7 Fun.id)) in
  let fir_novel =
    List.map
      (fun k ->
        let f_min = 2 + (4 * k) in
        ( Some (f_min, f_min + 3),
          params ~workload:"fir" ~strategy:"grid" ~f_min ~f_max:(f_min + 3) ~seeds:3 ~target_db:40.0 ))
      windows
  in
  let sync_novel =
    List.map
      (fun f -> (None, params ~workload:"sync" ~strategy:"grid" ~f_min:f ~f_max:f ~seeds:2 ~target_db:40.0))
      (List.filteri (fun i _ -> i < 3) (shuffle (List.init 10 (fun i -> 3 + i))))
  in
  let novel = ref (shuffle (fir_novel @ sync_novel)) in
  (* what the six repeats resubmit: two novel fir grids, one sync grid,
     three overlap bisections — fixed, so every seed carries the same
     load *)
  let repeat_plan = ref [ `Fir; `Fir; `Sync; `Overlap; `Overlap; `Overlap ] in
  let kind (j : job) =
    match (j.cls, j.params.Serve.Protocol.workload) with
    | Overlap, _ -> `Overlap
    | _, "sync" -> `Sync
    | _ -> `Fir
  in
  let issued = ref [] (* (job, window), newest first *) and out = ref [] in
  let overlapped = ref [] and repeated = ref [] in
  let emit cls p window =
    let j = { cls; params = p } in
    out := j :: !out;
    issued := (j, window) :: !issued
  in
  let overlap_ready () =
    List.filter (fun (j, w) -> j.cls = Novel && w <> None && not (List.memq j !overlapped)) !issued
  in
  let repeat_ready () =
    List.filter
      (fun (j, _) -> j.cls <> Repeat && (not (List.memq j !repeated)) && List.mem (kind j) !repeat_plan)
      !issued
  in
  while !novel <> [] || List.length !overlapped < List.length fir_novel || !repeat_plan <> [] do
    let choices =
      (if !novel <> [] then [ `Novel ] else [])
      @ (if overlap_ready () <> [] then [ `Overlap ] else [])
      @ if repeat_ready () <> [] then [ `Repeat ] else []
    in
    match pick choices with
    | `Novel ->
        let w, p = List.hd !novel in
        novel := List.tl !novel;
        emit Novel p w
    | `Overlap ->
        let j, w = pick (overlap_ready ()) in
        overlapped := j :: !overlapped;
        let f_min, f_max = Option.get w in
        emit Overlap
          (params ~workload:"fir" ~strategy:"bisect" ~f_min ~f_max ~seeds:j.params.Serve.Protocol.seeds
             ~target_db:(pick [ 20.0; 40.0; 60.0; 80.0; 100.0; 120.0; 140.0 ]))
          None
    | `Repeat ->
        let j, w = pick (repeat_ready ()) in
        repeated := j :: !repeated;
        let rec drop = function [] -> [] | k :: rest when k = kind j -> rest | k :: rest -> k :: drop rest in
        repeat_plan := drop !repeat_plan;
        emit Repeat j.params w
  done;
  Array.of_list (List.rev !out)

(* --- local references ----------------------------------------------------------- *)

(* The daemon's generator for [p], rebuilt from the protocol's
   documented meaning of its fields (seeds are 0..N-1). *)
let generator (p : Serve.Protocol.sweep_params) (w : Sweep.Workload.t) =
  let specs = w.Sweep.Workload.specs in
  let seeds = List.init p.Serve.Protocol.seeds Fun.id in
  match p.Serve.Protocol.strategy with
  | "grid" -> Sweep.Generator.grid ~specs ~f_min:p.f_min ~f_max:p.f_max ~seeds
  | "bisect" ->
      Sweep.Generator.bisect ~specs ~f_min:p.f_min ~f_max:p.f_max
        ~target_db:p.target_db ~seeds
  | s -> invalid_arg ("generator: " ^ s)

type reference = {
  report : Sweep.Report.t;
  json : string;
  waves : Sweep.Candidate.t list list;  (** the candidates of each wave *)
}

(* The same sweep run locally through [Pool.run], without cache or
   checkpoint; the generator is wrapped only to record each wave's
   candidate list. *)
let reference (p : Serve.Protocol.sweep_params) =
  let w = Option.get (Sweep.Workload.find p.Serve.Protocol.workload) in
  let gen = generator p w in
  let waves = ref [] in
  let generator =
    {
      gen with
      Sweep.Generator.next =
        (fun prev ->
          let wave = gen.Sweep.Generator.next prev in
          if wave <> [] then waves := wave :: !waves;
          wave);
    }
  in
  let report = Sweep.Pool.run ~jobs:1 ~workload:w ~generator () in
  { report; json = Sweep.Report.to_json report; waves = List.rev !waves }

(* --- one episode ------------------------------------------------------------------- *)

(* The wave-journal directory the daemon keeps for [p]: the daemon keys
   it by every parameter that determines the report. *)
let checkpoint_key (p : Serve.Protocol.sweep_params) =
  Sweep.Checkpoint.sweep_key ~workload:p.Serve.Protocol.workload
    ~strategy:p.Serve.Protocol.strategy ~context:(Serve.Codec.context ())
    [
      ("f_min", string_of_int p.f_min);
      ("f_max", string_of_int p.f_max);
      ("seeds", string_of_int p.seeds);
      ("budget", match p.budget with Some b -> string_of_int b | None -> "none");
      ("target_db", Printf.sprintf "%h" p.target_db);
    ]

let wave_files dir =
  match Sys.readdir dir with
  | files ->
      Array.fold_left
        (fun n f -> if String.length f > 5 && String.sub f 0 5 = "wave-" then n + 1 else n)
        0 files
  | exception Sys_error _ -> 0

type reply = {
  idx : int;
  latency : float;
  pre_waves : int;  (** wave files of the job's key before it was sent *)
  pre_cached : bool;
      (** every candidate of the job had a cache entry before it was sent *)
  resp : Serve.Protocol.response;
  ping : float option;
}

type episode = {
  replies : reply list;
  loop_s : float;  (** first send to last reply *)
  setup : float;  (** fork until the daemon answered a ping *)
  stats : Serve.Cache.stats option;
  daemon_rss : float;
  spans_s : float;  (** Σ in-daemon candidate spans (traced) *)
  gc_words : float;  (** daemon minor words (traced) *)
  gc_major : int;
}

(* The daemon child: serve until shutdown; when traced, collect the
   pool's candidate spans and the GC counters and leave them in
   [dir/spans] for the parent. *)
let daemon_main ~dir ~traced =
  if traced then Trace.Spans.set_enabled true;
  Serve.Daemon.run ~cache_dir:(Filename.concat dir "cache")
    ~journal_dir:(Filename.concat dir "journal")
    ~socket:(Filename.concat dir "d.sock") ();
  if traced then begin
    let busy =
      List.fold_left
        (fun acc (s : Trace.Spans.span) ->
          if s.Trace.Spans.cat = "sweep" then acc +. (s.Trace.Spans.t1 -. s.Trace.Spans.t0) else acc)
        0.0 (Trace.Spans.drain ())
    in
    let g = Gc.quick_stat () in
    Out_channel.with_open_text (Filename.concat dir "spans") (fun oc ->
        Printf.fprintf oc "%h %h %d\n" busy g.Gc.minor_words g.Gc.major_collections)
  end

let request socket req =
  let c = Serve.Client.connect_retry socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.request c req)

(* Connect as soon as the daemon accepts: polled every 0.2 ms, so the
   set-up time is the daemon's start, not a client back-off. *)
let rec connect_fast socket deadline =
  match Serve.Client.connect socket with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
      Unix.sleepf 0.0002;
      connect_fast socket deadline

let episode ~dir ~traced ~keys jobs =
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let cachedir = Filename.concat dir "cache" in
  let ckdir = Filename.concat (Filename.concat dir "journal") "checkpoints" in
  let t_start = now () in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        let code = try daemon_main ~dir ~traced; 0 with _ -> 3 in
        Unix._exit code
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (* a daemon still alive here means the episode failed: stop it *)
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      rm_rf dir)
    (fun () ->
      (let c = connect_fast socket (now () +. 30.0) in
       Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
           match Serve.Client.request c (Serve.Protocol.Ping { id = "setup" }) with
           | Serve.Protocol.Pong _ -> ()
           | _ -> failwith "daemon did not answer the set-up ping"));
      let setup = now () -. t_start in
      let t0 = now () in
      let c = Serve.Client.connect_retry socket in
      let replies =
        Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
            Array.to_list
              (Array.mapi
                 (fun idx (j : job) ->
                   let p = j.params in
                   let pre_waves = wave_files (Filename.concat ckdir (checkpoint_key p)) in
                   let pre_cached =
                     keys.(idx) <> []
                     && List.for_all
                          (fun k -> Sys.file_exists (Filename.concat cachedir (k ^ ".entry")))
                          keys.(idx)
                   in
                   let ping =
                     if traced then
                       Some (snd (time (fun () -> Serve.Client.request c (Serve.Protocol.Ping { id = "p" }))))
                     else None
                   in
                   let t0 = now () in
                   let resp =
                     Serve.Client.request c (Serve.Protocol.Sweep { id = string_of_int idx; params = p })
                   in
                   { idx; latency = now () -. t0; pre_waves; pre_cached; resp; ping })
                 jobs))
      in
      let loop_s = now () -. t0 in
      let stats =
        match request socket (Serve.Protocol.Stats { id = "stats" }) with
        | Serve.Protocol.Stats_reply { stats; _ } -> Some stats
        | _ -> None
      in
      let daemon_rss = peak_rss_mb ~pid:(string_of_int pid) () in
      (match request socket (Serve.Protocol.Shutdown { id = "bye" }) with
      | Serve.Protocol.Bye _ -> ()
      | _ -> failwith "daemon did not acknowledge shutdown");
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "daemon exited abnormally");
      let spans_s, gc_words, gc_major =
        if traced then
          Scanf.sscanf (read_file (Filename.concat dir "spans")) "%h %h %d" (fun a b c -> (a, b, c))
        else (0.0, 0.0, 0)
      in
      {
        replies;
        loop_s;
        setup;
        stats;
        daemon_rss;
        spans_s;
        gc_words;
        gc_major;
      })

(* --- measured traffic -------------------------------------------------------------- *)

type answered = Replayed | Cached | Fresh

(* What answered a job, from the daemon's own artefacts as they stood
   when the job was sent: a job whose every wave was already journaled
   under its checkpoint key is a checkpoint replay; otherwise a fir job
   whose every candidate already had an entry file in the cache
   directory is answered by the cache; anything else needed fresh
   evaluation (sync candidates bypass the cache).  The replies'
   [hits]/[misses] are the daemon's counter deltas across the job,
   which would include a concurrent neighbour's lookups; the artefacts
   do not depend on there being one client. *)
let classify (r : reply) ~waves =
  match r.resp with
  | Serve.Protocol.Report _ ->
      if r.pre_waves >= waves then Some Replayed
      else if r.pre_cached then Some Cached
      else Some Fresh
  | _ -> None

(* --- the layer replay (traced run) ---------------------------------------------------- *)

(* The daemon evaluates inside one process we cannot hook, so the
   traced run replays, on the stream's distinct jobs, the public calls
   a job makes: per wave a [Checkpoint.record], per job a journal
   intent, and per candidate extract → key → [Cache.lookup] (+
   [Codec.decode]) or compile → exec → [Codec.encode] →
   [Cache.insert], on a benchmark-owned cache directory.  Each rebuilt
   or decoded metrics record must equal the reference's. *)
let replay_layers ~dir (refs : (Serve.Protocol.sweep_params * reference) list) =
  let cache = Serve.Cache.create ~dir:(Filename.concat dir "cache") () in
  let journal = Serve.Journal.create ~dir:(Filename.concat dir "journal") in
  let tot = Layers.totals () in
  let lookup_s = ref 0.0 and lookups = ref 0 and insert_s = ref 0.0 and inserts = ref 0 in
  let enc_s = ref 0.0 and encs = ref 0 and dec_s = ref 0.0 and decs = ref 0 in
  let rec_s = ref 0.0 and recs = ref 0 and intent_s = ref 0.0 and intents = ref 0 in
  let make_s = ref 0.0 and json_s = ref 0.0 and reports = ref 0 in
  let checked = ref 0 and bad = ref 0 in
  let context = Serve.Codec.context () in
  let instances = Hashtbl.create 2 in
  List.iter
    (fun ((p : Serve.Protocol.sweep_params), r) ->
      let w = Option.get (Sweep.Workload.find p.Serve.Protocol.workload) in
      let line = Serve.Protocol.request_to_line (Serve.Protocol.Sweep { id = "replay"; params = p }) in
      let name = Serve.Journal.fresh_name journal in
      let (), dt =
        time (fun () ->
            Serve.Journal.record_intent journal { Serve.Journal.name; attempts = 1; line };
            Serve.Journal.mark_done journal ~name)
      in
      intent_s := !intent_s +. dt;
      incr intents;
      let cp =
        Sweep.Checkpoint.create ~dir:(Filename.concat dir "checkpoints") ~key:(checkpoint_key p) ()
      in
      let metrics_of =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (e : Sweep.Report.entry) ->
            Hashtbl.replace tbl e.Sweep.Report.candidate.Sweep.Candidate.id e.Sweep.Report.metrics)
          r.report.Sweep.Report.entries;
        fun (c : Sweep.Candidate.t) -> Hashtbl.find tbl c.Sweep.Candidate.id
      in
      List.iteri
        (fun i wave ->
          let outcomes = List.map (fun c -> (c, Ok (metrics_of c))) wave in
          (match w.Sweep.Workload.name with
          | "fir" ->
              let inst =
                match Hashtbl.find_opt instances "fir" with
                | Some inst -> inst
                | None ->
                    let inst = w.Sweep.Workload.make_instance () in
                    Hashtbl.replace instances "fir" inst;
                    inst
              in
              List.iter
                (fun c ->
                  let expect = metrics_of c in
                  let lookup k =
                    let hit, dt = time (fun () -> Serve.Cache.lookup cache k) in
                    lookup_s := !lookup_s +. dt;
                    incr lookups;
                    Option.map
                      (fun payload ->
                        let m, dt = time (fun () -> Serve.Codec.decode payload) in
                        dec_s := !dec_s +. dt;
                        incr decs;
                        match m with Some m -> m | None -> failwith "cached payload did not decode")
                      hit
                  in
                  incr checked;
                  match Layers.replay ~key:context ~lookup tot ~probe:w.Sweep.Workload.probe inst c with
                  | _, Layers.Hit m -> if not (Layers.same_metrics m expect) then incr bad
                  | Some k, Layers.Computed m ->
                      if not (Layers.same_metrics m expect) then incr bad;
                      let payload, dt = time (fun () -> Serve.Codec.encode m) in
                      enc_s := !enc_s +. dt;
                      incr encs;
                      let (), dt = time (fun () -> Serve.Cache.insert cache k payload) in
                      insert_s := !insert_s +. dt;
                      incr inserts
                  | None, Layers.Computed _ -> incr bad)
                wave
          | _ -> ());
          let (), dt = time (fun () -> Sweep.Checkpoint.record cp ~wave:(i + 1) outcomes) in
          rec_s := !rec_s +. dt;
          incr recs)
        r.waves;
      let results =
        List.map (fun (e : Sweep.Report.entry) -> (e.Sweep.Report.candidate, e.Sweep.Report.metrics))
          r.report.Sweep.Report.entries
      in
      let rp, dt =
        time (fun () ->
            Sweep.Report.make ~workload:r.report.Sweep.Report.workload
              ~strategy:r.report.Sweep.Report.strategy ~probe:r.report.Sweep.Report.probe
              ~conclusion:r.report.Sweep.Report.conclusion ~failures:r.report.Sweep.Report.failures
              results)
      in
      make_s := !make_s +. dt;
      let js, dt = time (fun () -> Sweep.Report.to_json rp) in
      json_s := !json_s +. dt;
      incr reports;
      incr checked;
      if not (String.equal js r.json) then incr bad)
    refs;
  let per s n scale = ratio s (fi n) *. scale in
  ( !checked,
    !bad,
    Layers.metrics tot
    @ [
        m "cache.lookup_us" "us" (per !lookup_s !lookups 1e6);
        m "cache.insert_us" "us" (per !insert_s !inserts 1e6);
        m "codec.encode_us" "us" (per !enc_s !encs 1e6);
        m "codec.decode_us" "us" (per !dec_s !decs 1e6);
        m "checkpoint.record_ms" "ms" (per !rec_s !recs 1e3);
        m "journal.intent_ms" "ms" (per !intent_s !intents 1e3);
        m "report.make_ms" "ms" (per !make_s !reports 1e3);
        m "report.json_ms" "ms" (per !json_s !reports 1e3);
      ] )

(* --- the run ------------------------------------------------------------------------- *)

let run ctx =
  let jobs = stream ctx in
  (* one reference per distinct job, computed before timing (it also
     warms the code the stream reaches) *)
  let refs = ref [] in
  Array.iter
    (fun j -> if not (List.mem_assoc j.params !refs) then refs := (j.params, reference j.params) :: !refs)
    jobs;
  let refs = List.rev !refs in
  let ref_of p = List.assoc p refs in
  (* the cache keys of each fir job's candidates, for [classify] *)
  let keys =
    let inst = lazy ((Option.get (Sweep.Workload.find "fir")).Sweep.Workload.make_instance ()) in
    let tot = Layers.totals () and context = Serve.Codec.context () in
    Array.map
      (fun j ->
        if j.params.Serve.Protocol.workload <> "fir" then []
        else
          List.map
            (fun (e : Sweep.Report.entry) ->
              match
                Layers.replay ~key:context
                  ~lookup:(fun _ -> Some e.Sweep.Report.metrics)
                  tot ~probe:"out" (Lazy.force inst) e.Sweep.Report.candidate
              with
              | Some k, _ -> k
              | None, _ -> assert false)
            (ref_of j.params).report.Sweep.Report.entries)
      jobs
  in
  let per_episode_cands =
    Array.fold_left (fun acc j -> acc + List.length (ref_of j.params).report.Sweep.Report.entries) 0 jobs
  in
  let episodes = ref [] in
  let t_end = now () +. ctx.seconds in
  let k = ref 0 in
  while now () < t_end do
    let traced = traced_iteration ctx !k in
    let dir = Filename.concat ctx.state (Printf.sprintf "e%d" !k) in
    episodes := (traced, episode ~dir ~traced ~keys jobs) :: !episodes;
    incr k
  done;
  let episodes = List.rev !episodes in
  let untraced = List.filter_map (fun (t, e) -> if t then None else Some e) episodes in
  let traced = List.filter_map (fun (t, e) -> if t then Some e else None) episodes in
  (* checks: every reply a report, byte-equal to the local reference *)
  let attempted = ref 0 and failed = ref 0 and busy = ref 0 and errors = ref [] in
  let answered = Hashtbl.create 3 in
  let by_class = Hashtbl.create 3 in
  let tampered = ref (not ctx.tamper) in
  List.iter
    (fun (_, e) ->
      List.iter
        (fun r ->
          let j = jobs.(r.idx) in
          let rf = ref_of j.params in
          incr attempted;
          (match r.resp with
          | Serve.Protocol.Report { report; _ } ->
              let report =
                if !tampered then report
                else begin
                  tampered := true;
                  String.map (function '1' -> '2' | c -> c) report
                end
              in
              if not (String.equal report rf.json) then incr failed
          | Serve.Protocol.Busy _ ->
              incr busy;
              incr failed
          | Serve.Protocol.Error { message; _ } ->
              if not (List.mem message !errors) then errors := message :: !errors;
              incr failed
          | _ -> incr failed);
          match classify r ~waves:(List.length rf.waves) with
          | Some a ->
              Hashtbl.replace answered a (1 + Option.value ~default:0 (Hashtbl.find_opt answered a));
              let key = (j.cls, a) in
              Hashtbl.replace by_class key (1 + Option.value ~default:0 (Hashtbl.find_opt by_class key))
          | None -> ())
        e.replies)
    episodes;
  if List.length episodes * Array.length jobs <> !attempted then
    failed := !failed + ((List.length episodes * Array.length jobs) - !attempted);
  let n_answered = Hashtbl.fold (fun _ v acc -> acc + v) answered 0 in
  let share a = ratio (fi (Option.value ~default:0 (Hashtbl.find_opt answered a))) (fi n_answered) in
  let latencies es = List.concat_map (fun e -> List.map (fun r -> r.latency) e.replies) es in
  let lat_ms = List.map (fun x -> x *. 1e3) (latencies untraced) in
  let n_jobs = List.length lat_ms in
  let tail_ms, tail_pct, tail_blocks = tail lat_ms in
  let layer_metrics =
    if ctx.trace then begin
      let checked, bad, ms = replay_layers ~dir:(Filename.concat ctx.state "replay") refs in
      attempted := !attempted + checked;
      failed := !failed + bad;
      let stats = List.filter_map (fun e -> e.stats) traced in
      let hits = List.fold_left (fun a s -> a + s.Serve.Cache.hits) 0 stats in
      let misses = List.fold_left (fun a s -> a + s.Serve.Cache.misses) 0 stats in
      let inserts = List.fold_left (fun a s -> a + s.Serve.Cache.inserts) 0 stats in
      let n_tr = fi (max 1 (List.length traced)) in
      let replayed_waves =
        List.fold_left
          (fun acc e ->
            List.fold_left
              (fun acc r ->
                let waves = List.length (ref_of jobs.(r.idx).params).waves in
                if classify r ~waves = Some Replayed then acc + waves else acc)
              acc e.replies)
          0 traced
      in
      let tr_lat = latencies traced in
      let pings = List.concat_map (fun e -> List.filter_map (fun r -> r.ping) e.replies) traced in
      ms
      @ [
          m "cache.hit_rate" "frac" (ratio (fi hits) (fi (hits + misses)));
          m "cache.inserts" "count" (fi inserts /. n_tr);
          m "checkpoint.replayed_waves" "count" (fi replayed_waves /. n_tr);
          m "daemon.overhead_ms_per_job" "ms"
            (ratio (sum tr_lat -. sum (List.map (fun e -> e.spans_s) traced)) (fi (List.length tr_lat)) *. 1e3);
          m "daemon.busy_replies" "count" (fi !busy);
          m "daemon.replayed_job_frac" "frac" (share Replayed);
          m "daemon.cached_job_frac" "frac" (share Cached);
          m "daemon.fresh_job_frac" "frac" (share Fresh);
          m "wire.ping_rtt_us" "us" (if pings = [] then 0.0 else median pings *. 1e6);
          m "gc.minor_words_per_cand" "words"
            (ratio (sum (List.map (fun e -> e.gc_words) traced)) (n_tr *. fi per_episode_cands));
          m "gc.major_collections" "count" (fi (List.fold_left (fun a e -> a + e.gc_major) 0 traced) /. n_tr);
          m "trace.overhead_frac" "frac"
            (overhead_frac
               ~traced:(List.map (fun e -> e.loop_s) traced)
               ~untraced:(List.map (fun e -> e.loop_s) untraced));
        ]
    end
    else []
  in
  let metrics =
    if ctx.trace then layer_metrics
    else
      [
        m "setup_s" "s" (median (List.map (fun e -> e.setup) untraced));
        m "jobs_per_s" "1/s" (median (List.map (fun e -> fi (List.length e.replies) /. e.loop_s) untraced));
        m "job_p50_ms" "ms" (median lat_ms);
        m "job_tail_ms" "ms" tail_ms;
        m "candidates_per_s" "1/s" (median (List.map (fun e -> fi per_episode_cands /. e.loop_s) untraced));
        m "peak_rss_mb" "MB" (median (List.map (fun e -> e.daemon_rss) untraced));
      ]
  in
  let class_counts =
    String.concat ", "
      (List.map
         (fun c ->
           let count a = Option.value ~default:0 (Hashtbl.find_opt by_class (c, a)) in
           Printf.sprintf "\"%s\": {\"jobs\": %d, \"replayed\": %d, \"cached\": %d, \"fresh\": %d}"
             (cls_name c)
             (Array.fold_left (fun a j -> if j.cls = c then a + 1 else a) 0 jobs * List.length episodes)
             (count Replayed) (count Cached) (count Fresh))
         [ Novel; Overlap; Repeat ])
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    detail =
      [
        ("episodes", string_of_int (List.length episodes));
        ("jobs_per_episode", string_of_int (Array.length jobs));
        ("candidates_per_episode", string_of_int per_episode_cands);
        ("clients", "1");
        ("job_samples", string_of_int n_jobs);
        ("job_tail_percentile", json_num tail_pct);
        ("job_tail_blocks", string_of_int tail_blocks);
        ("job_ms_percentiles", percentiles_json [ 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.5 ] lat_ms);
        ( "class_ms_percentiles",
          "{"
          ^ String.concat ", "
              (List.map
                 (fun c ->
                   Printf.sprintf "%s: %s" (json_str (cls_name c))
                     (percentiles_json [ 50.; 90.; 99. ]
                        (List.concat_map
                           (fun e ->
                             List.filter_map
                               (fun r -> if jobs.(r.idx).cls = c then Some (r.latency *. 1e3) else None)
                               e.replies)
                           untraced)))
                 [ Novel; Overlap; Repeat ])
          ^ "}" );
        ( "answered_share",
          Printf.sprintf "{\"replayed\": %s, \"cached\": %s, \"fresh\": %s}"
            (json_num (share Replayed)) (json_num (share Cached)) (json_num (share Fresh)) );
        ("by_class", "{" ^ class_counts ^ "}");
        ("busy_replies", string_of_int !busy);
        ("error_replies", "[" ^ String.concat ", " (List.map json_str (List.rev !errors)) ^ "]");
      ];
  }
