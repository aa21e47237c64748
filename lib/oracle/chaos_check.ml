(** Chaos gate — crash-safety under real [SIGKILL]s.

    The crash-safety contract has three legs, and this gate enforces
    each with actual kills, not simulations:

    {ol
    {- {b Sweep checkpoint/resume}: a checkpointed bisect sweep is
       forked and self-SIGKILLed at a seeded evaluation index mid-run;
       the parent then resumes from the surviving wave journal and the
       final report must be byte-identical to a never-killed run —
       crossing [jobs] between the killed writer and the resumer, so
       the journal is also shown to be parallelism-independent.  The
       killed run's cache directory must pass a full CRC scrub with
       zero corrupt entries (atomic writes leave no torn files).}
    {- {b Daemon supervision}: a journaled daemon is forked, handed a
       sweep job (fire-and-forget), SIGKILLed once its write-ahead
       intent is on disk, and restarted over the same directories.  The
       restarted daemon must drain every pending intent (re-run, not
       quarantined), answer a fresh identical job with the
       byte-identical report, then exit cleanly on a [SIGTERM] drain,
       removing its socket.}
    {- {b Cache scrub}: a populated cache directory is corrupted at
       seeded offsets (truncations and byte flips); {!Serve.Cache.scrub}
       must detect {e every} damaged entry, every subsequent lookup of
       a damaged key must be a clean miss, and undamaged entries must
       still read back verbatim.}
    {- {b Wave corruption}: the journaled waves of a finished
       checkpointed sweep are damaged the same way; the resume must
       re-evaluate exactly the damaged waves, replay the rest, and
       render the reference bytes.}
    {- {b Intent corruption}: a journal of write-ahead intents is
       damaged the same way; every damaged intent must be quarantined
       and only the undamaged ones, verbatim, left pending for re-run.}}

    All child pids are appended to [<scratch>/pids] so [scripts/check.sh]
    can reap orphans if the gate itself is killed. *)

(* --- seeded randomness (no global [Random] state) ------------------------- *)

(* splitmix64: the kill points, delays and corruption offsets must be
   reproducible from the gate seed alone. *)
let splitmix st =
  let z = Int64.add !st 0x9E3779B97F4A7C15L in
  st := z;
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below st bound =
  if bound <= 0 then invalid_arg "Chaos_check.rand_below";
  Int64.to_int
    (Int64.rem (Int64.shift_right_logical (splitmix st) 1) (Int64.of_int bound))

(* --- pids, process plumbing ------------------------------------------------ *)

let note_pid ~scratch pid =
  let oc =
    open_out_gen
      [ Open_append; Open_creat ]
      0o644
      (Filename.concat scratch "pids")
  in
  output_string oc (string_of_int pid ^ "\n");
  close_out oc

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let count_suffix dir suffix =
  match Sys.readdir dir with
  | arr ->
      Array.fold_left
        (fun n name -> if Filename.check_suffix name suffix then n + 1 else n)
        0 arr
  | exception Sys_error _ -> 0

let poll ~deadline_s f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > deadline_s then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* --- leg 1: sweep kill/resume --------------------------------------------- *)

(* Small but multi-wave: bisect evaluates one midpoint per wave under
   every seed, so f in [2, 12] gives ~4 sequential 2-candidate waves —
   room to kill between a journaled wave and an unfinished one. *)
let f_min = 2
let f_max = 12
let target_db = 40.0
let seeds = [ 0; 1 ]

(* Arm the process to SIGKILL itself when evaluation [kill_after]
   (1-based, counted across waves and domains) starts.  [set_seed] is
   the one per-candidate call both the interpreter and the compiled
   evaluation paths make, so the counter sees every evaluation. *)
let killing_workload ~kill_after (w : Sweep.Workload.t) =
  let fired = Atomic.make 0 in
  {
    w with
    Sweep.Workload.make_instance =
      (fun () ->
        let inst = w.Sweep.Workload.make_instance () in
        {
          inst with
          Sweep.Workload.set_seed =
            (fun s ->
              if Atomic.fetch_and_add fired 1 + 1 >= kill_after then begin
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                (* SIGKILL is not synchronous; make sure no further
                   evaluation sneaks in before delivery *)
                Unix.sleepf 60.0
              end;
              inst.Sweep.Workload.set_seed s);
        });
  }

let leg_key =
  Sweep.Checkpoint.sweep_key ~workload:"fir-128" ~strategy:"bisect"
    ~context:(Serve.Codec.context ())
    [
      ("f_min", string_of_int f_min);
      ("f_max", string_of_int f_max);
      ("seeds", string_of_int (List.length seeds));
      ("target_db", Printf.sprintf "%h" target_db);
    ]

(* One checkpointed bisect sweep over [dir].  Returns the canonical
   JSON plus (waves already journaled at start, waves/candidates the
   run replayed). *)
let leg_sweep ?kill_after ~fresh ~dir ~jobs () =
  let workload = Sweep.Workload.fir ~n:128 () in
  let workload =
    match kill_after with
    | None -> workload
    | Some k -> killing_workload ~kill_after:k workload
  in
  let generator =
    Sweep.Generator.bisect ~specs:workload.Sweep.Workload.specs ~f_min ~f_max
      ~target_db ~seeds
  in
  let cache = Serve.Cache.create ~dir:(Filename.concat dir "cache") () in
  let checkpoint =
    Sweep.Checkpoint.create ~resume:(not fresh)
      ~dir:(Filename.concat dir "ckpt") ~key:leg_key ()
  in
  let journaled0 = Sweep.Checkpoint.waves checkpoint in
  let report =
    Sweep.Pool.run ~jobs
      ~cache:(Serve.Codec.eval_cache cache)
      ~checkpoint ~workload ~generator ()
  in
  (Sweep.Report.to_json report, journaled0, Sweep.Checkpoint.replayed checkpoint)

let fork_killed_sweep ~scratch ~dir ~jobs ~kill_after =
  match Unix.fork () with
  | 0 ->
      (* forked child: run until the armed kill fires.  [_exit], never
         [exit] — the parent's buffers and at_exit must not run here. *)
      (try ignore (leg_sweep ~kill_after ~fresh:true ~dir ~jobs ())
       with _ -> Unix._exit 4);
      Unix._exit 3 (* the kill never fired; the leg will read this as failure *)
  | pid ->
      note_pid ~scratch pid;
      wait_pid pid = Unix.WSIGNALED Sys.sigkill

(* --- leg 2: daemon kill/recovery ------------------------------------------ *)

(* The daemon job uses the interpreter-only sync workload with enough
   stimulus seeds per wave (~0.5 s of evaluation) that the SIGKILL
   reliably lands mid-job, with the write-ahead intent still on disk —
   a short job could finish (and [mark_done] its intent) inside the
   seeded pause before the kill. *)
let daemon_seeds = 64

let daemon_params jobs =
  {
    Serve.Protocol.workload = "sync";
    strategy = "bisect";
    f_min;
    f_max;
    seeds = daemon_seeds;
    jobs;
    budget = None;
    target_db;
    timeout_s = Some 300.0;
  }

let daemon_reference () =
  let workload = Sweep.Workload.sync () in
  let generator =
    Sweep.Generator.bisect ~specs:workload.Sweep.Workload.specs ~f_min ~f_max
      ~target_db
      ~seeds:(List.init daemon_seeds Fun.id)
  in
  Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ~workload ~generator ())

(* Connect without [Client] so nothing ever reads a response: the
   daemon is about to be killed mid-job and would never send one. *)
let raw_connect ~attempts socket =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n < attempts ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        go (n + 1)
    | exception exn ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise exn
  in
  go 1

let daemon_leg ~scratch st =
  let reference = daemon_reference () in
  let fork_daemon ~cache_dir ~journal_dir ~socket () =
    match Unix.fork () with
    | 0 ->
        (try
           Serve.Daemon.run ~cache_dir ~journal_dir ~max_conns:8 ~socket ()
         with _ -> Unix._exit 4);
        Unix._exit 0
    | pid ->
        note_pid ~scratch pid;
        pid
  in
  (* generation 1: admit a job, kill the daemon mid-flight.  The kill
     races against the job completing and [mark_done]-ing its intent;
     the job is sized to make that overwhelmingly unlikely, but under
     pathological scheduling it can still lose — retry on fresh
     directories (a warm cache would only shrink the next job). *)
  let rec gen1 attempt =
    let ddir = Filename.concat scratch (Printf.sprintf "daemon-%d" attempt) in
    (try Unix.mkdir ddir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let socket = Filename.concat ddir "chaos.sock" in
    let journal_dir = Filename.concat ddir "journal" in
    let cache_dir = Filename.concat ddir "dcache" in
    let pid1 = fork_daemon ~cache_dir ~journal_dir ~socket () in
    let line =
      Serve.Protocol.request_to_line
        (Serve.Protocol.Sweep { id = "chaos"; params = daemon_params 2 })
      ^ "\n"
    in
    let fd = raw_connect ~attempts:250 socket in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let intent_seen =
      poll ~deadline_s:30.0 (fun () -> count_suffix journal_dir ".intent" > 0)
    in
    (* a seeded pause varies where inside the job the kill lands *)
    Unix.sleepf (0.002 +. (0.003 *. float_of_int (rand_below st 16)));
    Unix.kill pid1 Sys.sigkill;
    let killed = wait_pid pid1 = Unix.WSIGNALED Sys.sigkill in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let pending_before_restart = count_suffix journal_dir ".intent" in
    if intent_seen && killed && pending_before_restart >= 1 then
      (socket, journal_dir, cache_dir, intent_seen, killed,
       pending_before_restart)
    else if attempt < 3 then gen1 (attempt + 1)
    else
      (socket, journal_dir, cache_dir, intent_seen, killed,
       pending_before_restart)
  in
  let socket, journal_dir, cache_dir, intent_seen, killed,
      pending_before_restart =
    gen1 1
  in
  (* generation 2: same directories; recovery must settle every intent *)
  let pid2 = fork_daemon ~cache_dir ~journal_dir ~socket () in
  let drained =
    poll ~deadline_s:240.0 (fun () -> count_suffix journal_dir ".intent" = 0)
  in
  let pending_after =
    if drained then 0 else count_suffix journal_dir ".intent"
  in
  let quarantined = count_suffix journal_dir ".quarantined" in
  (* the recovered job's result is observable: a fresh identical submit
     replays its checkpoint and must return the reference bytes *)
  let recovered_identical =
    match Serve.Client.connect_retry ~attempts:100 socket with
    | exception _ -> false
    | c ->
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match
              Serve.Client.request c
                (Serve.Protocol.Sweep { id = "v"; params = daemon_params 1 })
            with
            | Serve.Protocol.Report { id = "v"; report; _ } ->
                String.equal report reference
            | _ -> false
            | exception _ -> false)
  in
  Unix.kill pid2 Sys.sigterm;
  let drain_exit_ok = wait_pid pid2 = Unix.WEXITED 0 in
  let socket_removed = not (Sys.file_exists socket) in
  [
    {
      Check.name = "daemon/intent-journaled";
      ok = intent_seen && killed && pending_before_restart >= 1;
      detail =
        Printf.sprintf
          "intent on disk before the kill: %b, SIGKILLed: %b, %d intent(s) \
           left pending"
          intent_seen killed pending_before_restart;
    };
    {
      Check.name = "daemon/recovery-settled";
      ok = pending_after = 0 && quarantined = 0;
      detail =
        Printf.sprintf "%d pending, %d quarantined after restart" pending_after
          quarantined;
    };
    {
      Check.name = "daemon/recovered-identical";
      ok = recovered_identical;
      detail =
        (if recovered_identical then "resubmitted report byte-identical"
         else "resubmitted report differs or never arrived");
    };
    {
      Check.name = "daemon/sigterm-drain";
      ok = drain_exit_ok && socket_removed;
      detail =
        Printf.sprintf "exited with status 0: %b, socket removed: %b"
          drain_exit_ok socket_removed;
    };
  ]

(* --- seeded corruption (legs 3-5) ------------------------------------------ *)

(* [k] distinct indices below [n], ascending. *)
let seeded_subset st ~k n =
  let rec pick acc =
    if List.length acc = k then List.sort compare acc
    else
      let i = rand_below st n in
      if List.mem i acc then pick acc else pick (i :: acc)
  in
  pick []

(* Truncate the file (possibly to zero bytes); flip one byte at a
   seeded offset (xor with a nonzero value always changes it); or
   replace one seeded decimal digit of the record body with another —
   a same-length edit that keeps a number literal valid, so only the
   record's CRC can tell. *)
let damage st kind path =
  let raw = Durable.read_file path in
  let damaged =
    match kind with
    | `Truncate -> String.sub raw 0 (rand_below st (String.length raw))
    | `Flip ->
        let b = Bytes.of_string raw in
        let off = rand_below st (Bytes.length b) in
        let x = 1 + rand_below st 255 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor x));
        Bytes.to_string b
    | `Digit ->
        let body =
          match String.index_opt raw '\n' with Some i -> i + 1 | None -> 0
        in
        let digits =
          List.filter
            (fun i -> i >= body && raw.[i] >= '0' && raw.[i] <= '9')
            (List.init (String.length raw) Fun.id)
        in
        let off = List.nth digits (rand_below st (List.length digits)) in
        let d = (Char.code raw.[off] - 48 + 1 + rand_below st 9) mod 10 in
        String.mapi (fun i c -> if i = off then Char.chr (48 + d) else c) raw
  in
  let oc = open_out_bin path in
  output_string oc damaged;
  close_out oc

(* Damage every file in [paths], cycling through the kinds of damage. *)
let damage_all st paths =
  List.iteri
    (fun j -> damage st (List.nth [ `Digit; `Flip; `Truncate ] (j mod 3)))
    paths

(* --- leg 3: seeded cache corruption + scrub -------------------------------- *)

let scrub_entries = 24
let scrub_corrupted = 8

let scrub_leg ~scratch st =
  let dir = Filename.concat scratch "scrub" in
  let cache = Serve.Cache.create ~dir () in
  let key i = Digest.to_hex (Digest.string (Printf.sprintf "chaos-scrub-%d" i)) in
  (* newline-free printable payloads of varied length: a flipped header
     newline must not find a second one inside the payload *)
  let payload i =
    Printf.sprintf "metrics-%d-%s" i
      (String.init
         (8 + (i * 7 mod 64))
         (fun j -> Char.chr (33 + ((i * 13) + (j * 7)) mod 94)))
  in
  for i = 0 to scrub_entries - 1 do
    Serve.Cache.insert cache (key i) (payload i)
  done;
  (* damage AFTER the cache loaded: scrub's job is decay behind a live
     cache's back, not load-time validation *)
  let victims = seeded_subset st ~k:scrub_corrupted scrub_entries in
  List.iter
    (fun i ->
      damage st
        (if i mod 2 = 0 then `Truncate else `Flip)
        (Filename.concat dir (key i ^ ".entry")))
    victims;
  let s = Serve.Cache.scrub cache in
  let undetected =
    List.fold_left
      (fun n i ->
        match Serve.Cache.lookup cache (key i) with
        | Some _ -> n + 1 (* damaged data served — the one forbidden outcome *)
        | None -> n)
      0 victims
  in
  let intact =
    List.for_all
      (fun i ->
        List.mem i victims
        ||
        match Serve.Cache.lookup cache (key i) with
        | Some p -> String.equal p (payload i)
        | None -> false)
      (List.init scrub_entries Fun.id)
  in
  let detected = s.Serve.Cache.healed in
  {
    Check.name = "cache-scrub";
    ok = detected = scrub_corrupted && undetected = 0 && intact;
    detail =
      Printf.sprintf
        "%d/%d corrupted entries of %d detected, %d served corrupt, clean \
         entries %s"
        detected scrub_corrupted scrub_entries undetected
        (if intact then "intact" else "damaged");
  }

(* --- leg 4: seeded wave corruption + resume --------------------------------- *)

let wave_leg ~scratch ~reference ~jobs st =
  let dir = Filename.concat scratch "waves" in
  ignore (leg_sweep ~fresh:true ~dir ~jobs:1 ());
  let files =
    Durable.scan ~prefix:"wave-" ~suffix:".wv"
      (Filename.concat (Filename.concat dir "ckpt") leg_key)
  in
  let n = List.length files in
  let victims = seeded_subset st ~k:(min n 3) n in
  damage_all st (List.map (fun i -> snd (List.nth files i)) victims);
  (* drop the cache, so a damaged wave is really re-evaluated *)
  Durable.remove_tree (Filename.concat dir "cache");
  let json, _, (replayed, _) = leg_sweep ~fresh:false ~dir ~jobs () in
  let damaged = List.length victims in
  let identical = String.equal json reference in
  {
    Check.name = "wave-corruption";
    ok = damaged >= 1 && replayed = n - damaged && identical;
    detail =
      Printf.sprintf "%d/%d waves damaged, %d replayed, resumed report %s"
        damaged n replayed
        (if identical then "byte-identical" else "different");
  }

(* --- leg 5: seeded intent corruption + recovery scan ----------------------- *)

let intent_count = 6

let intent_leg ~scratch st =
  let dir = Filename.concat scratch "intents" in
  let j = Serve.Journal.create ~dir in
  let entries =
    List.init intent_count (fun i ->
        let line =
          Serve.Protocol.request_to_line
            (Serve.Protocol.Sweep
               { id = string_of_int i; params = daemon_params (1 + i) })
        in
        let e =
          { Serve.Journal.name = Serve.Journal.fresh_name j; attempts = 1; line }
        in
        Serve.Journal.record_intent j e;
        e)
  in
  let victims = seeded_subset st ~k:(intent_count / 2) intent_count in
  let damaged, intact =
    List.partition snd (List.mapi (fun i e -> (e, List.mem i victims)) entries)
  in
  let damaged = List.map fst damaged and intact = List.map fst intact in
  damage_all st
    (List.map
       (fun (e : Serve.Journal.entry) ->
         Filename.concat dir ("job-" ^ e.name ^ ".intent"))
       damaged);
  (* the daemon's recovery pass re-runs exactly [pending] *)
  let pending = Serve.Journal.pending j in
  let quarantined = Serve.Journal.quarantined j in
  let quarantined_damaged =
    List.length
      (List.filter
         (fun (e : Serve.Journal.entry) -> List.mem e.name quarantined)
         damaged)
  in
  let n_damaged = List.length damaged in
  {
    Check.name = "intent-corruption";
    ok =
      n_damaged >= 1 && quarantined_damaged = n_damaged && pending = intact;
    detail =
      Printf.sprintf
        "%d/%d intents damaged, %d quarantined, undamaged pending %s"
        n_damaged intent_count quarantined_damaged
        (if pending = intact then "verbatim" else "wrong");
  }

(* --- the gate -------------------------------------------------------------- *)

let run ~jobs ~seed =
  let st = ref (Int64.of_int ((seed * 2_147_483_629) + 0x5EED1)) in
  (* The [fxchaos] prefix is load-bearing: check.sh's exit trap sweeps
     [$TMPDIR/fxchaos-*] (and kills pids listed inside) if the gate
     dies. *)
  Durable.with_temp_dir ~prefix:"fxchaos" @@ fun scratch ->
  (* uninterrupted reference: jobs=1, no checkpoint, no cache — and no
     domains spawned, so every fork below happens from a process that
     has never been multi-threaded *)
  let reference, _, _ =
    leg_sweep ~fresh:true
      ~dir:(Filename.concat scratch "ref")
      ~jobs:1 ()
  in
  (* fork-and-kill every child first (sweep legs, then the daemon
     generations); only after the last fork do the resumes spawn
     worker domains in this process *)
  let plans = [ (1, 1); (1, jobs); (jobs, 1); (jobs, jobs) ] in
  let killed_legs =
    List.mapi
      (fun i (child_jobs, resume_jobs) ->
        let dir = Filename.concat scratch (Printf.sprintf "leg%d" i) in
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (* late enough that at least one 2-candidate wave is journaled,
           early enough that a ~4-wave bisect is still running *)
        let kill_after = 3 + rand_below st 4 in
        let killed =
          fork_killed_sweep ~scratch ~dir ~jobs:child_jobs ~kill_after
        in
        (child_jobs, resume_jobs, dir, kill_after, killed))
      plans
  in
  let daemon = daemon_leg ~scratch st in
  let sweeps =
    List.map
      (fun (child_jobs, resume_jobs, dir, kill_after, killed) ->
        (* the killed run's cache must hold only whole entries: count
           load-time rejects plus a full scrub over the survivors *)
        let torn =
          let c = Serve.Cache.create ~dir:(Filename.concat dir "cache") () in
          let loaded = (Serve.Cache.stats c).Serve.Cache.corrupt in
          loaded + (Serve.Cache.scrub c).Serve.Cache.healed
        in
        let json, journaled, (replayed, _) =
          leg_sweep ~fresh:false ~dir ~jobs:resume_jobs ()
        in
        let identical = String.equal json reference in
        {
          Check.name =
            Printf.sprintf "sweep-kill/jobs-%d-to-%d" child_jobs resume_jobs;
          ok =
            killed && journaled >= 1 && replayed >= 1 && torn = 0 && identical;
          detail =
            Printf.sprintf
              "killed at eval %d%s: %d wave(s) journaled, %d replayed, %d \
               torn cache entr%s, resumed report %s"
              kill_after
              (if killed then "" else " (no SIGKILL seen)")
              journaled replayed torn
              (if torn = 1 then "y" else "ies")
              (if identical then "byte-identical" else "different");
        })
      killed_legs
  in
  let scrub = scrub_leg ~scratch st in
  let waves = wave_leg ~scratch ~reference ~jobs st in
  let intents = intent_leg ~scratch st in
  sweeps @ daemon @ [ scrub; waves; intents ]
