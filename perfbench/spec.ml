(* The benchmark's metric catalogue: every metric a run can print,
   with its unit, and for per-layer metrics the workloads whose traced
   run measures the layer (the others report 0 for it).  BENCHMARK.json
   lists the same names; the self-test holds the two together. *)

(* Every workload the command runs; BENCHMARK.json gates the sweeps
   only (see README.md). *)
let workloads = [ "sweep-fir"; "sweep-sync"; "serve-mix"; "refine-verify" ]
let sweeps = [ "sweep-fir"; "sweep-sync" ]

(* the serve layers: measured by serve-mix, and by sweep-fir's traced
   run, which runs a short serve-mix inside it *)
let serve = [ "sweep-fir"; "serve-mix" ]

(* the flow and verify layers: measured by refine-verify, and by
   sweep-sync's traced run, which runs a short refine-verify inside it *)
let refine = [ "sweep-sync"; "refine-verify" ]
let all = workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("jobs_per_s", "1/s");
    ("job_p50_ms", "ms");
    ("job_tail_ms", "ms");
    ("candidates_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* (name, unit, workloads measuring it) *)
let per_layer =
  [
    ("generator.next_ms", "ms", sweeps);
    ("pool.busy_frac", "frac", sweeps);
    ("pool.wave_tail_ms", "ms", sweeps);
    ("pool.waves", "count", sweeps);
    ("eval.compiled_frac", "frac", sweeps);
    ("eval.fallbacks", "count", sweeps);
    ("extract.us_per_cand", "us", [ "sweep-fir"; "serve-mix" ]);
    ("extract.graph_nodes", "count", [ "sweep-fir"; "serve-mix" ]);
    ("key.us_per_cand", "us", serve);
    ("key.json_bytes", "bytes", serve);
    ("compile.us_per_cand", "us", [ "sweep-fir"; "serve-mix" ]);
    ("compile.instrs", "count", [ "sweep-fir"; "serve-mix" ]);
    ("exec.ns_per_lane_cycle", "ns", [ "sweep-fir"; "serve-mix" ]);
    ("exec.minor_words_per_cycle", "words", [ "sweep-fir"; "serve-mix" ]);
    ("interp.us_per_cand", "us", [ "sweep-sync"; "refine-verify" ]);
    ("interp.ns_per_sample", "ns", [ "sweep-sync"; "refine-verify" ]);
    ("interp.minor_words_per_sample", "words", [ "sweep-sync"; "refine-verify" ]);
    ("report.make_ms", "ms", [ "sweep-fir"; "sweep-sync"; "serve-mix" ]);
    ("report.json_ms", "ms", [ "sweep-fir"; "sweep-sync"; "serve-mix" ]);
    ("cache.lookup_us", "us", serve);
    ("cache.insert_us", "us", serve);
    ("cache.hit_rate", "frac", serve);
    ("cache.inserts", "count", serve);
    ("codec.encode_us", "us", serve);
    ("codec.decode_us", "us", serve);
    ("checkpoint.record_ms", "ms", serve);
    ("checkpoint.replayed_waves", "count", serve);
    ("journal.intent_ms", "ms", serve);
    ("daemon.overhead_ms_per_job", "ms", serve);
    ("daemon.busy_replies", "count", serve);
    ("daemon.replayed_job_frac", "frac", serve);
    ("daemon.cached_job_frac", "frac", serve);
    ("daemon.fresh_job_frac", "frac", serve);
    ("wire.ping_rtt_us", "us", serve);
    ("flow.refine_s", "s", refine);
    ("flow.sim_runs", "count", refine);
    ("flow.iterations", "count", refine);
    ("flow.sim_frac", "frac", refine);
    ("verify.verify_s", "s", refine);
    ("verify.decided", "count", refine);
    ("verify.states", "count", refine);
    ("verify.transitions", "count", refine);
    ("verify.transitions_per_s", "1/s", refine);
    ("verify.truncated", "count", refine);
    ("verify.confirm_ms", "ms", refine);
    ("gc.minor_words_per_cand", "words", all);
    ("gc.major_collections", "count", all);
    ("trace.overhead_frac", "frac", all);
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> Some u
  | None ->
      List.find_map
        (fun (n, u, _) -> if String.equal n name then Some u else None)
        per_layer

let valid_name name =
  String.length name > 0
  && String.length name <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
