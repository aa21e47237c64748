(** One-shot candidate evaluation — the inner step of every wordlength
    search, factored out of {!Flow} so sweep engines (and the
    literature baselines) can re-simulate a design under many type
    assignments without re-running the whole refinement loop.

    A "candidate" is a set of per-signal dtype assignments; evaluating
    it means: apply the types, reset the design, run one full stimulus
    set, and read the monitors back as a flat {!metrics} record.  The
    evaluation is deterministic: the same design state and the same
    assignment always yield the same metrics (the simulation RNG is
    rewound by the design's [reset]). *)

(** The monitor read-back of one evaluation.  All fields come from the
    design's own per-signal monitors after a single run. *)
type metrics = {
  sqnr_db : float option;
      (** {!Flow.sqnr_db} at the probe; [None] when the probe recorded
          no samples, [Some infinity] when it is noise-free *)
  total_bits : int;  (** Σ n over all signals with a declared dtype *)
  overflow_count : int;  (** Σ overflow events over all signals *)
  probe_err_max : float;
      (** max |ε_p| at the probe; [0.] without a probe *)
  probe_values : Stats.Running.t option;
      (** copy of the probe's value monitor (mergeable) *)
  probe_err : Stats.Err_stats.t option;
      (** copy of the probe's error monitor (mergeable) *)
  counters : Trace.Counters.t option;
      (** event counters over this evaluation's run (only when requested
          with [~counters:true]; mergeable) *)
}

(* --- the bit-exact metrics codec ------------------------------------------

   Every float travels as a [%h] hex literal ([float_of_string] reverses
   it exactly, nan and infinities included) and the probe monitors
   through {!Stats.Running.raw} / {!Stats.Err_stats.raw}, the exact
   accumulator fields — so a decoded record merges into report
   aggregates bit for bit like the freshly computed one.  The payload
   is a fixed sequence of labelled lines: [fxmetrics 1], then
   [sqnr]/[bits]/[ovf]/[errmax]/[pv]/[pe]. *)

let metrics_header = "fxmetrics 1"
let flit = Printf.sprintf "%h"

let floats_line = function
  | None -> "none"
  | Some a -> String.concat " " (Array.to_list (Array.map flit a))

let encode_metrics m =
  if m.counters <> None then
    invalid_arg
      "Refine.Eval.encode_metrics: counter-carrying metrics are not encodable";
  String.concat "\n"
    [
      metrics_header;
      (match m.sqnr_db with None -> "sqnr none" | Some v -> "sqnr " ^ flit v);
      Printf.sprintf "bits %d" m.total_bits;
      Printf.sprintf "ovf %d" m.overflow_count;
      "errmax " ^ flit m.probe_err_max;
      "pv " ^ floats_line (Option.map Stats.Running.raw m.probe_values);
      "pe " ^ floats_line (Option.map Stats.Err_stats.raw m.probe_err);
    ]

let ( let* ) = Option.bind

(* [parse] what follows the ["<label> "] prefix of [line]. *)
let field label parse line =
  let pl = String.length label + 1 in
  if String.length line > pl && String.equal (String.sub line 0 pl) (label ^ " ")
  then parse (String.sub line pl (String.length line - pl))
  else None

let float_opt s =
  if String.equal s "none" then Some None
  else Option.map Option.some (float_of_string_opt s)

(* [none], or space-separated floats rebuilt through [of_raw] (which
   rejects a wrong arity). *)
let monitor_opt of_raw s =
  if String.equal s "none" then Some None
  else
    let parts = String.split_on_char ' ' s in
    let floats = List.filter_map float_of_string_opt parts in
    if List.compare_lengths floats parts <> 0 then None
    else
      match of_raw (Array.of_list floats) with
      | r -> Some (Some r)
      | exception Invalid_argument _ -> None

let decode_metrics s =
  match String.split_on_char '\n' s with
  | [ header; sqnr; bits; ovf; errmax; pv; pe ]
    when String.equal header metrics_header ->
      let* sqnr_db = field "sqnr" float_opt sqnr in
      let* total_bits = field "bits" int_of_string_opt bits in
      let* overflow_count = field "ovf" int_of_string_opt ovf in
      let* probe_err_max = field "errmax" float_of_string_opt errmax in
      let* probe_values = field "pv" (monitor_opt Stats.Running.of_raw) pv in
      let* probe_err = field "pe" (monitor_opt Stats.Err_stats.of_raw) pe in
      Some
        {
          sqnr_db;
          total_bits;
          overflow_count;
          probe_err_max;
          probe_values;
          probe_err;
          counters = None;
        }
  | _ -> None

let total_bits env =
  List.fold_left
    (fun acc s ->
      match Sim.Signal.dtype s with
      | Some dt -> acc + Fixpt.Dtype.n dt
      | None -> acc)
    0 (Sim.Env.signals env)

let overflow_count env =
  List.fold_left
    (fun acc s -> acc + Sim.Signal.overflows s)
    0 (Sim.Env.signals env)

(** Apply per-signal dtype assignments.  Unlike {!Flow.apply_types}
    (which merges derived types into a designer's partial definition),
    a sweep candidate names exactly the signals it retypes, so an
    unknown signal name is a bug in the candidate generator and raises
    [Invalid_argument]. *)
let apply_assigns env assigns =
  List.iter
    (fun (name, dt) -> Sim.Signal.set_dtype (Sim.Env.find_exn env name) dt)
    assigns

let evaluate ?(assigns = []) ?probe ?on_run ?(counters = false)
    (design : Flow.design) =
  apply_assigns design.Flow.env assigns;
  (* a requested counter set observes exactly this evaluation — reset
     hooks (initialization assigns) included, like the env monitors; it
     is detached before the monitors are read back, and any sink the
     caller attached is restored *)
  let prev_sink =
    if counters then Some (Sim.Env.sink design.Flow.env) else None
  in
  let ctr =
    if counters then begin
      let c = Trace.Counters.create () in
      Sim.Env.set_sink design.Flow.env (Trace.Counters.sink c);
      Some c
    end
    else None
  in
  design.Flow.reset ();
  design.Flow.run ();
  (match prev_sink with
  | Some s -> Sim.Env.set_sink design.Flow.env s
  | None -> ());
  (match on_run with Some f -> f () | None -> ());
  let env = design.Flow.env in
  let probe_entry = Option.map (Sim.Env.find_exn env) probe in
  {
    sqnr_db = Option.bind probe_entry Flow.sqnr_db;
    total_bits = total_bits env;
    overflow_count = overflow_count env;
    probe_err_max =
      (match probe_entry with
      | Some e ->
          Stats.Running.max_abs
            (Stats.Err_stats.produced (Sim.Signal.err_stats e))
      | None -> 0.0);
    probe_values =
      Option.map
        (fun e -> Stats.Running.copy (Sim.Signal.range_stats e))
        probe_entry;
    probe_err =
      Option.map
        (fun e -> Stats.Err_stats.copy (Sim.Signal.err_stats e))
        probe_entry;
    counters = ctr;
  }

(* --- compiled evaluation ----------------------------------------------- *)

type compiled_eval = {
  extract : unit -> Sfg.Graph.t;
  cycles : int;
  stimulus : seed:int -> string -> int -> float;
}

(* --- the evaluation cache hook ----------------------------------------- *)

type cache = {
  context : string;
  lookup : string -> metrics option;
  insert : string -> metrics -> unit;
}

(* The key source is itself canonical JSON over the canonical-JSON
   pieces: the extracted graph (quantizers fused, so the candidate's
   types are structurally part of it), the explicit assignment list
   (guards against two candidates whose graphs coincide but whose env
   assignment sets differ, e.g. signals outside the extracted cone),
   the probe, the stimulus seed and run length, and the caller-pinned
   context (evaluator version, fault plan).  MD5 over that string is
   the content address. *)
let cache_key ~design ~assigns ~probe ~seed ~cycles ~context =
  let b = Buffer.create (String.length design + 256) in
  Buffer.add_string b "{\"design\": ";
  Buffer.add_string b design;
  Buffer.add_string b ", \"assigns\": [";
  List.iteri
    (fun i (name, dt) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"signal\": %s, \"dtype\": %s}"
           (Trace.Json.string_lit name)
           (Trace.Json.string_lit (Fixpt.Dtype.to_string dt))))
    assigns;
  Buffer.add_string b
    (Printf.sprintf "], \"probe\": %s, \"seed\": %d, \"cycles\": %d, \
                     \"context\": %s}"
       (match probe with Some p -> Trace.Json.string_lit p | None -> "null")
       seed cycles (Trace.Json.string_lit context));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The condition, besides [Compile.Cannot_compile], [Invalid_argument]
   and [Not_found], that sends an evaluation back to the clock-true
   interpreter: the probe is not where the recorded pipeline puts it. *)
exception Fallback of string

let () =
  Printexc.register_printer (function
    | Fallback m -> Some ("Refine.Eval.Fallback: " ^ m)
    | _ -> None)

let falls_back = function
  | Compile.Cannot_compile _ | Invalid_argument _ | Not_found | Fallback _ ->
      true
  | _ -> false

(* Locate the probe's monitor points in the extracted graph.  The
   recorded assignment pipeline is [expr → name_q (Quantize, if typed)
   → name_sat (Saturate, if annotated) → name (Alias/Delay)]; the env
   monitors observe the {e incoming} expression value ([pre], the range
   monitor and the consumed error) and the {e post-cast} value ([post],
   the produced error) — the saturation annotation never clamps at
   assignment time, so it is peeled. *)
let probe_monitors g prog probe =
  match Compile.find prog probe with
  | None -> None
  | Some pid -> (
      let nd = Sfg.Graph.node g pid in
      match (nd.Sfg.Node.op, nd.Sfg.Node.inputs) with
      | (Sfg.Node.Alias | Sfg.Node.Delay _), [ src ] -> (
          let src =
            let s = Sfg.Graph.node g src in
            match (s.Sfg.Node.op, s.Sfg.Node.inputs) with
            | Sfg.Node.Saturate _, [ inner ]
              when String.equal s.Sfg.Node.name (probe ^ "_sat") ->
                inner
            | _ -> src
          in
          let post = Sfg.Graph.node g src in
          match (post.Sfg.Node.op, post.Sfg.Node.inputs) with
          | Sfg.Node.Quantize _, [ pre ]
            when String.equal post.Sfg.Node.name (probe ^ "_q") ->
              Some (pre, src)
          | _ -> Some (src, src))
      | _ -> None)

type prepared = {
  graph : Sfg.Graph.t;
  quants : Fixpt.Quantize.compiled array;
  seed : int;
  bits : int;
  key : string option;
}

(* Re-pointing [p] at [first]'s graph lets [p]'s own graph die young: a
   chunk of prepared candidates then holds one graph, not one per lane. *)
let join ~first p =
  if p.graph == first.graph || Compile.same_shape first.graph p.graph then
    Some { p with graph = first.graph }
  else None

let prepare ?(assigns = []) ?probe ?cache ~seed (ce : compiled_eval)
    (design : Flow.design) =
  apply_assigns design.Flow.env assigns;
  design.Flow.reset ();
  let g = ce.extract () in
  (* cache consult: the key needs only the extracted graph (cheap, one
     recorded cycle), not the compile or the run — those are what a
     hit skips.  A cache that raises degrades to a miss; it must never
     fail an evaluation. *)
  let key =
    Option.map
      (fun c ->
        cache_key
          ~design:(Sfg.Graph.canonical_json g)
          ~assigns ~probe ~seed ~cycles:ce.cycles ~context:c.context)
      cache
  in
  let hit =
    match (cache, key) with
    | Some c, Some k -> ( try c.lookup k with _ -> None)
    | _ -> None
  in
  match hit with
  | Some m -> `Hit m
  | None ->
      `Miss
        {
          graph = g;
          quants = Compile.quantizers g;
          seed;
          bits = total_bits design.Flow.env;
          key;
        }

let evaluate_lanes ?probe ?cache (ce : compiled_eval) (ps : prepared array) =
  let n = Array.length ps in
  if n = 0 then [||]
  else begin
    let g = ps.(0).graph in
    if Array.exists (fun p -> p.graph != g) ps then
      invalid_arg "Refine.Eval.evaluate_lanes: lanes not joined to one graph";
    let prog =
      Compile.compile_lanes ~dual:true g (Array.map (fun p -> p.quants) ps)
    in
    let pm =
      match probe with
      | None -> None
      | Some p -> (
          match probe_monitors g prog p with
          | Some pm -> Some pm
          | None ->
              raise (Fallback ("probe " ^ p ^ " not in the extracted graph")))
    in
    let vals = Array.init n (fun _ -> Stats.Running.create ()) in
    let errs = Array.init n (fun _ -> Stats.Err_stats.create ()) in
    let stims = Array.map (fun p -> ce.stimulus ~seed:p.seed) ps in
    let inputs name =
      let feeds = Array.map (fun stim -> stim name) stims in
      fun ~lane step -> feeds.(lane) step
    in
    (* per-step monitor fold, every lane: the fixed value entering the
       probe's cast, its float reference, and the cast's output *)
    let on_step =
      Option.map
        (fun (pre, post) ->
          let fxpre = Array.make n 0.0
          and flpre = Array.make n 0.0
          and fxpost = Array.make n 0.0 in
          fun _step ->
            Compile.read_lanes prog ~id:pre fxpre;
            Compile.read_lanes_ref prog ~id:pre flpre;
            Compile.read_lanes prog ~id:post fxpost;
            for l = 0 to n - 1 do
              let x = fxpre.(l) and r = flpre.(l) in
              Stats.Running.add vals.(l) x;
              Stats.Err_stats.record errs.(l) ~consumed:(r -. x)
                ~produced:(r -. fxpost.(l))
            done)
        pm
    in
    Compile.run ?on_step prog ~steps:ce.cycles ~inputs;
    Array.mapi
      (fun l p ->
        let produced = Stats.Err_stats.produced errs.(l) in
        let m =
          {
            sqnr_db =
              (match pm with
              | None -> None
              | Some _ -> Flow.sqnr_db_of ~values:vals.(l) ~errors:produced);
            total_bits = p.bits;
            overflow_count = Compile.lane_overflow_count prog ~lane:l;
            probe_err_max =
              (match pm with
              | None -> 0.0
              | Some _ -> Stats.Running.max_abs produced);
            probe_values =
              (match pm with None -> None | Some _ -> Some vals.(l));
            probe_err =
              (match pm with None -> None | Some _ -> Some errs.(l));
            counters = None;
          }
        in
        (match (cache, p.key) with
        | Some c, Some k -> ( try c.insert k m with _ -> ())
        | _ -> ());
        m)
      ps
  end

let evaluate_compiled ?(assigns = []) ?probe ?cache ~seed (ce : compiled_eval)
    (design : Flow.design) =
  try
    match prepare ~assigns ?probe ?cache ~seed ce design with
    | `Hit m -> m
    | `Miss p -> (evaluate_lanes ?probe ?cache ce [| p |]).(0)
  with e when falls_back e ->
    if Trace.Spans.enabled () then begin
      let t = Trace.Spans.now () in
      Trace.Spans.record ~cat:"eval" ~name:"fallback"
        ~tid:(Domain.self () :> int)
        ~args:[ ("reason", Trace.Json.string_lit (Printexc.to_string e)) ]
        ~t0:t ~t1:t ()
    end;
    (* interpreter fallback is never cached: its key would need the
       un-extractable design itself *)
    evaluate ~assigns ?probe design
