(** Seeded, deterministic fault schedules.

    A plan is a pure description: which assignment-site fault classes
    to inject, at which rates, into which signals.  Whether a
    particular fault fires is a {e pure hash} of [(plan seed, stream
    tag, key, index)] — never the state of an RNG that other code
    advances — so the schedule is independent of evaluation order,
    worker count, and scheduling.  The same [(seed, plan)] replays the
    identical fault set anywhere, which is what lets the oracle's fault
    gate compare runs byte-for-byte and a sweep quarantine the {e same}
    candidates at any [--jobs].

    The hash is the SplitMix64 finalizer over an FNV-1a digest of the
    stream/key strings — the same mixer as {!Stats.Rng}, reused as a
    stateless function. *)

(** What the fault layer does to the overflow policy of an armed
    environment (see {!Inject.arm_env}). *)
type policy_override =
  | Keep  (** leave the design's own policy in place *)
  | Force_raise  (** {!Sim.Env.Raise}: faults crash the run *)
  | Force_collect
      (** {!Sim.Env.Collect}: faults are recorded and the run
          continues (graceful degradation) *)

type t = {
  seed : int;  (** schedule seed — everything replays from it *)
  bitflip_rate : float;  (** post-quantization SEU per assignment *)
  force_overflow_rate : float;  (** forced overflow event per assignment *)
  targets : string list;  (** signal names to inject into; [] = all *)
  on_overflow : policy_override;
}

let make ?(seed = 0) ?(bitflip_rate = 0.0) ?(force_overflow_rate = 0.0)
    ?(targets = []) ?(on_overflow = Keep) () =
  let check_rate what r =
    if Float.is_nan r || r < 0.0 || r > 1.0 then
      invalid_arg (Printf.sprintf "Fault.Plan.make: %s not in [0, 1]" what)
  in
  check_rate "bitflip_rate" bitflip_rate;
  check_rate "force_overflow_rate" force_overflow_rate;
  { seed; bitflip_rate; force_overflow_rate; targets; on_overflow }

(** A plan that injects nothing (rates 0, [Keep]). *)
let none = make ()

let is_target t name = t.targets = [] || List.mem name t.targets

(* --- the pure-hash schedule -------------------------------------------- *)

let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001B3L)
    s;
  !h

(* SplitMix64 finalizer (same mixer as Stats.Rng). *)
let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash64 t ~stream ~key ~index =
  let z = mix (Int64.add (Int64.of_int t.seed) (fnv1a stream)) in
  let z = mix (Int64.add z (fnv1a key)) in
  mix (Int64.add z (Int64.of_int index))

(** [draw t ~stream ~key ~index] — uniform float in [[0, 1)], a pure
    function of the plan seed and the three coordinates. *)
let draw t ~stream ~key ~index =
  Int64.to_float (Int64.shift_right_logical (hash64 t ~stream ~key ~index) 11)
  *. (1.0 /. 9007199254740992.0)

(** [fires t ~stream ~key ~index ~rate] — does the fault of stream
    [stream] fire at this coordinate?  Pure; scheduling-independent. *)
let fires t ~stream ~key ~index ~rate =
  rate > 0.0 && draw t ~stream ~key ~index < rate

(* Stream tags: one per fault class, so the classes are independent
   coin flips even at the same (key, index). *)
let stream_bitflip = "bitflip"
let stream_force_overflow = "force-overflow"

(** The assignment-site fault classes firing for signal [key] at cycle
    [index] under tag [tag] (the per-candidate discriminator; "" for a
    standalone run) — short stable kind strings, the vocabulary of
    [on_fault] sink events. *)
let assign_faults t ~tag ~signal ~time =
  if not (is_target t signal) then []
  else begin
    let key = signal ^ "\x00" ^ tag in
    let acc = ref [] in
    if fires t ~stream:stream_force_overflow ~key ~index:time
         ~rate:t.force_overflow_rate
    then acc := "force-overflow" :: !acc;
    if fires t ~stream:stream_bitflip ~key ~index:time ~rate:t.bitflip_rate
    then acc := "bitflip" :: !acc;
    !acc
  end

(** Render the assignment-site schedule over an explicit grid —
    [(time, signal, kind)] in (time, signal, kind) order.  This is the
    replayable artifact the fault gate compares: it must be identical
    however many times and wherever it is computed. *)
let schedule t ?(tag = "") ~signals ~cycles () =
  List.concat_map
    (fun time ->
      List.concat_map
        (fun signal ->
          List.rev_map
            (fun kind -> (time, signal, kind))
            (assign_faults t ~tag ~signal ~time))
        signals)
    (List.init cycles Fun.id)

(* --- rendering --------------------------------------------------------- *)

let policy_override_to_string = function
  | Keep -> "keep"
  | Force_raise -> "raise"
  | Force_collect -> "collect"

let policy_override_of_string = function
  | "keep" -> Ok Keep
  | "raise" -> Ok Force_raise
  | "collect" -> Ok Force_collect
  | s -> Error (Printf.sprintf "unknown on_overflow %S" s)

(** Canonical flat JSON (fixed key order, {!Trace.Json} float
    formatting) — byte-stable, so plans can be compared as strings and
    round-trip through {!of_json}. *)
let to_json t =
  Printf.sprintf
    "{\"seed\": %d, \"bitflip_rate\": %s, \"force_overflow_rate\": %s, \
     \"targets\": [%s], \"on_overflow\": %s}"
    t.seed
    (Trace.Json.float_lit t.bitflip_rate)
    (Trace.Json.float_lit t.force_overflow_rate)
    (String.concat ", " (List.map Trace.Json.string_lit t.targets))
    (Trace.Json.string_lit (policy_override_to_string t.on_overflow))

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

(** Parse a plan from its flat JSON object ({!Trace.Json.parse_object}).
    Unknown keys are an error (they would silently change the
    experiment); missing keys take the {!make} defaults.  Returns
    [Error msg] on malformed input. *)
let of_json s =
  let num what : Trace.Json.value -> float = function
    | Float f -> f
    | Int i -> float_of_int i
    | _ -> parse_error "%s: expected a number" what
  in
  let inum what : Trace.Json.value -> int = function
    | Int i -> i
    | Float f when Float.is_integer f -> int_of_float f
    | _ -> parse_error "%s: expected an integer" what
  in
  let field p (k, (v : Trace.Json.value)) =
    match k with
    | "seed" -> { p with seed = inum k v }
    | "bitflip_rate" -> { p with bitflip_rate = num k v }
    | "force_overflow_rate" -> { p with force_overflow_rate = num k v }
    | "targets" -> (
        match v with
        | Strings vs -> { p with targets = vs }
        | _ -> parse_error "targets: expected a string array")
    | "on_overflow" -> (
        match v with
        | String s -> (
            match policy_override_of_string s with
            | Ok o -> { p with on_overflow = o }
            | Error e -> parse_error "%s" e)
        | _ -> parse_error "on_overflow: expected a string")
    | k -> parse_error "unknown key %S" k
  in
  (* revalidate through make: rates from JSON must obey the same bounds
     as rates from code *)
  match
    let fields =
      match Trace.Json.parse_object s with
      | Ok fields -> fields
      | Error msg -> raise (Parse msg)
    in
    let q = List.fold_left field none fields in
    make ~seed:q.seed ~bitflip_rate:q.bitflip_rate
      ~force_overflow_rate:q.force_overflow_rate ~targets:q.targets
      ~on_overflow:q.on_overflow ()
  with
  | p -> Ok p
  | exception Parse msg -> Error ("Fault.Plan.of_json: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let pp ppf t =
  let rate name r =
    if r > 0.0 then Format.fprintf ppf "%s %g; " name r
  in
  Format.fprintf ppf "plan(seed %d; " t.seed;
  rate "bitflip" t.bitflip_rate;
  rate "force-overflow" t.force_overflow_rate;
  (match t.targets with
  | [] -> ()
  | ts -> Format.fprintf ppf "targets %s; " (String.concat "," ts));
  Format.fprintf ppf "overflow %s)"
    (policy_override_to_string t.on_overflow)
