(** Crash-safe wave journal for sweeps — see the .mli for the contract.

    One file per completed wave, [wave-%06d.wv] under [dir/key/], each
    a CRC-framed {!Durable} record (magic [fxwave2]) whose payload
    stores the wave's candidates and their outcomes bit-exactly:

    {v
    <wave> <n-candidates>
    c <id> <stim-seed> <uniform-f|-> <n-assigns>
    a <n> <f> <signal>            (n-assigns lines)
    ok <k>
    <k lines: the Refine.Eval.encode_metrics record>
        -- or, for a quarantined candidate --
    err <attempts> "<escaped message>"
    v}

    The metrics lines are the same bit-exact record the evaluation
    cache stores.  Decoding is strict: a frame or parse failure
    invalidates the whole wave file, which resume treats as "not
    journaled" and simply re-evaluates — corruption can cost time,
    never correctness. *)

type outcome = (Candidate.t * (Refine.Eval.metrics, string * int) result) list

type t = {
  dir : string;  (** the keyed subdirectory holding the wave files *)
  journaled : (int, outcome) Hashtbl.t;
  mutable replayed_waves : int;
  mutable replayed_candidates : int;
}

let magic = "fxwave2"
let dir t = t.dir
let waves t = Hashtbl.length t.journaled
let replayed t = (t.replayed_waves, t.replayed_candidates)

let sweep_key ~workload ~strategy ~context params =
  let fields =
    ("workload", workload) :: ("strategy", strategy) :: ("context", context)
    :: params
  in
  let lit = Trace.Json.string_lit in
  let json =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> lit k ^ ":" ^ lit v) fields)
    ^ "}"
  in
  Digest.to_hex (Digest.string json)

let wave_path t wave =
  Filename.concat t.dir (Printf.sprintf "wave-%06d.wv" wave)

(* --- encoding ----------------------------------------------------------- *)

let render_candidate buf (c : Candidate.t) =
  Printf.bprintf buf "c %d %d %s %d\n" c.Candidate.id c.Candidate.stim_seed
    (match c.Candidate.uniform_f with
    | Some f -> string_of_int f
    | None -> "-")
    (List.length c.Candidate.assigns);
  List.iter
    (fun (a : Candidate.assign) ->
      Printf.bprintf buf "a %d %d %s\n" a.n a.f a.signal)
    c.Candidate.assigns

let line_count s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 s

let render ~wave (outcomes : outcome) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%d %d\n" wave (List.length outcomes);
  List.iter
    (fun (c, r) ->
      render_candidate buf c;
      match r with
      | Ok m ->
          let payload = Refine.Eval.encode_metrics m in
          Printf.bprintf buf "ok %d\n%s\n" (line_count payload) payload
      | Error (msg, attempts) -> Printf.bprintf buf "err %d %S\n" attempts msg)
    outcomes;
  Buffer.contents buf

(* --- strict decoding ---------------------------------------------------- *)

let ( let* ) = Option.bind

let parse_assign line =
  match String.split_on_char ' ' line with
  | "a" :: n :: f :: (_ :: _ as rest) ->
      let* n = int_of_string_opt n in
      let* f = int_of_string_opt f in
      (* the signal name is everything after the third space, so a name
         containing spaces still round-trips *)
      Some { Candidate.signal = String.concat " " rest; n; f }
  | _ -> None

(* [take n parse lines] — the first [n] lines, each through [parse],
   and the remaining lines. *)
let rec take n parse lines =
  if n = 0 then Some ([], lines)
  else
    match lines with
    | [] -> None
    | l :: lines ->
        let* x = parse l in
        let* xs, lines = take (n - 1) parse lines in
        Some (x :: xs, lines)

let parse_candidate = function
  | head :: rest -> (
      match String.split_on_char ' ' head with
      | [ "c"; id; seed; uf; k ] ->
          let* id = int_of_string_opt id in
          let* stim_seed = int_of_string_opt seed in
          let* uniform_f =
            if String.equal uf "-" then Some None
            else Option.map Option.some (int_of_string_opt uf)
          in
          let* k = int_of_string_opt k in
          let* () = if k >= 0 then Some () else None in
          let* assigns, rest = take k parse_assign rest in
          Some ({ Candidate.id; assigns; stim_seed; uniform_f }, rest)
      | _ -> None)
  | [] -> None

let parse_result = function
  | l :: rest -> (
      match String.split_on_char ' ' l with
      | [ "ok"; k ] ->
          let* k = int_of_string_opt k in
          let* lines, rest = take k Option.some rest in
          let* m = Refine.Eval.decode_metrics (String.concat "\n" lines) in
          Some (Ok m, rest)
      | _ -> (
          match Scanf.sscanf l "err %d %S%!" (fun a msg -> (msg, a)) with
          | e -> Some (Error e, rest)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None))
  | [] -> None

(* Whole-payload parse; [None] on any deviation (trailing garbage,
   count mismatch, unparsable line). *)
let parse_record payload =
  match String.split_on_char '\n' payload with
  | header :: rest ->
      let* wave, count =
        match String.split_on_char ' ' header with
        | [ wave; count ] ->
            let* wave = int_of_string_opt wave in
            let* count = int_of_string_opt count in
            if wave >= 1 && count >= 0 then Some (wave, count) else None
        | _ -> None
      in
      let rec go n lines =
        if n = 0 then if lines = [ "" ] then Some [] else None
        else
          let* c, lines = parse_candidate lines in
          let* r, lines = parse_result lines in
          let* os = go (n - 1) lines in
          Some ((c, r) :: os)
      in
      let* outcomes = go count rest in
      Some (wave, outcomes)
  | [] -> None

(* --- lifecycle ----------------------------------------------------------- *)

let load t =
  List.iter
    (fun (_, path) ->
      match Option.bind (Durable.read ~magic path) parse_record with
      | Some (wave, outcomes) -> Hashtbl.replace t.journaled wave outcomes
      | None -> ())
    (Durable.scan ~prefix:"wave-" ~suffix:".wv" t.dir)

let clear_journal dir =
  List.iter
    (fun (_, path) -> Durable.remove path)
    (Durable.scan ~prefix:"wave-" ~suffix:".wv" dir
    @ Durable.scan ~suffix:".tmp" dir);
  Durable.fsync_dir dir

let create ?(resume = false) ~dir ~key () =
  if not (Durable.name_is_safe key) then
    invalid_arg "Sweep.Checkpoint.create: key is not a safe file name";
  let sub = Filename.concat dir key in
  Durable.mkdir_p sub;
  let t =
    {
      dir = sub;
      journaled = Hashtbl.create 16;
      replayed_waves = 0;
      replayed_candidates = 0;
    }
  in
  if resume then load t else clear_journal sub;
  t

(* --- the Pool-facing pair ------------------------------------------------ *)

let candidates_match journaled (live : Candidate.t list) =
  List.length journaled = List.length live
  && List.for_all2 (fun (c, _) c' -> c = c') journaled live

let lookup t ~wave candidates =
  match Hashtbl.find_opt t.journaled wave with
  | Some outcomes when candidates_match outcomes candidates ->
      t.replayed_waves <- t.replayed_waves + 1;
      t.replayed_candidates <- t.replayed_candidates + List.length outcomes;
      Some outcomes
  | Some _ | None -> None

let record t ~wave (outcomes : outcome) =
  Durable.write ~magic (wave_path t wave) (render ~wave outcomes);
  Hashtbl.replace t.journaled wave outcomes
