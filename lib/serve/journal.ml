(** Write-ahead job journal for the daemon — see the .mli for the
    contract.

    One file per in-flight job under the journal directory, each a
    CRC-framed {!Durable} record:

    - [job-<name>.intent] — the write-ahead record, created {e before}
      the job starts executing; its payload is
      [<attempts>\n<request line>].
    - [job-<name>.quarantined] — the same payload plus a
      [\nreason <escaped>] line, written when recovery gives up on the
      job.

    Durable writes are atomic, so a SIGKILL at any instant leaves each
    job in exactly one state: absent (never admitted or already
    completed), intent (must be re-run or quarantined by the next
    daemon), or quarantined.  Nothing is ever silently forgotten. *)

type entry = { name : string; attempts : int; line : string }
type t = { dir : string; counter : int Atomic.t }

let magic = "fxintent2"
let dir t = t.dir

let create ~dir =
  Durable.mkdir_p dir;
  { dir; counter = Atomic.make 0 }

(* Unique within the journal across restarts: the pid distinguishes
   daemon generations, the counter distinguishes jobs within one. *)
let fresh_name t =
  Printf.sprintf "%d-%06d" (Unix.getpid ()) (Atomic.fetch_and_add t.counter 1)

let intent_path t name = Filename.concat t.dir ("job-" ^ name ^ ".intent")

let quarantine_path t name =
  Filename.concat t.dir ("job-" ^ name ^ ".quarantined")

let payload e = Printf.sprintf "%d\n%s" e.attempts e.line

let record_intent t e =
  if not (Durable.name_is_safe e.name) then
    invalid_arg "Serve.Journal.record_intent: unsafe job name";
  Durable.write ~magic (intent_path t e.name) (payload e)

let mark_done t ~name =
  Durable.remove (intent_path t name);
  Durable.fsync_dir t.dir

let quarantine t e ~reason =
  Durable.write ~magic (quarantine_path t e.name)
    (payload e ^ Printf.sprintf "\nreason %S" reason);
  mark_done t ~name:e.name

let parse_intent ~name payload =
  match String.split_on_char '\n' payload with
  | [ attempts; line ] -> (
      match int_of_string_opt attempts with
      | Some attempts when attempts >= 0 -> Some { name; attempts; line }
      | _ -> None)
  | _ -> None

let scan t ~suffix = Durable.scan ~prefix:"job-" ~suffix t.dir

(* Interrupted jobs, oldest first.  A torn, corrupted, old-format or
   unparsable intent file is quarantined on the spot (reason recorded,
   raw bytes preserved) — never deleted, never re-run blind. *)
let pending t =
  List.filter_map
    (fun (name, path) ->
      match Option.bind (Durable.read ~magic path) (parse_intent ~name) with
      | Some e -> Some e
      | None ->
          let raw = try Durable.read_file path with Sys_error _ -> "" in
          quarantine t
            { name; attempts = 0; line = raw }
            ~reason:"unparsable intent record";
          None)
    (scan t ~suffix:".intent")

let quarantined t = List.map fst (scan t ~suffix:".quarantined")
