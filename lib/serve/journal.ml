(** Write-ahead job journal for the daemon — see the .mli for the
    contract.

    One file per in-flight job under the journal directory:

    - [job-<name>.intent] — the write-ahead record, created {e before}
      the job starts executing:
      {v fxintent1 <attempts>\n<request line>\n v}
    - [job-<name>.quarantined] — the same record plus a
      [reason <escaped>] line, renamed into place when recovery gives
      up on the job.

    Every write is atomic and durable (temp + [fsync] + rename +
    directory [fsync]), so a SIGKILL at any instant leaves each job in
    exactly one state: absent (never admitted or already completed),
    intent (must be re-run or quarantined by the next daemon), or
    quarantined.  Nothing is ever silently forgotten. *)

type entry = { name : string; attempts : int; line : string }
type t = { dir : string; counter : int Atomic.t }

let magic = "fxintent1"
let dir t = t.dir

let name_is_safe n =
  n <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       n
  && n.[0] <> '.'

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir d =
  match Unix.openfile d [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* A temp name unique to this write (pid, domain, counter) that still
   ends in ".tmp": two writers of the same record never share a temp
   file (with one shared name, the loser's rename found it gone), and
   stale-temp cleanup still recognises it. *)
let tmp_counter = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.%d.%d.%d.tmp" path (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add tmp_counter 1)

let write_atomic path content =
  let tmp = tmp_name path in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.unsafe_of_string content in
      let n = Bytes.length b in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write fd b !written (n - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let create ~dir =
  mkdir_p dir;
  { dir; counter = Atomic.make 0 }

(* Unique within the journal across restarts: the pid distinguishes
   daemon generations, the counter distinguishes jobs within one. *)
let fresh_name t =
  Printf.sprintf "%d-%06d" (Unix.getpid ()) (Atomic.fetch_and_add t.counter 1)

let intent_path t name = Filename.concat t.dir ("job-" ^ name ^ ".intent")

let quarantine_path t name =
  Filename.concat t.dir ("job-" ^ name ^ ".quarantined")

let render e = Printf.sprintf "%s %d\n%s\n" magic e.attempts e.line

let record_intent t e =
  if not (name_is_safe e.name) then
    invalid_arg "Serve.Journal.record_intent: unsafe job name";
  write_atomic (intent_path t e.name) (render e)

let mark_done t ~name =
  (try Sys.remove (intent_path t name) with Sys_error _ -> ());
  fsync_dir t.dir

let quarantine t e ~reason =
  write_atomic (quarantine_path t e.name)
    (render e ^ Printf.sprintf "reason %S\n" reason);
  mark_done t ~name:e.name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_intent ~name raw =
  match String.split_on_char '\n' raw with
  | [ header; line; "" ] -> (
      match String.split_on_char ' ' header with
      | [ m; attempts ] when String.equal m magic -> (
          match int_of_string_opt attempts with
          | Some attempts when attempts >= 0 -> Some { name; attempts; line }
          | _ -> None)
      | _ -> None)
  | _ -> None

let scan t ~suffix =
  let names =
    match Sys.readdir t.dir with
    | arr ->
        Array.sort compare arr;
        Array.to_list arr
    | exception Sys_error _ -> []
  in
  List.filter_map
    (fun file ->
      match Filename.chop_suffix_opt ~suffix file with
      | Some base
        when String.length base > 4 && String.sub base 0 4 = "job-" ->
          let name = String.sub base 4 (String.length base - 4) in
          if name_is_safe name then Some (name, Filename.concat t.dir file)
          else None
      | _ -> None)
    names

(* Interrupted jobs, oldest first.  A torn or unparsable intent file is
   quarantined on the spot (reason recorded, raw bytes preserved) —
   never deleted, never re-run blind. *)
let pending t =
  List.filter_map
    (fun (name, path) ->
      match parse_intent ~name (read_file path) with
      | Some e -> Some e
      | None | (exception Sys_error _) ->
          let raw = try read_file path with Sys_error _ -> "" in
          quarantine t
            { name; attempts = 0; line = raw }
            ~reason:"unparsable intent record";
          None)
    (scan t ~suffix:".intent")

let quarantined t = List.map fst (scan t ~suffix:".quarantined")
