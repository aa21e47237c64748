(* Durable records — see the .mli for the frame and the contract. *)

module Crc32 = Crc32

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Names become file names; anything outside this alphabet stays out of
   the directory rather than risking path tricks or unportable names. *)
let name_is_safe n =
  n <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       n
  && n.[0] <> '.'

let remove path = try Sys.remove path with Sys_error _ -> ()

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* A name that exists already (a stale directory of a recycled pid) is
   skipped, never reused: the caller is promised an empty directory. *)
let temp_counter = Atomic.make 0

let with_temp_dir ~prefix f =
  let rec fresh () =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
           (Atomic.fetch_and_add temp_counter 1))
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  let dir = fresh () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
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

(* Write the whole file beside its final name, fsync it, rename, then
   fsync the directory: a reader (or a crash, even a power loss) sees
   the old file or the new one, never a prefix. *)
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

let frame ~magic payload =
  Printf.sprintf "%s %d %s\n%s" magic (String.length payload)
    (Crc32.to_hex (Crc32.digest payload))
    payload

let unframe ~magic raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some nl -> (
      match String.split_on_char ' ' (String.sub raw 0 nl) with
      | [ m; len; crc ] when String.equal m magic -> (
          match (int_of_string_opt len, Crc32.of_hex crc) with
          | Some n, Some sum when n >= 0 && String.length raw = nl + 1 + n ->
              let payload = String.sub raw (nl + 1) n in
              if Int32.equal (Crc32.digest payload) sum then Some payload
              else None
          | _ -> None)
      | _ -> None)

let write ~magic path payload = write_atomic path (frame ~magic payload)

let read ~magic path =
  match read_file path with
  | raw -> unframe ~magic raw
  | exception Sys_error _ -> None

let scan ?(prefix = "") ~suffix dir =
  let names =
    match Sys.readdir dir with
    | arr ->
        Array.sort compare arr;
        Array.to_list arr
    | exception Sys_error _ -> []
  in
  let pl = String.length prefix in
  List.filter_map
    (fun file ->
      match Filename.chop_suffix_opt ~suffix file with
      | Some base
        when String.length base > pl
             && String.equal (String.sub base 0 pl) prefix ->
          let stem = String.sub base pl (String.length base - pl) in
          if name_is_safe stem then Some (stem, Filename.concat dir file)
          else None
      | _ -> None)
    names
