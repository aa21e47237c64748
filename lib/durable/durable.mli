(** Durable records: the one on-disk write path shared by every store
    (the {!Serve.Cache} evaluation cache, the {!Sweep.Checkpoint} wave
    journal and the {!Serve.Journal} daemon intent journal).

    A record is one file holding a CRC-framed payload,

    {v <magic> <payload-bytes> <crc32-hex>\n<payload> v}

    published atomically and durably (temp file + [fsync] + rename +
    directory [fsync]), so a [SIGKILL] or a power cut at any instant
    leaves the old file or the new one, never a prefix.  The byte count
    makes truncation detectable and the CRC-32 makes same-length
    corruption (a flipped byte, bit-rot, a hand edit) just as visible:
    {!read} answers [None] for any of them, and each store decides what
    [None] costs — a cache miss, a re-evaluated wave, a quarantined
    intent — never a wrong answer. *)

(** CRC-32 (IEEE 802.3) over the payload. *)
module Crc32 = Crc32

(** [write ~magic path payload] — atomically and durably replace
    [path] with the framed record.  The temp file's name is unique per
    write (so concurrent writers of one path never collide) and ends in
    [.tmp].  [magic] must not contain a space or a newline. *)
val write : magic:string -> string -> string -> unit

(** [read ~magic path] — the payload of the record at [path], or [None]
    when the file cannot be read, its magic differs, its header is
    malformed, its byte count disagrees or its CRC does not match. *)
val read : magic:string -> string -> string option

(** [fsync] a directory, making renames and removals in it durable
    (best-effort: errors are ignored). *)
val fsync_dir : string -> unit

(** Best-effort [Sys.remove] (a missing file is not an error). *)
val remove : string -> unit

(** Best-effort recursive removal of a file or a directory tree
    (symlinks are removed, never followed). *)
val remove_tree : string -> unit

(** [with_temp_dir ~prefix f] — [f dir] on a fresh, empty directory
    [<temp dir>/<prefix>-<pid>-<n>], removed with everything in it
    when [f] returns or raises.  The removal runs in the calling
    process only: a forked child that leaves through [Unix._exit]
    leaves the directory to its parent. *)
val with_temp_dir : prefix:string -> (string -> 'a) -> 'a

(** Create a directory and its missing parents. *)
val mkdir_p : string -> unit

(** The whole file, as bytes.  Raises [Sys_error]. *)
val read_file : string -> string

(** A name safe to use as a file name: non-empty, [[A-Za-z0-9._-]]
    only, not starting with a dot. *)
val name_is_safe : string -> bool

(** [scan ?prefix ~suffix dir] — every [<prefix><stem><suffix>] file in
    [dir] whose [stem] is {!name_is_safe}, as [(stem, path)] in file
    name order; [[]] when [dir] cannot be read. *)
val scan : ?prefix:string -> suffix:string -> string -> (string * string) list
