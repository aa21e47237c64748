(** CRC-32 (IEEE 802.3) — pure OCaml, table-driven.

    Every {!Durable} record frame carries the checksum of its payload so
    that bit-rot (same-length corruption the byte count cannot see) is
    detected on read instead of served as truth. *)

(** [digest s] — the CRC-32 of the whole string (standard init/final
    xor, reflected polynomial [0xEDB88320]).  ["123456789"] digests to
    [0xcbf43926l]. *)
val digest : string -> int32

(** Fixed-width lowercase rendering, e.g. [to_hex 0xcbf43926l =
    "cbf43926"]. *)
val to_hex : int32 -> string

(** Strict inverse of {!to_hex}: exactly eight lowercase hex digits, or
    [None]. *)
val of_hex : string -> int32 option
