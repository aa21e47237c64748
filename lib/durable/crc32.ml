(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — pure OCaml,
   table-driven, no external dependency.  Used by the {!Durable} record
   frame to make bit-rot inside a payload detectable: the length header
   alone catches truncation, the CRC catches same-length corruption. *)

let polynomial = 0xEDB88320l

(* Built eagerly at module init: a [lazy] here would be forced
   concurrently by every Pool worker domain sharing a cache, and
   [Lazy.force] is not domain-safe. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor polynomial (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest s =
  let t = table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand
             (Int32.logxor !c (Int32.of_int (Char.code ch)))
             0xFFl)
      in
      c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if
    String.length s = 8
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  then Int32.of_string_opt ("0x" ^ s)
  else None
