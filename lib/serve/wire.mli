(** Line-delimited flat-JSON framing for the daemon protocol: one
    message = one line = one flat JSON object (no nesting beyond string
    arrays).  Rendering and the strict parse are {!Trace.Json}'s — no
    external JSON dependency. *)

(** A flat field value ({!Trace.Json.value}). *)
type value = Trace.Json.value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null
  | Strings of string list

(** {!Trace.Json.escape}: a JSON string body, no surrounding quotes. *)
val escape : string -> string

(** Render an ordered field list as one single-line JSON object. *)
val to_line : (string * value) list -> string

(** Strictly parse one line back into its ordered field list
    ({!Trace.Json.parse_object}); [None] on any malformation, including
    trailing garbage or [\uXXXX] escapes above [0xff]. *)
val of_line : string -> (string * value) list option

(** First value under the key, if any. *)
val find : (string * value) list -> string -> value option

(** Typed accessors; [None] when absent or differently typed
    ({!get_float} also accepts an [Int]). *)

val get_string : (string * value) list -> string -> string option
val get_int : (string * value) list -> string -> int option
val get_float : (string * value) list -> string -> float option
val get_bool : (string * value) list -> string -> bool option
