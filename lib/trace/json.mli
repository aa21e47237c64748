(** Canonical JSON literal rendering shared by every exporter (and by
    {!Sweep.Report}): one byte-stable formatting rule so determinism
    gates can compare rendered output as strings — plus the one strict
    reader for the flat objects the daemon protocol and fault plans
    use. *)

(** Shortest exact decimal that round-trips ([%.15g], falling back to
    [%.17g]); nan/±inf render as the quoted strings ["nan"], ["inf"],
    ["-inf"]. *)
val float_lit : float -> string

(** [float_lit], with [None] as [null]. *)
val float_opt : float option -> string

(** JSON-escape a string body, without the surrounding quotes: quote,
    backslash, newline, carriage return, tab, backspace and form feed
    get their two-character escapes, the remaining control bytes
    [\u00XX]; every other byte (printable ASCII, DEL, bytes ≥ 0x80)
    passes through verbatim, so any byte string round-trips through
    {!parse_object}. *)
val escape : string -> string

(** [escape]d and quoted. *)
val string_lit : string -> string

(** [true]/[false]. *)
val bool_lit : bool -> string

(** A flat field value: a scalar, or an array of strings. *)
type value =
  | String of string
  | Int of int
  | Float of float  (** a number literal with [.], [e] or [E] *)
  | Bool of bool
  | Null
  | Strings of string list

(** Strictly parse one flat JSON object into its ordered field list.
    Any deviation — nesting beyond string arrays, a non-string array
    element, trailing bytes, a [\uXXXX] escape above [0xff] — is an
    [Error] naming the byte offset. *)
val parse_object : string -> ((string * value) list, string) result
