(** Line-delimited flat-JSON framing for the daemon protocol.

    One message = one line = one flat JSON object.  Writing and the
    strict parse are {!Trace.Json}'s: any deviation, including trailing
    garbage, yields [None], which the daemon turns into an error
    response rather than a guess.  Strings are escaped JSON-conformantly
    ({!Trace.Json.escape}), so a whole canonical sweep report (printable
    ASCII + newlines) embeds as a single string field. *)

type value = Trace.Json.value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null
  | Strings of string list

let escape = Trace.Json.escape

let render_value = function
  | String s -> Trace.Json.string_lit s
  | Int i -> string_of_int i
  | Float f -> Trace.Json.float_lit f
  | Bool b -> Trace.Json.bool_lit b
  | Null -> "null"
  | Strings l ->
      "[" ^ String.concat ", " (List.map Trace.Json.string_lit l) ^ "]"

let to_line fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Trace.Json.string_lit k ^ ": " ^ render_value v)
         fields)
  ^ "}"

let of_line line = Result.to_option (Trace.Json.parse_object line)

(* --- field accessors ---------------------------------------------------- *)

let find fields k = List.assoc_opt k fields

let get_string fields k =
  match find fields k with Some (String s) -> Some s | _ -> None

let get_int fields k =
  match find fields k with Some (Int i) -> Some i | _ -> None

let get_float fields k =
  match find fields k with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let get_bool fields k =
  match find fields k with Some (Bool b) -> Some b | _ -> None
