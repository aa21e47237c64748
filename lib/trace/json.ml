(** Canonical JSON literal rendering shared by every exporter, and the
    one strict reader for flat objects.

    One float formatting rule for the whole observability surface (and
    re-used by {!Sweep.Report}): shortest exact decimal that round-trips
    back to the same IEEE value, so two renderings of the same data are
    byte-identical — the property the determinism gates compare for.
    JSON has no non-finite numbers; they surface as quoted strings. *)

let float_lit v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let float_opt = function None -> "null" | Some v -> float_lit v

(* A string without quotes, backslashes or control bytes (the common
   case: signal names, keys) is returned as is. *)
let escape s =
  if not (String.exists (fun c -> c = '"' || c = '\\' || c < ' ') s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when c < ' ' ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let string_lit s = "\"" ^ escape s ^ "\""
let bool_lit b = if b then "true" else "false"

(* --- the flat-object reader --------------------------------------------- *)

type value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null
  | Strings of string list

exception Bad of int

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let bad () = raise (Bad !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c = if peek () = Some c then advance () else bad () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      match peek () with
      | None -> bad ()
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' when !pos + 4 < n && String.for_all is_hex (String.sub s (!pos + 1) 4)
            ->
              (* byte strings only: reject code points that would need
                 real UTF-8 encoding *)
              let v = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              if v > 0xff then bad ();
              Buffer.add_char b (Char.chr v);
              pos := !pos + 4
          | _ -> bad ());
          advance ();
          go ()
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with Some f -> Float f | None -> bad ()
    else match int_of_string_opt lit with Some i -> Int i | None -> bad ()
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
      pos := !pos + l;
      v
    end
    else bad ()
  in
  (* [elem] at the cursor, then [close] or [, elem]...; [open_] consumed *)
  let rec sequence close elem acc =
    skip_ws ();
    let acc = elem () :: acc in
    skip_ws ();
    match peek () with
    | Some ',' ->
        advance ();
        sequence close elem acc
    | Some c when c = close ->
        advance ();
        List.rev acc
    | _ -> bad ()
  in
  let delimited open_ close elem =
    expect open_;
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else sequence close elem []
  in
  let parse_value () =
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some '[' -> Strings (delimited '[' ']' parse_string)
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> bad ()
  in
  let member () =
    let k = parse_string () in
    skip_ws ();
    expect ':';
    skip_ws ();
    (k, parse_value ())
  in
  skip_ws ();
  let fields = delimited '{' '}' member in
  skip_ws ();
  if !pos <> n then bad ();
  fields

let parse_object s =
  try Ok (parse_exn s)
  with Bad at ->
    Error (Printf.sprintf "malformed flat JSON object at byte %d" at)
