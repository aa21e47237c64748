(* Differential oracle: Fixpt.Quantize vs the executable spec, over
   seeded random cases.  Comparison is bit-exact (hex-float renderings
   are used in mismatch reports so a disagreement is unambiguous). *)

type case = { dtype : Fixpt.Dtype.t; value : float }
type mismatch = { case : case; field : string; spec : string; impl : string }

type report = {
  seed : int;
  per_combo : int;
  total_cases : int;
  mismatches : mismatch list;
  mismatch_count : int;
}

let max_reported = 20
let fixed_default_seed = 421731

let default_seed () =
  match Sys.getenv_opt "FXREFINE_QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> fixed_default_seed)
  | None -> fixed_default_seed

let combos =
  List.concat_map
    (fun sign ->
      List.concat_map
        (fun overflow ->
          List.map
            (fun round -> (sign, overflow, round))
            [ Fixpt.Round_mode.Round; Fixpt.Round_mode.Floor ])
        [
          Fixpt.Overflow_mode.Wrap;
          Fixpt.Overflow_mode.Saturate;
          Fixpt.Overflow_mode.Error;
        ])
    [ Fixpt.Sign_mode.Tc; Fixpt.Sign_mode.Us ]

(* The wordlengths the hot path special-cases: single bit, the last
   exact-int64-grid width, and the two float-fallback-only widths. *)
let boundary_n = [| 1; 62; 63; 64 |]

let gen_n rng (sign : Fixpt.Sign_mode.t) i =
  let n =
    if i mod 2 = 0 then boundary_n.(i / 2 mod Array.length boundary_n)
    else 1 + Stats.Rng.int rng 64
  in
  (* unsigned 64-bit codes do not exist in int64: documented limit *)
  match sign with Fixpt.Sign_mode.Us -> min n 63 | Fixpt.Sign_mode.Tc -> n

let gen_value rng (dt : Fixpt.Dtype.t) i =
  let step = Fixpt.Dtype.step dt in
  let min_v, max_v = Fixpt.Dtype.range dt in
  match i mod 7 with
  | 0 ->
      (* plain in/near-range magnitudes *)
      Stats.Rng.uniform rng ~lo:(4.0 *. min_v -. step) ~hi:(4.0 *. max_v +. step)
  | 1 ->
      (* exact grid points *)
      let code = Stats.Rng.int rng 2_000_001 - 1_000_000 in
      Float.of_int code *. step
  | 2 ->
      (* half-step ties (the Round/Floor disagreement points) *)
      let code = Stats.Rng.int rng 2_000_001 - 1_000_000 in
      (Float.of_int code +. 0.5) *. step
  | 3 ->
      (* range-explosion magnitudes: float fallback *)
      let mag = 10.0 ** Float.of_int (19 + Stats.Rng.int rng 14) in
      if Stats.Rng.bool rng then mag else -.mag
  | 4 ->
      (* straddle the int64-exact window boundary *)
      let r = Stats.Rng.uniform rng ~lo:0.5 ~hi:1.5 in
      let s = if Stats.Rng.bool rng then 1.0 else -1.0 in
      s *. r *. Quantize_spec.int64_exact *. step
  | 5 ->
      (* format boundaries *)
      [| min_v; max_v; min_v -. step; max_v +. step;
         min_v +. (step /. 2.0); max_v -. (step /. 2.0) |].(Stats.Rng.int rng 6)
  | _ ->
      [| 0.0; step /. 2.0; -.(step /. 2.0); 1.0; -1.0;
         Float.infinity; Float.neg_infinity |].(Stats.Rng.int rng 7)

let hex = Printf.sprintf "%h"

let fields_of (o : Fixpt.Quantize.outcome) =
  [
    ("value", hex o.Fixpt.Quantize.value);
    ("rounding_error", hex o.Fixpt.Quantize.rounding_error);
    ( "overflow",
      match o.Fixpt.Quantize.overflow with
      | None -> "none"
      | Some ev ->
          Printf.sprintf "%s raw=%s"
            (match ev.Fixpt.Quantize.direction with
            | `Above -> "above"
            | `Below -> "below")
            (hex ev.Fixpt.Quantize.raw) );
  ]

let compare_case acc case =
  let spec = Quantize_spec.quantize case.dtype case.value in
  let impl = Fixpt.Quantize.quantize case.dtype case.value in
  List.fold_left2
    (fun acc (field, s) (_, i) ->
      if String.equal s i then acc
      else { case; field; spec = s; impl = i } :: acc)
    acc (fields_of spec) (fields_of impl)

let run ?seed ?(per_combo = 1000) () =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let total = ref 0 in
  let mismatches = ref [] in
  let count = ref 0 in
  List.iteri
    (fun ci (sign, overflow, round) ->
      let rng = Stats.Rng.create ~seed:(seed + (1_000_003 * ci)) in
      for i = 0 to per_combo - 1 do
        let n = gen_n rng sign i in
        let f = -16 + Stats.Rng.int rng (n + 32) in
        let dtype = Fixpt.Dtype.make "t" ~n ~f ~sign ~overflow ~round () in
        let value = gen_value rng dtype i in
        if Float.is_nan value then ()
        else begin
          incr total;
          let before = List.length !mismatches in
          let found = compare_case [] { dtype; value } in
          count := !count + List.length found;
          if before < max_reported then
            mismatches :=
              !mismatches
              @ List.filteri (fun k _ -> before + k < max_reported) found
        end
      done)
    combos;
  {
    seed;
    per_combo;
    total_cases = !total;
    mismatches = !mismatches;
    mismatch_count = !count;
  }

(* One summary check, then one failing check per reported mismatch. *)
let checks r =
  {
    Check.name = "quantize-vs-spec";
    ok = r.mismatch_count = 0;
    detail =
      Printf.sprintf
        "%d cases (%d per mode combination, %d combinations), seed %d: %d \
         mismatch(es)"
        r.total_cases r.per_combo (List.length combos) r.seed
        r.mismatch_count;
  }
  :: List.map
       (fun m ->
         {
           Check.name = Fixpt.Dtype.to_string m.case.dtype;
           ok = false;
           detail =
             Printf.sprintf "value=%s (%h): spec %s=%s, impl %s"
               (hex m.case.value) m.case.value m.field m.spec m.impl;
         })
       r.mismatches
