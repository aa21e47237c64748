(* Conformance: the differential quantization oracle.

   Two layers: the batch driver (Oracle.Differential — ≥1000 cases per
   sign × overflow × round combination with forced wordlength
   boundaries) and an independent qcheck property that draws (dtype,
   value) pairs from its own generators and compares the implementation
   against the executable spec field by field. *)

open Fixrefine

let seed = Test_support.Qseed.seed

(* --- batch driver -------------------------------------------------------- *)

let test_batch () =
  let r = Oracle.Differential.run ~seed ~per_combo:1000 () in
  let checks = Oracle.Differential.checks r in
  if not (Oracle.Check.passed checks) then
    Alcotest.failf "%a" Oracle.Check.pp checks;
  Alcotest.(check bool)
    "at least 1000 cases per combination" true
    (r.Oracle.Differential.total_cases
    >= 1000 * List.length Oracle.Differential.combos)

let test_batch_deterministic () =
  (* same seed, same report — the replay contract of the printed seed *)
  let a = Oracle.Differential.run ~seed ~per_combo:50 () in
  let b = Oracle.Differential.run ~seed ~per_combo:50 () in
  Alcotest.(check int)
    "same case count" a.Oracle.Differential.total_cases
    b.Oracle.Differential.total_cases;
  Alcotest.(check int)
    "same mismatch count" a.Oracle.Differential.mismatch_count
    b.Oracle.Differential.mismatch_count

(* --- independent qcheck property ----------------------------------------- *)

let gen_dtype =
  let open QCheck2.Gen in
  let* sign = oneofl [ Fixpt.Sign_mode.Tc; Fixpt.Sign_mode.Us ] in
  let* overflow =
    oneofl
      [
        Fixpt.Overflow_mode.Wrap;
        Fixpt.Overflow_mode.Saturate;
        Fixpt.Overflow_mode.Error;
      ]
  in
  let* round = oneofl [ Fixpt.Round_mode.Round; Fixpt.Round_mode.Floor ] in
  (* boundary wordlengths appear alongside ordinary ones; unsigned
     formats stop at 63 (no int64 code for unsigned 64) *)
  let* n = oneofl [ 1; 2; 3; 7; 8; 12; 16; 24; 32; 48; 61; 62; 63; 64 ] in
  let n = if sign = Fixpt.Sign_mode.Us then min n 63 else n in
  let* f = int_range (-8) (n + 8) in
  return (Fixpt.Dtype.make "gen" ~n ~f ~sign ~overflow ~round ())

let gen_value dt =
  let open QCheck2.Gen in
  let lo, hi = Fixpt.Dtype.range dt in
  let span = Float.max 1.0 (hi -. lo) in
  oneof
    [
      (* around the representable window, including overflow territory *)
      (let* u = float_range (-2.5) 2.5 in
       return (u *. span));
      (* exact grid points and half-step ties *)
      (let* k = int_range (-2000) 2000 in
       let* half = oneofl [ 0.0; 0.5 ] in
       return ((Float.of_int k +. half) *. Fixpt.Dtype.step dt));
      (* format boundaries *)
      oneofl [ lo; hi; 0.0; -0.0; lo -. Fixpt.Dtype.step dt; hi +. Fixpt.Dtype.step dt ];
      (* int64-exact window straddle and range-explosion magnitudes *)
      (let* m = float_range 1e17 1e20 in
       let* s = oneofl [ 1.0; -1.0 ] in
       return (s *. m *. Fixpt.Dtype.step dt));
      (let* e = int_range 18 34 in
       let* s = oneofl [ 1.0; -1.0 ] in
       return (s *. (10.0 ** Float.of_int e)));
      oneofl [ Float.infinity; Float.neg_infinity; Float.max_float ];
    ]

let gen_case =
  let open QCheck2.Gen in
  let* dt = gen_dtype in
  let* v = gen_value dt in
  return (dt, v)

let print_case (dt, v) =
  Printf.sprintf "%s <- %h" (Fixpt.Dtype.to_string dt) v

let outcome_repr (o : Fixpt.Quantize.outcome) =
  let ov =
    match o.Fixpt.Quantize.overflow with
    | None -> "none"
    | Some { Fixpt.Quantize.raw; direction } ->
        Printf.sprintf "%s raw=%h"
          (match direction with `Above -> "above" | `Below -> "below")
          raw
  in
  Printf.sprintf "value=%h rerr=%h overflow=%s" o.Fixpt.Quantize.value
    o.Fixpt.Quantize.rounding_error ov

let prop_impl_matches_spec =
  QCheck2.Test.make ~count:2000 ~name:"impl quantize = spec quantize"
    ~print:print_case gen_case (fun (dt, v) ->
      let impl = Fixpt.Quantize.quantize dt v in
      let spec = Oracle.Quantize_spec.quantize dt v in
      let ri = outcome_repr impl and rs = outcome_repr spec in
      if String.equal ri rs then true
      else QCheck2.Test.fail_reportf "impl %s@.spec %s" ri rs)

let prop_spec_cast_idempotent =
  QCheck2.Test.make ~count:1000 ~name:"spec cast idempotent"
    ~print:print_case gen_case (fun (dt, v) ->
      (* idempotence needs a float-exact code grid: beyond 53 bits the
         grid codes themselves round in double precision, and a wrap of
         an infinite scaled value yields NaN — both excluded *)
      if Fixpt.Dtype.n dt > 53 then true
      else
        let once = Oracle.Quantize_spec.cast dt v in
        let lo, hi = Fixpt.Dtype.range dt in
        if Float.is_finite once && once >= lo && once <= hi then
          Float.equal once (Oracle.Quantize_spec.cast dt once)
        else true)

(* --- spec edge cases ------------------------------------------------------ *)

let test_nan_raises () =
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:4 () in
  let raises f = try ignore (f ()) ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "spec raises on NaN" true
    (raises (fun () -> Oracle.Quantize_spec.quantize dt Float.nan));
  Alcotest.(check bool) "impl raises on NaN" true
    (raises (fun () -> Fixpt.Quantize.quantize dt Float.nan))

let test_code_bounds_full_width () =
  let fmt64 = Fixpt.Qformat.make ~n:64 ~f:0 Fixpt.Sign_mode.Tc in
  let lo, hi = Oracle.Quantize_spec.code_bounds fmt64 in
  Alcotest.(check bool) "tc64 lo" true (Int64.equal lo Int64.min_int);
  Alcotest.(check bool) "tc64 hi" true (Int64.equal hi Int64.max_int);
  let lo', hi' = Fixpt.Quantize.code_bounds fmt64 in
  Alcotest.(check bool) "impl agrees" true
    (Int64.equal lo lo' && Int64.equal hi hi');
  let fmt_us64 = Fixpt.Qformat.make ~n:64 ~f:0 Fixpt.Sign_mode.Us in
  Alcotest.(check bool) "us64 raises" true
    (try
       ignore (Oracle.Quantize_spec.code_bounds fmt_us64);
       false
     with Invalid_argument _ -> true)

let test_wrap_code_agrees () =
  let fmt = Fixpt.Qformat.make ~n:5 ~f:0 Fixpt.Sign_mode.Tc in
  for c = -200 to 200 do
    let c64 = Int64.of_int c in
    Alcotest.(check bool)
      (Printf.sprintf "wrap %d" c)
      true
      (Int64.equal
         (Oracle.Quantize_spec.wrap_code fmt c64)
         (Fixpt.Quantize.wrap_code fmt c64))
  done

let suite =
  ( "conformance.differential",
    [
      Alcotest.test_case "batch: 1000 per combination" `Quick test_batch;
      Alcotest.test_case "batch: deterministic under seed" `Quick
        test_batch_deterministic;
      Alcotest.test_case "NaN raises (spec and impl)" `Quick test_nan_raises;
      Alcotest.test_case "code_bounds at full width" `Quick
        test_code_bounds_full_width;
      Alcotest.test_case "wrap_code spec = impl" `Quick test_wrap_code_agrees;
      Test_support.Qseed.to_alcotest prop_impl_matches_spec;
      Test_support.Qseed.to_alcotest prop_spec_cast_idempotent;
    ] )
