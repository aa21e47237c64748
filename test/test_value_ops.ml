(* Unit + property tests: Sim.Value and Sim.Ops — the triple-computation
   operators (Fig. 2). *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-12

let v ?iv fx fl =
  let iv =
    match iv with
    | Some (lo, hi) -> Interval.make lo hi
    | None -> Interval.make (Float.min fx fl) (Float.max fx fl)
  in
  Sim.Value.with_range { (Sim.Value.const fx) with Sim.Value.fl } iv

let test_const () =
  let c = cst 1.5 in
  check float_t "fx" 1.5 (Sim.Value.fx c);
  check float_t "fl" 1.5 (Sim.Value.fl c);
  check bool_t "point interval" true
    (Interval.equal (Sim.Value.iv c) (Interval.of_point 1.5))

let test_add_components () =
  let a = v ~iv:(0.0, 2.0) 1.0 1.01 and b = v ~iv:(-1.0, 1.0) 0.5 0.49 in
  let s = a +: b in
  check float_t "fx" 1.5 (Sim.Value.fx s);
  check float_t "fl" 1.5 (Sim.Value.fl s);
  check bool_t "iv" true
    (Interval.equal (Sim.Value.iv s) (Interval.make (-1.0) 3.0))

let test_mul_components () =
  let a = v ~iv:(-1.0, 2.0) 1.5 1.5 and b = v ~iv:(0.0, 3.0) 2.0 2.0 in
  let p = a *: b in
  check float_t "fx" 3.0 (Sim.Value.fx p);
  check bool_t "iv" true
    (Interval.equal (Sim.Value.iv p) (Interval.make (-3.0) 6.0))

let test_error_tracks_difference () =
  let a = v 1.0 1.25 in
  check float_t "consumed error" 0.25 (Sim.Value.error a);
  let doubled = a +: a in
  check float_t "error adds" 0.5 (Sim.Value.error doubled)

let test_relational_on_fixed () =
  (* fx and fl disagree: the decision must follow fx (§4.2) *)
  let a = v 1.0 (-5.0) in
  check bool_t "fx steers >" true (a >: cst 0.0);
  check bool_t "fx steers <" false (a <: cst 0.0);
  check bool_t "=" true (a =: v 1.0 99.0)

let test_select_joins_ranges () =
  let a = v ~iv:(0.0, 1.0) 0.5 0.5 and b = v ~iv:(-4.0, -2.0) (-3.0) (-3.0) in
  let s = select true a b in
  check float_t "took a" 0.5 (Sim.Value.fx s);
  check bool_t "range joins both branches" true
    (Interval.equal (Sim.Value.iv s) (Interval.make (-4.0) 1.0))

let test_sign_slicer () =
  check float_t "positive" 1.0 (Sim.Value.fx (sign (cst 0.3)));
  check float_t "negative" (-1.0) (Sim.Value.fx (sign (cst (-0.3))));
  check float_t "zero is +1" 1.0 (Sim.Value.fx (sign (cst 0.0)))

let test_shift () =
  let a = v ~iv:(-1.0, 1.0) 0.5 0.5 in
  check float_t "shl 3" 4.0 (Sim.Value.fx (shift_left a 3));
  check float_t "shr 1" 0.25 (Sim.Value.fx (shift_right a 1));
  check bool_t "iv scaled" true
    (Interval.equal (Sim.Value.iv (shift_left a 3)) (Interval.make (-8.0) 8.0))

let test_abs_min_max () =
  let a = v ~iv:(-2.0, 1.0) (-1.5) (-1.5) in
  check float_t "abs" 1.5 (Sim.Value.fx (abs a));
  check float_t "min" (-1.5) (Sim.Value.fx (min_ a (cst 3.0)));
  check float_t "max" 3.0 (Sim.Value.fx (max_ a (cst 3.0)))

let test_cast_quantizes_fx_only () =
  let dtq = Fixpt.Dtype.make "q" ~n:4 ~f:2 () in
  let a = v 0.6 0.6 in
  let c = cast dtq a in
  check float_t "fx quantized" 0.5 (Sim.Value.fx c);
  check float_t "fl untouched" 0.6 (Sim.Value.fl c)

let test_cast_saturating_clamps_range () =
  let dtq =
    Fixpt.Dtype.make "q" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let a = v ~iv:(-100.0, 100.0) 0.5 0.5 in
  let c = cast dtq a in
  check bool_t "range clamped to type" true
    (Interval.subset (Sim.Value.iv c)
       (Interval.make (Fixpt.Dtype.min_value dtq) (Fixpt.Dtype.max_value dtq)))

let gen_v =
  QCheck2.Gen.(
    map3
      (fun fx dfl w ->
        let lo = Float.min fx (fx +. dfl) -. Float.abs w in
        let hi = Float.max fx (fx +. dfl) +. Float.abs w in
        v ~iv:(lo, hi) fx (fx +. dfl))
      (float_range (-50.0) 50.0)
      (float_range (-1.0) 1.0)
      (float_range 0.0 10.0))

(* invariant: ops keep fx and fl inside the propagated interval when the
   operands were inside theirs *)
let prop_ops_keep_membership =
  let mem x = Interval.mem (Sim.Value.fx x) (Sim.Value.iv x) in
  QCheck2.Test.make ~name:"ops preserve fx ∈ iv" ~count:2000
    QCheck2.Gen.(pair gen_v gen_v)
    (fun (a, b) ->
      mem (a +: b) && mem (a -: b) && mem (a *: b) && mem (abs a)
      && mem (min_ a b) && mem (max_ a b) && mem (~-:a))

let prop_fl_membership =
  let memfl x = Interval.mem (Sim.Value.fl x) (Sim.Value.iv x) in
  QCheck2.Test.make ~name:"ops preserve fl ∈ iv" ~count:2000
    QCheck2.Gen.(pair gen_v gen_v)
    (fun (a, b) -> memfl (a +: b) && memfl (a *: b) && memfl (a -: b))

(* --- the flat value against the Interval reference ------------------ *)

(* Bit-exact float equality (the sign of a zero counts), with every NaN
   equal to every other. *)
let same x y =
  (Float.is_nan x && Float.is_nan y)
  || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_iv a b =
  match (a, b) with
  | Interval.Empty, Interval.Empty -> true
  | Interval.Range a, Interval.Range b -> same a.lo b.lo && same a.hi b.hi
  | _ -> false

let gen_float =
  QCheck2.Gen.(
    frequency
      [
        (6, float_range (-1e3) 1e3);
        ( 1,
          oneofl
            [ 0.0; -0.0; 1.0; -1.0; 1e300; -1e300; 5e-324; Float.infinity;
              Float.neg_infinity ] );
      ])

(* Empty, entire, points, ordered pairs (half of them straddle zero),
   infinite endpoints from [gen_float], and the NaN endpoint that
   inf - inf leaves in a propagated range. *)
let gen_iv =
  QCheck2.Gen.(
    frequency
      [
        (1, pure Interval.empty);
        (1, pure Interval.entire);
        (1, map Interval.of_point gen_float);
        ( 6,
          map2
            (fun a b -> Interval.make (Float.min a b) (Float.max a b))
            gen_float gen_float );
        (1, map (fun hi -> Interval.Range { lo = Float.nan; hi }) gen_float);
      ])

let gen_val =
  QCheck2.Gen.(
    map3
      (fun fx fl iv ->
        Sim.Value.with_range { (Sim.Value.const fx) with Sim.Value.fl } iv)
      gen_float gen_float gen_iv)

let print_val x = Format.asprintf "%a" Sim.Value.pp x

(* fx and fl are the plain float operation, the range is the Interval
   operation on the operands' ranges *)
let agrees r ~fx ~fl iv =
  same r.Sim.Value.fx fx && same r.Sim.Value.fl fl
  && same_iv (Sim.Value.iv r) iv

let prop_binary_ops_match_interval =
  QCheck2.Test.make ~name:"flat binary ops = Interval ops" ~count:3000
    ~print:QCheck2.Print.(pair print_val print_val)
    QCheck2.Gen.(pair gen_val gen_val)
    (fun (a, b) ->
      let open Sim.Value in
      let ia = iv a and ib = iv b in
      agrees (a +: b) ~fx:(a.fx +. b.fx) ~fl:(a.fl +. b.fl) (Interval.add ia ib)
      && agrees (a -: b) ~fx:(a.fx -. b.fx) ~fl:(a.fl -. b.fl)
           (Interval.sub ia ib)
      && agrees (a *: b) ~fx:(a.fx *. b.fx) ~fl:(a.fl *. b.fl)
           (Interval.mul ia ib)
      && agrees (a /: b) ~fx:(a.fx /. b.fx) ~fl:(a.fl /. b.fl)
           (Interval.div ia ib)
      && agrees (min_ a b) ~fx:(Float.min a.fx b.fx) ~fl:(Float.min a.fl b.fl)
           (Interval.min_ ia ib)
      && agrees (max_ a b) ~fx:(Float.max a.fx b.fx) ~fl:(Float.max a.fl b.fl)
           (Interval.max_ ia ib)
      && agrees (select true a b) ~fx:a.fx ~fl:a.fl (Interval.join ia ib)
      && agrees (select false a b) ~fx:b.fx ~fl:b.fl (Interval.join ia ib))

let prop_unary_ops_match_interval =
  QCheck2.Test.make ~name:"flat unary ops = Interval ops" ~count:3000
    ~print:QCheck2.Print.(pair print_val int)
    QCheck2.Gen.(pair gen_val (int_range (-70) 70))
    (fun (a, k) ->
      let open Sim.Value in
      let ia = iv a and s = Float.ldexp 1.0 k in
      let d = if a.fx >= 0.0 then 1.0 else -1.0 in
      agrees (~-:a) ~fx:(-.a.fx) ~fl:(-.a.fl) (Interval.neg ia)
      && agrees (abs a) ~fx:(Float.abs a.fx) ~fl:(Float.abs a.fl)
           (Interval.abs ia)
      && agrees (shift_left a k) ~fx:(a.fx *. s) ~fl:(a.fl *. s)
           (Interval.shift_left ia k)
      && agrees (shift_right a k) ~fx:(a.fx /. s) ~fl:(a.fl /. s)
           (Interval.shift_left ia (-k))
      && agrees (sign a) ~fx:d ~fl:d (Interval.make (-1.0) 1.0))

let prop_cast_matches_interval =
  QCheck2.Test.make ~name:"flat cast = quantize + Interval.clamp" ~count:2000
    ~print:QCheck2.Print.(triple print_val int bool)
    QCheck2.Gen.(triple gen_val (int_range 2 20) bool)
    (fun (a, n, saturate) ->
      let dtq =
        Fixpt.Dtype.make "q" ~n ~f:(n / 2)
          ~overflow:
            (if saturate then Fixpt.Overflow_mode.Saturate
             else Fixpt.Overflow_mode.Wrap)
          ()
      in
      let lo, hi = Fixpt.Dtype.range dtq in
      let ia = Sim.Value.iv a in
      agrees (cast dtq a) ~fx:(Fixpt.Quantize.cast dtq a.Sim.Value.fx)
        ~fl:a.Sim.Value.fl
        (if saturate then Interval.clamp ~into:(Interval.make lo hi) ia else ia))

let prop_range_round_trip =
  QCheck2.Test.make ~name:"with_range/iv round trip" ~count:1000
    ~print:Interval.to_string gen_iv (fun iv ->
      same_iv (Sim.Value.iv (Sim.Value.with_range (cst 0.25) iv)) iv)

let test_empty_round_trip () =
  let e = Sim.Value.with_range (cst 0.5) Interval.empty in
  check bool_t "empty reads back empty" true
    (Interval.is_empty (Sim.Value.iv e));
  check bool_t "fx kept" true (Sim.Value.fx e = 0.5);
  (* an operator on an empty operand propagates nothing *)
  check bool_t "empty + x is empty" true
    (Interval.is_empty (Sim.Value.iv (e +: cst 1.0)));
  check bool_t "select joins an empty side away" true
    (Interval.equal (Sim.Value.iv (select true e (cst 2.0)))
       (Interval.of_point 2.0))

let suite =
  ( "value-ops",
    [
      Alcotest.test_case "const" `Quick test_const;
      Alcotest.test_case "add components" `Quick test_add_components;
      Alcotest.test_case "mul components" `Quick test_mul_components;
      Alcotest.test_case "error tracking" `Quick test_error_tracks_difference;
      Alcotest.test_case "relational on fixed" `Quick
        test_relational_on_fixed;
      Alcotest.test_case "select joins ranges" `Quick
        test_select_joins_ranges;
      Alcotest.test_case "sign slicer" `Quick test_sign_slicer;
      Alcotest.test_case "shift" `Quick test_shift;
      Alcotest.test_case "abs/min/max" `Quick test_abs_min_max;
      Alcotest.test_case "cast quantizes fx only" `Quick
        test_cast_quantizes_fx_only;
      Alcotest.test_case "saturating cast clamps range" `Quick
        test_cast_saturating_clamps_range;
      Alcotest.test_case "empty range round trip" `Quick test_empty_round_trip;
      Test_support.Qseed.to_alcotest prop_ops_keep_membership;
      Test_support.Qseed.to_alcotest prop_fl_membership;
      Test_support.Qseed.to_alcotest prop_binary_ops_match_interval;
      Test_support.Qseed.to_alcotest prop_unary_ops_match_interval;
      Test_support.Qseed.to_alcotest prop_cast_matches_interval;
      Test_support.Qseed.to_alcotest prop_range_round_trip;
    ] )
