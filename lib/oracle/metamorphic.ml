(* Metamorphic invariants over the standard workloads: relations that
   must hold between the statistic monitor, the propagated ranges, the
   analytical ranges, the error monitor and the SQNR estimators. *)

type failure = {
  workload : string;
  invariant : string;
  subject : string;
  detail : string;
}

type report = { workloads : string list; checked : int; failures : failure list }

let empty = { workloads = []; checked = 0; failures = [] }

let merge a b =
  {
    workloads = a.workloads @ b.workloads;
    checked = a.checked + b.checked;
    failures = a.failures @ b.failures;
  }

(* mutable accumulator for one workload's checks *)
type ctx = {
  wname : string;
  mutable n : int;
  mutable fails : failure list;
}

let check ctx ~invariant ~subject ok detail =
  ctx.n <- ctx.n + 1;
  if not ok then
    ctx.fails <-
      { workload = ctx.wname; invariant; subject; detail = detail () }
      :: ctx.fails

let pair_subset ~tol (slo, shi) (plo, phi) =
  slo >= plo -. tol && shi <= phi +. tol

let pp_pair ppf (lo, hi) = Format.fprintf ppf "[%h, %h]" lo hi

let str f = Format.asprintf "%a" f ()

(* --- the per-signal invariants ----------------------------------------- *)

let check_overflows ctx s =
  check ctx ~invariant:"no-overflow" ~subject:(Sim.Signal.name s)
    (Sim.Signal.overflows s = 0)
    (fun () -> Printf.sprintf "%d overflow event(s)" (Sim.Signal.overflows s))

let check_stat_in_prop ctx ~tol s =
  match Sim.Signal.stat_range s with
  | None -> ()
  | Some stat ->
      let name = Sim.Signal.name s in
      (match Sim.Signal.prop_range s with
      | None ->
          check ctx ~invariant:"stat-in-prop" ~subject:name false (fun () ->
              "statistic range exists but propagated range is empty")
      | Some prop ->
          check ctx ~invariant:"stat-in-prop" ~subject:name
            (pair_subset ~tol stat prop)
            (fun () ->
              str (fun ppf () ->
                  Format.fprintf ppf "stat %a not within prop %a (tol %h)"
                    pp_pair stat pp_pair prop tol)))

let check_against_analytical ctx ~tol (ana : Sfg.Range_analysis.result) s =
  let name = Sim.Signal.name s in
  match Sfg.Range_analysis.range_of ana name with
  | None -> () (* no same-named graph node *)
  | Some _ when List.mem name ana.Sfg.Range_analysis.exploded -> ()
  | Some iv when Interval.is_exploded iv || Interval.is_empty iv -> ()
  | Some iv ->
      let alo = Interval.lo iv and ahi = Interval.hi iv in
      (* the propagated range seeds not-yet-assigned typed signals from
         their declared type range (a sound prior the graph does not
         have), so a typed signal's propagation is only bounded by the
         hull of the two *)
      let allowed =
        match Sim.Signal.dtype s with
        | Some dt ->
            let lo, hi = Fixpt.Dtype.range dt in
            Interval.join iv (Interval.make lo hi)
        | None -> iv
      in
      let plo = Interval.lo allowed and phi = Interval.hi allowed in
      (match Sim.Signal.stat_range s with
      | None -> ()
      | Some stat ->
          check ctx ~invariant:"stat-in-analytical" ~subject:name
            (pair_subset ~tol stat (alo, ahi))
            (fun () ->
              str (fun ppf () ->
                  Format.fprintf ppf
                    "stat %a not within analytical %a (tol %h)" pp_pair stat
                    pp_pair (alo, ahi) tol)));
      (match Sim.Signal.prop_range s with
      | None -> ()
      | Some prop ->
          check ctx ~invariant:"prop-in-analytical" ~subject:name
            (pair_subset ~tol prop (plo, phi))
            (fun () ->
              str (fun ppf () ->
                  Format.fprintf ppf
                    "prop %a not within analytical+type %a (tol %h)" pp_pair
                    prop pp_pair (plo, phi) tol)))

let check_idempotence ctx s =
  match Sim.Signal.dtype s with
  | None -> ()
  | Some dt ->
      let name = Sim.Signal.name s in
      let fx = Sim.Signal.peek_fx s in
      if Float.is_nan fx then ()
      else begin
        let impl = (Fixpt.Quantize.quantize dt fx).Fixpt.Quantize.value in
        check ctx ~invariant:"quantize-idempotent" ~subject:name (impl = fx)
          (fun () ->
            Printf.sprintf "impl cast moved committed value %h to %h" fx impl);
        let spec = Quantize_spec.cast dt fx in
        check ctx ~invariant:"spec-cast-idempotent" ~subject:name (spec = fx)
          (fun () ->
            Printf.sprintf "spec cast moved committed value %h to %h" fx spec)
      end

let check_produced_error ctx s =
  let name = Sim.Signal.name s in
  let err = Sim.Signal.err_stats s in
  if Stats.Err_stats.count err = 0 then ()
  else
    let maxc = Stats.Running.max_abs (Stats.Err_stats.consumed err) in
    let maxp = Stats.Running.max_abs (Stats.Err_stats.produced err) in
    match Sim.Signal.dtype s with
    | None ->
        (* no cast, no error() overruling: produced ≡ consumed *)
        if Sim.Signal.error_injected s = None then
          check ctx ~invariant:"produced-eq-consumed" ~subject:name
            (maxp = maxc)
            (fun () -> Printf.sprintf "max|ep|=%h but max|ec|=%h" maxp maxc)
    | Some dt ->
        let k =
          match Fixpt.Dtype.round dt with
          | Fixpt.Round_mode.Round -> 0.5
          | Fixpt.Round_mode.Floor -> 1.0
        in
        let bound = maxc +. (k *. Fixpt.Dtype.step dt) in
        check ctx ~invariant:"produced-error-bound" ~subject:name
          (maxp <= bound)
          (fun () ->
            Printf.sprintf "max|ep|=%h exceeds max|ec| + k*step = %h" maxp
              bound)

(* --- the probe-level invariants ---------------------------------------- *)

let check_divergence ctx (b : Workloads.built) =
  match b.Workloads.divergence_bound with
  | None -> ()
  | Some bound ->
      let d = b.Workloads.max_divergence () in
      check ctx ~invariant:"divergence-bound" ~subject:b.Workloads.probe
        (d <= bound)
        (fun () -> Printf.sprintf "max |fx - fl| = %h exceeds bound %h" d bound)

let check_sqnr_prediction ctx (b : Workloads.built) =
  match b.Workloads.predicted_sqnr_db with
  | None -> ()
  | Some predict ->
      if Stats.Sqnr.count b.Workloads.sqnr = 0 then ()
      else
        let measured = Stats.Sqnr.db b.Workloads.sqnr in
        let predicted = predict () in
        if Float.is_finite measured && Float.is_finite predicted then
          check ctx ~invariant:"sqnr-prediction" ~subject:b.Workloads.probe
            (Float.abs (measured -. predicted)
            <= b.Workloads.sqnr_tolerance_db)
            (fun () ->
              Printf.sprintf
                "measured %.2f dB vs predicted %.2f dB (tolerance %.1f dB)"
                measured predicted b.Workloads.sqnr_tolerance_db)

(* The flow's per-signal SQNR estimate (value statistics vs produced
   error statistics) must agree with the directly measured probe SQNR —
   both are gathered over the very same run. *)
let check_sqnr_flow ctx (b : Workloads.built) =
  match b.Workloads.design with
  | None -> ()
  | Some _ -> (
      let probe = Sim.Env.find_exn b.Workloads.env b.Workloads.probe in
      match Refine.Flow.sqnr_db probe with
      | None -> ()
      | Some flow_db ->
          if Stats.Sqnr.count b.Workloads.sqnr = 0 then ()
          else
            let measured = Stats.Sqnr.db b.Workloads.sqnr in
            if Float.is_finite measured && Float.is_finite flow_db then
              check ctx ~invariant:"sqnr-flow-consistency"
                ~subject:b.Workloads.probe
                (Float.abs (measured -. flow_db) <= 3.0)
                (fun () ->
                  Printf.sprintf
                    "probe SQNR %.2f dB vs Flow.sqnr_db %.2f dB (tolerance \
                     3.0 dB)"
                    measured flow_db))

(* --- driver ------------------------------------------------------------ *)

let check_built (w : Workloads.t) (b : Workloads.built) =
  let ctx = { wname = w.Workloads.name; n = 0; fails = [] } in
  let signals = Sim.Env.signals b.Workloads.env in
  let tol = b.Workloads.stat_tolerance in
  List.iter
    (fun s ->
      check_overflows ctx s;
      check_stat_in_prop ctx ~tol s;
      check_idempotence ctx s;
      check_produced_error ctx s)
    signals;
  (match b.Workloads.graph with
  | None -> ()
  | Some g ->
      let ana = Sfg.Range_analysis.run g in
      List.iter (fun s -> check_against_analytical ctx ~tol ana s) signals);
  check_divergence ctx b;
  check_sqnr_prediction ctx b;
  check_sqnr_flow ctx b;
  {
    workloads = [ w.Workloads.name ];
    checked = ctx.n;
    failures = List.rev ctx.fails;
  }

let run_workload (w : Workloads.t) =
  let b = w.Workloads.build () in
  b.Workloads.run ();
  check_built w b

let run_all () =
  List.fold_left (fun acc w -> merge acc (run_workload w)) empty Workloads.all

(* One summary check, then one failing check per failure. *)
let checks r =
  {
    Check.name = "invariants";
    ok = r.checked > 0 && r.failures = [];
    detail =
      Printf.sprintf "%d invariant checks over [%s]: %d failure(s)" r.checked
        (String.concat "; " r.workloads)
        (List.length r.failures);
  }
  :: List.map
       (fun f ->
         {
           Check.name = Printf.sprintf "%s/%s" f.workload f.invariant;
           ok = false;
           detail = Printf.sprintf "%s: %s" f.subject f.detail;
         })
       r.failures
