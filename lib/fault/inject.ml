(** Executing a {!Plan}: arming environments and sweep workloads with
    deterministic fault injection.

    Two attachment points:

    - {e assignment site} ({!arm_env} / {!injector}): the
      {!Sim.Env.set_injector} hook transforms post-quantization values —
      SEU bitflips on the stored code, forced overflow events — at the
      point where the paper quantizes a value;
    - {e sweep} ({!workload}): a {!Sweep.Workload.t} is wrapped so each
      candidate evaluation runs under the plan, keyed by the candidate's
      stimulus seed — the fault set per candidate is a pure function of
      [(plan, candidate)], independent of [--jobs].

    Every injected fault emits an [on_fault] sink event with a stable
    kind tag, so {!Trace.Counters} tallies faults per signal. *)

(* --- SEU bitflip -------------------------------------------------------- *)

(** [flip_bit dt ~bit v] — flip bit [bit] (0 = LSB) of [v]'s [n]-bit
    integer code under [dt] and re-wrap into the code window: the
    single-event-upset model for a fixed-point register of the ASIC
    target.  Identity for wordlengths beyond the exact int64 grid.
    Raises [Invalid_argument] when [bit] is outside [0, n). *)
let flip_bit dt ~bit v =
  let q = Fixpt.Quantize.of_dtype dt in
  if bit < 0 || bit >= Fixpt.Dtype.n dt then
    invalid_arg "Fault.Inject.flip_bit: bit out of range";
  if not q.Fixpt.Quantize.int64_path then v
  else
    let m = Int64.of_float (Float.round (v /. q.Fixpt.Quantize.step)) in
    let m = Int64.logxor m (Int64.shift_left 1L bit) in
    let m = Fixpt.Quantize.wrap_code (Fixpt.Dtype.fmt dt) m in
    Int64.to_float m *. q.Fixpt.Quantize.step

let apply_bitflip plan ~tag (e : Sim.Env.entry) fx =
  match e.Sim.Env.quant with
  | None -> fx  (* SEUs model fixed-point registers; floats are exempt *)
  | Some qz ->
      let q = qz.Sim.Env.q in
      if not q.Fixpt.Quantize.int64_path then fx
      else begin
        let dt = q.Fixpt.Quantize.cdt in
        let n = Fixpt.Dtype.n dt in
        let env = e.Sim.Env.env in
        let time = Sim.Env.time env in
        let key = e.Sim.Env.name ^ "/" ^ tag in
        let u = Plan.draw plan ~stream:"bitflip-bit" ~key ~index:time in
        let bit = min (n - 1) (int_of_float (u *. float_of_int n)) in
        (let snk = Sim.Env.sink env in
         if snk != Trace.Sink.null then
           snk.Trace.Sink.on_fault ~id:e.Sim.Env.id ~time ~kind:"bitflip");
        flip_bit dt ~bit fx
      end

(* --- forced overflow ---------------------------------------------------- *)

(* What a forced overflow holds on an untyped (floating-point) signal,
   which has no saturation bound of its own. *)
let untyped_overflow_mag = 1e30

(* Pretend the quantizer overflowed: emit the fault event, push the
   out-of-range raw value through the policy (count / warn / raise /
   collect), and hand back the saturation bound — what the hardware
   would hold after the event. *)
let apply_force_overflow plan ~tag (e : Sim.Env.entry) fx =
  let env = e.Sim.Env.env in
  let time = Sim.Env.time env in
  let key = e.Sim.Env.name ^ "/" ^ tag in
  let above =
    Plan.draw plan ~stream:"force-overflow-dir" ~key ~index:time < 0.5
  in
  let raw, held =
    match e.Sim.Env.quant with
    | Some qz ->
        let q = qz.Sim.Env.q in
        if above then
          ((2.0 *. Float.abs q.Fixpt.Quantize.max_v) +. 1.0,
           q.Fixpt.Quantize.max_v)
        else
          (-.((2.0 *. Float.abs q.Fixpt.Quantize.min_v) +. 1.0),
           q.Fixpt.Quantize.min_v)
    | None ->
        let m = untyped_overflow_mag in
        if above then (m, m) else (-.m, -.m)
  in
  ignore fx;
  (let snk = Sim.Env.sink env in
   if snk != Trace.Sink.null then
     snk.Trace.Sink.on_fault ~id:e.Sim.Env.id ~time ~kind:"force-overflow");
  (* the policy decides what a forced overflow does: Count/Warn keep
     going, Raise aborts, Collect records a fault_record *)
  Sim.Env.record_overflow env e raw;
  held

(* --- the injector hook -------------------------------------------------- *)

(** The {!Sim.Env.set_injector} closure for a plan under discriminator
    [tag] ("" standalone; the candidate stimulus seed in a sweep).
    Pure in [(entry, time)] — replayable anywhere. *)
let injector plan ~tag =
  fun (e : Sim.Env.entry) fx ->
    let time = Sim.Env.time e.Sim.Env.env in
    match Plan.assign_faults plan ~tag ~signal:e.Sim.Env.name ~time with
    | [] -> fx
    | kinds ->
        List.fold_left
          (fun fx kind ->
            match kind with
            | "bitflip" -> apply_bitflip plan ~tag e fx
            | "force-overflow" -> apply_force_overflow plan ~tag e fx
            | _ -> fx)
          fx kinds

let apply_policy plan env =
  match plan.Plan.on_overflow with
  | Plan.Keep -> ()
  | Plan.Force_raise -> Sim.Env.set_policy env Sim.Env.Raise
  | Plan.Force_collect -> Sim.Env.set_policy env Sim.Env.Collect

(** Arm an environment: apply the plan's overflow-policy override and
    install the assignment-site injector. *)
let arm_env plan ?(tag = "") env =
  apply_policy plan env;
  Sim.Env.set_injector env (injector plan ~tag)

(* --- sweep workloads ---------------------------------------------------- *)

(** Wrap a sweep workload so every candidate evaluation runs under the
    plan.  Instances get the plan's policy override baked into their
    baseline snapshot (so each restore reapplies it), and the injector
    is armed only around [design.run], keyed by the candidate's
    stimulus seed — initialization replays (baseline restores, reset
    hooks) are injection-free, so the fault set of a candidate is a
    pure function of [(plan, candidate)] and never of which worker ran
    what before it.  Raises [Invalid_argument] naming the first plan
    target that is not a signal of the workload — a misspelt target
    would otherwise run a silently fault-free sweep. *)
let workload plan (w : Sweep.Workload.t) =
  (if plan.Plan.targets <> [] then
     let env = (w.Sweep.Workload.make_instance ()).Sweep.Workload.env in
     match
       List.find_opt (fun s -> Sim.Env.find env s = None) plan.Plan.targets
     with
     | Some s ->
         invalid_arg
           (Printf.sprintf "Fault.Inject.workload: %S is not a signal of %s" s
              w.Sweep.Workload.name)
     | None -> ());
  {
    w with
    Sweep.Workload.make_instance =
      (fun () ->
        let inst = w.Sweep.Workload.make_instance () in
        let env = inst.Sweep.Workload.env in
        apply_policy plan env;
        let baseline = Sim.Env.snapshot env in
        let cur_tag = ref "" in
        let orig_run = inst.Sweep.Workload.design.Refine.Flow.run in
        let design =
          {
            inst.Sweep.Workload.design with
            Refine.Flow.run =
              (fun () ->
                Sim.Env.set_injector env (injector plan ~tag:!cur_tag);
                Fun.protect
                  ~finally:(fun () -> Sim.Env.clear_injector env)
                  orig_run);
          }
        in
        {
          inst with
          Sweep.Workload.design;
          baseline;
          set_seed =
            (fun s ->
              cur_tag := string_of_int s;
              inst.Sweep.Workload.set_seed s);
          (* the injector arms around [design.run] only: the compiled
             path skips that closure entirely, so a faulted workload
             must stay on the clock-true interpreter *)
          compiled = None;
        });
  }
