(** Signal objects — the paper's [sig] and [reg] (§2.1, §2.3).

    A signal is declared either floating-point ([create env name]) or
    fixed-point ([create env name ~dtype]).  Arithmetic happens on
    {!Value.t} triples via {!Ops}; this module implements the two
    monitored end points:

    - {!value} (reading): counts the access and yields the triple
      [(fx, fl, propagated range)];
    - {!assign} (writing): performs the quantization cast of §2.2 and
      feeds all three monitors — statistic range, propagated range, and
      consumed/produced error statistics (§4).

    The two refinement annotations are {!range} (seed/override for range
    propagation; also the explosion-breaker for feedback signals) and
    {!error} (overrule the produced error of a diverging feedback signal
    with uniform noise, §4.2). *)

type t = Env.entry

let name (t : t) = t.Env.name
let dtype (t : t) = t.Env.dtype
let kind (t : t) = t.Env.kind

(** Declare a combinational signal ([sig]).  Floating-point unless
    [~dtype] is given. *)
let create env ?dtype name : t = Env.register env ~name ~kind:Env.Comb ~dtype

(** Declare a registered signal ([reg]): writes are committed by
    [Env.tick]. *)
let create_reg env ?dtype name : t =
  Env.register env ~name ~kind:Env.Registered ~dtype

(** Retype a signal (the refinement flow rewrites types between
    iterations).  Recompiles the cached quantizer. *)
let set_dtype (t : t) dt = Env.set_entry_dtype t (Some dt)

let clear_dtype (t : t) = Env.set_entry_dtype t None

(** [range t lo hi] — explicit range annotation.  Reads propagate exactly
    [[lo, hi]] regardless of what assignments accumulated; this is the
    §4.1 remedy for feedback-driven MSB explosion. *)
let range (t : t) lo hi = t.Env.explicit_range <- Some (Interval.make lo hi)

let clear_range (t : t) = t.Env.explicit_range <- None

(** [error t h] — overrule the produced difference error with a uniform
    random variable in [[-h, h]] (σ = h/√3): breaks float/fixed
    divergence on sensitive feedback signals (§4.2). *)
let error (t : t) h =
  if h < 0.0 then invalid_arg "Signal.error: negative half-width";
  t.Env.error_inject <- Some h

let clear_error (t : t) = t.Env.error_inject <- None

(* Saturating-type clamp of a propagated range, on unboxed endpoints —
   [Interval]'s clamp into [[min_v, max_v]]: an empty range ([lo > hi]) or
   one already inside is kept as is. *)
let[@inline] keeps (q : Fixpt.Quantize.compiled) lo hi =
  lo > hi || (lo >= q.Fixpt.Quantize.min_v && hi <= q.Fixpt.Quantize.max_v)

let[@inline] clamp_lo (q : Fixpt.Quantize.compiled) lo hi =
  if keeps q lo hi then lo
  else Float.min (Float.max lo q.Fixpt.Quantize.min_v) q.Fixpt.Quantize.max_v

let[@inline] clamp_hi (q : Fixpt.Quantize.compiled) lo hi =
  if keeps q lo hi then hi
  else Float.max (Float.min hi q.Fixpt.Quantize.max_v) q.Fixpt.Quantize.min_v

(* [Interval.observe]: grow a range by one value (NaN ignored; a value
   already inside keeps the range as is). *)
let[@inline] observe_lo lo hi x =
  if Float.is_nan x then lo
  else if lo > hi then x
  else if lo <= x && x <= hi then lo
  else Float.min lo x

let[@inline] observe_hi lo hi x =
  if Float.is_nan x then hi
  else if lo > hi then x
  else if lo <= x && x <= hi then hi
  else Float.max hi x

(** Read the signal as a simulation value (counts as an access).  The
    range it propagates (see DESIGN.md §"quasi-analytical"): the
    explicit annotation wins; otherwise the accumulated propagated
    range, defaulting to the declared type's range and then to the
    current value; a register read also covers the value it currently
    holds; a saturating type clamps the result (hardware saturation
    bounds the signal).  The endpoints are computed unboxed and land
    straight in the value record. *)
let value (t : t) : Value.t =
  t.Env.n_access <- t.Env.n_access + 1;
  let cur = t.Env.v in
  let base =
    match t.Env.explicit_range with
    | Some r -> r
    | None ->
        if Interval.is_empty t.Env.range_prop then (
          match t.Env.quant with
          | Some qz -> qz.Env.type_iv
          | None -> Interval.of_point cur.Env.fl)
        else t.Env.range_prop
  in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  (match base with
  | Interval.Range r ->
      lo := r.lo;
      hi := r.hi
  | Interval.Empty -> ());
  (* a register read must cover the value it currently holds: the
     initial contents (and a same-cycle staged write's staleness) are
     not in the assignment-accumulated range — the exact analogue of
     the analytical Delay transfer joining its init *)
  (match (t.Env.explicit_range, t.Env.kind) with
  | None, Env.Registered ->
      let l = observe_lo !lo !hi cur.Env.fx and h = observe_hi !lo !hi cur.Env.fx in
      let l' = observe_lo l h cur.Env.fl and h' = observe_hi l h cur.Env.fl in
      lo := l';
      hi := h'
  | _ -> ());
  (match t.Env.quant with
  | Some qz when qz.Env.q.Fixpt.Quantize.saturating ->
      let l = clamp_lo qz.Env.q !lo !hi and h = clamp_hi qz.Env.q !lo !hi in
      lo := l;
      hi := h
  | _ -> ());
  let r =
    { Value.fx = cur.Env.fx; fl = cur.Env.fl; lo = !lo; hi = !hi; node = -1.0 }
  in
  match Record.active () with
  | None -> r
  | Some rc -> Value.with_node r (Record.read rc t)

(** Current fixed-point value without monitoring (for probes/tests). *)
let peek_fx (t : t) = t.Env.v.Env.fx

let peek_fl (t : t) = t.Env.v.Env.fl

(* Finest LSB position (exponent of the lowest set mantissa bit) needed
   to represent [v] exactly; [max_int] for 0/non-finite (sentinel, so the
   per-assignment hot path allocates no option).  Works directly on the
   IEEE 754 bit pattern: a normal [v] is [(2^52 lor frac) * 2^(e-1075)],
   a subnormal is [frac * 2^-1074]; the mantissa fits a native [int], so
   stripping its trailing zero bits is a few untagged shifts. *)
let lsb_exponent v =
  if v = 0.0 || not (Float.is_finite v) then max_int
  else begin
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    let frac = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
    let m = if biased = 0 then frac else frac lor 0x10_0000_0000_0000 in
    let e = if biased = 0 then -1074 else biased - 1075 in
    let rec strip m tz = if m land 1 = 0 then strip (m lsr 1) (tz + 1) else tz in
    e + strip m 0
  end

(* Update the range monitors with the incoming ideal value ([fx_in] is
   [v.fx], boxed once by the caller) and range.  The propagated range is
   clamped (saturating type) and joined into [range_prop] on unboxed
   endpoints — [Interval]'s join semantics, allocating a new [Range]
   only when [range_prop] grows. *)
let monitor_range (t : t) (v : Value.t) fx_in =
  Stats.Running.add t.Env.range_stat fx_in;
  (let p = lsb_exponent fx_in in
   if p <> max_int then
     match t.Env.grid_lsb with
     | Some q when q <= p -> ()  (* already at least as fine: no update *)
     | _ -> t.Env.grid_lsb <- Some p);
  let lo = ref v.Value.lo and hi = ref v.Value.hi in
  (match t.Env.quant with
  | Some qz when qz.Env.q.Fixpt.Quantize.saturating ->
      let l = clamp_lo qz.Env.q !lo !hi and h = clamp_hi qz.Env.q !lo !hi in
      lo := l;
      hi := h
  | _ -> ());
  if not (!lo > !hi) then
    match t.Env.range_prop with
    | Interval.Empty -> t.Env.range_prop <- Interval.Range { lo = !lo; hi = !hi }
    | Interval.Range r ->
        if !lo >= r.lo && !hi <= r.hi then ()
        else if r.lo >= !lo && r.hi <= !hi then
          t.Env.range_prop <- Interval.Range { lo = !lo; hi = !hi }
        else
          t.Env.range_prop <-
            Interval.Range { lo = Float.min r.lo !lo; hi = Float.max r.hi !hi }

(* Quantize the incoming fixed value through the signal's compiled
   quantizer into its scratch's [value], recording overflow events.
   Uses [exec_into] (no outcome record, no boxed result). *)
let quantize_in (t : t) (qz : Env.quantizer) fx_in =
  let q = qz.Env.q and s = qz.Env.scratch in
  Fixpt.Quantize.exec_into q fx_in s;
  if s.Fixpt.Quantize.flag <> 0.0 then begin
    let raw = s.Fixpt.Quantize.raw in
    (* the sink sees the event before the policy may abort the run *)
    (let snk = Env.sink t.Env.env in
     if snk != Trace.Sink.null then
       snk.Trace.Sink.on_overflow ~id:t.Env.id ~time:(Env.time t.Env.env)
         ~raw ~saturating:q.Fixpt.Quantize.saturating);
    if q.Fixpt.Quantize.error_mode then Env.record_overflow t.Env.env t raw
    else begin
      t.Env.n_overflow <- t.Env.n_overflow + 1;
      t.Env.last_overflow <- Some raw
    end
  end

(** Assign a value to the signal (the paper's overloaded [=]): performs
    the quantization cast, runs all monitors, and — for registered
    signals — stages the result until the next [Env.tick]. *)
let assign (t : t) (v : Value.t) =
  t.Env.n_assign <- t.Env.n_assign + 1;
  (match Record.active () with
  | Some r -> Record.assign r t v
  | None -> ());
  (* the range monitor, the LSB grid and the quantizer each take the
     incoming fixed value as a boxed float: box it once, here, instead
     of once per call ([opaque_identity] keeps the compiler from
     unboxing the binding again) *)
  let fx_in = Sys.opaque_identity v.Value.fx in
  monitor_range t v fx_in;
  (* the stored value stays unboxed: a local float ref is a register *)
  let fx' = ref v.Value.fx in
  (match t.Env.quant with
  | None -> ()
  | Some qz ->
      quantize_in t qz fx_in;
      fx' := qz.Env.scratch.Fixpt.Quantize.value);
  (* fault-injection hook: disabled injection costs exactly this match —
     the transform (SEU bitflips, forced overflow, …) runs only when a
     plan armed the environment (see Fault.Inject) *)
  (match Env.injector t.Env.env with None -> () | Some f -> fx' := f t !fx');
  let fx' = !fx' in
  let fl' =
    match t.Env.error_inject with
    | Some h -> fx' +. Stats.Rng.uniform_sym (Env.rng t.Env.env) h
    | None -> v.Value.fl
  in
  Stats.Err_stats.record t.Env.err
    ~consumed:(v.Value.fl -. v.Value.fx)
    ~produced:(fl' -. fx');
  (* disabled tracing costs exactly this pointer compare: argument
     computation (and any allocation) happens only behind the guard *)
  (let snk = Env.sink t.Env.env in
   if snk != Trace.Sink.null then
     let quantized, rounded =
       match t.Env.quant with
       | Some qz -> (true, qz.Env.q.Fixpt.Quantize.round_nearest)
       | None -> (false, false)
     in
     snk.Trace.Sink.on_assign ~id:t.Env.id ~time:(Env.time t.Env.env)
       ~err:(fl' -. fx') ~quantized ~rounded);
  match t.Env.kind with
  | Env.Comb ->
      t.Env.v.Env.fx <- fx';
      t.Env.v.Env.fl <- fl'
  | Env.Registered ->
      t.Env.v.Env.next_fx <- fx';
      t.Env.v.Env.next_fl <- fl';
      Env.stage t.Env.env t

(** Force both simulation values directly (initialization — e.g. loading
    filter coefficients or setting a register's reset value before the
    run).  Monitors record the assignment; registered signals commit
    immediately (initial register contents, no clock involved). *)
let init (t : t) c =
  assign t (Value.const c);
  match t.Env.kind with
  | Env.Comb -> ()
  | Env.Registered ->
      t.Env.v.Env.fx <- t.Env.v.Env.next_fx;
      t.Env.v.Env.fl <- t.Env.v.Env.next_fl;
      t.Env.staged <- false

(* --- report accessors ------------------------------------------------ *)

let accesses (t : t) = t.Env.n_access
let assignments (t : t) = t.Env.n_assign
let overflows (t : t) = t.Env.n_overflow
let stat_range (t : t) = Stats.Running.range t.Env.range_stat
let prop_range (t : t) = Interval.bounds t.Env.range_prop
let explicit_range (t : t) = t.Env.explicit_range
let error_injected (t : t) = t.Env.error_inject
let err_stats (t : t) = t.Env.err
let range_stats (t : t) = t.Env.range_stat

(** Finest LSB position needed to represent every assigned value exactly
    ([None] if only zeros were assigned).  The exact-signal escape hatch
    of the LSB rules: a slicer output carrying ±1 needs LSB 0, whatever
    its error statistics say. *)
let grid_lsb (t : t) = t.Env.grid_lsb

(** The propagated range exploded (infinite or astronomically wide):
    the §4.1 failure mode requiring [range] or a saturating type. *)
let exploded (t : t) = Interval.is_exploded t.Env.range_prop

let pp ppf (t : t) =
  Format.fprintf ppf "%s%s" t.Env.name
    (match t.Env.dtype with
    | Some dt -> Fixpt.Dtype.to_string dt
    | None -> "<float>")
