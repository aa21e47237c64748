(** Sweep workloads — self-contained designs a sweep explores.

    A workload bundles everything the pool needs to evaluate candidates
    against a design: a factory for fresh simulation instances (each
    worker domain owns a private one), the probe signal to score, and
    the signal specs the generators assign wordlengths to.

    An {!instance} carries a baseline {!Sim.Env.snapshot} taken at
    construction; the pool restores it before every candidate so each
    evaluation starts from the identical untyped state — the foundation
    of the sweep's determinism guarantee. *)

type instance = {
  env : Sim.Env.t;
  design : Refine.Flow.design;
  baseline : Sim.Env.snapshot;  (** configuration right after build *)
  set_seed : int -> unit;
      (** stimulus seed for the next [design.reset]/[design.run] *)
  compiled : Refine.Eval.compiled_eval option;
      (** compiled-executor support ({!Refine.Eval.evaluate_compiled});
          [None] keeps every evaluation on the clock-true interpreter —
          the fault wrapper strips it, since its injector arms around
          [design.run] only *)
}

type t = {
  name : string;
  probe : string;  (** the signal SQNR/error metrics are read from *)
  specs : Candidate.spec list;  (** the signals the sweep retypes *)
  make_instance : unit -> instance;
      (** fresh private instance; must not share mutable state with any
          other instance (each worker domain owns exactly one) *)
}

(* --- the FIR workload ----------------------------------------------------- *)

(* int_bits budgets: x ∈ ±1.2 needs 2 bits (sign + one integer bit);
   the accumulator chain peaks at Σ|c|·max|x| = 1.0·1.2 so 3 bits keep
   saturation marginal rather than catastrophic. *)
let fir_specs =
  ({ Candidate.signal = "x"; int_bits = 2 }
   :: List.init 5 (fun i ->
          { Candidate.signal = Printf.sprintf "d[%d]" i; int_bits = 2 }))
  @ List.init 5 (fun i ->
        { Candidate.signal = Printf.sprintf "v[%d]" (i + 1); int_bits = 3 })
  @ [ { Candidate.signal = "out"; int_bits = 3 } ]

(* Each candidate's stimulus stream is a pure function of its stim_seed:
   generator seed [12 + 7919 * stim_seed]. *)
let fir_seed s = 12 + (7919 * s)

let fir ?(n = 512) () =
  let make_instance () =
    let sc = Scenario.fir ~n () in
    let baseline = Sim.Env.snapshot sc.Scenario.env in
    let compiled =
      Some
        {
          Refine.Eval.extract =
            (fun () -> sc.Scenario.extract ~outputs:[ "out" ] ());
          cycles = n;
          stimulus =
            (fun ~seed ->
              (* the stream the clock-true run would feed [x] *)
              let buf = Scenario.uniform_samples ~seed:(fir_seed seed) n in
              fun name step ->
                if String.equal name "x_in" then buf.(step) else 0.0);
        }
    in
    {
      env = sc.Scenario.env;
      design = sc.Scenario.design;
      baseline;
      set_seed = (fun s -> sc.Scenario.reseed (fir_seed s));
      compiled;
    }
  in
  { name = "fir"; probe = "out"; specs = fir_specs; make_instance }

(* --- the closed ML-TED synchronizer workload ------------------------------ *)

(* int_bits budgets: the drifting-tau M-PAM stimulus peaks under 2.0;
   the derivative matched filter swings up to ~4x the interpolant; the
   loop-filter signals are small by design and the NCO phase lives in
   [-W, 1). *)
let sync_specs =
  [
    { Candidate.signal = "in"; int_bits = 2 };
    { Candidate.signal = "ip_out"; int_bits = 2 };
    { Candidate.signal = "ip_dout"; int_bits = 3 };
    { Candidate.signal = "mlted_err"; int_bits = 3 };
    { Candidate.signal = "lf_integ"; int_bits = 1 };
    { Candidate.signal = "lf_lferr"; int_bits = 1 };
    { Candidate.signal = "nco_eta"; int_bits = 1 };
    { Candidate.signal = "nco_mu"; int_bits = 1 };
    { Candidate.signal = "out"; int_bits = 2 };
  ]

let sync_seed s = 31 + (7919 * s)

(* A small drifting-tau PAM-4 acquisition run per candidate, its
   stimulus regenerated per stim_seed — hence the input range of ±2.0
   rather than the fixed stimulus's ±1.6.  The feedback loop's
   OCaml-level control flow (strobe/hold, the sliced decision) is
   data-dependent, so a frozen one-cycle extraction is not clock-true
   for it: [compiled] stays [None] and every candidate is evaluated on
   the clock-true interpreter (same reasoning as the fault wrapper
   stripping compiled support). *)
let sync ?(n_symbols = 160) () =
  let make_instance () =
    let sc = Scenario.sync ~n_symbols ~seed:(sync_seed 0) ~input_range:2.0 () in
    let baseline = Sim.Env.snapshot sc.Scenario.env in
    {
      env = sc.Scenario.env;
      design = sc.Scenario.design;
      baseline;
      set_seed = (fun s -> sc.Scenario.reseed (sync_seed s));
      compiled = None;
    }
  in
  { name = "sync"; probe = "out"; specs = sync_specs; make_instance }

let all () = [ fir (); sync () ]

let find name = List.find_opt (fun w -> w.name = name) (all ())
