(** The scenario registry: the example designs, each declared once.

    The paper's flow (§6.1) has the designer write a design's stimulus
    and its knowledge-based [range()]/[error()] annotations once; the
    MSB/LSB passes, re-simulation and the SQNR check all reuse that one
    description.  This module is that description for the 5-tap FIR,
    the LMS equalizer, the Gardner timing-recovery loop and the closed
    synchronizer: environment seed, stimulus, input type, knowledge
    ranges, probe and extract closure.  The conformance workloads, the
    sweep workloads, the [check] gates, the bench guard, the CLI
    subcommands and the bench harness all build from here.

    A builder's parameters are only the values its callers set
    differently (run length, stimulus seed, detector, output recording,
    and the ablation knobs of the bench harness).  Every build is fresh
    (its own {!Sim.Env.t}) and deterministic. *)

type 'block t = {
  env : Sim.Env.t;
  block : 'block;  (** the design's block handle *)
  probe : string;  (** the conformance probe signal *)
  cycles : int;  (** clock cycles of one full run *)
  step : unit -> unit;  (** one clock cycle of the design body *)
  design : Refine.Flow.design;
      (** [reset] rewinds the environment, the stimulus and every
          channel; [run] clocks [step] for [cycles] *)
  reseed : int -> unit;
      (** stimulus generator seed the next [design.reset] rewinds to
          (a channel stimulus regenerates only when the seed changed) *)
  sent : unit -> float array;
      (** the transmitted symbols of the current stimulus ([[||]] for
          the FIR's uniform source) *)
  output : Sim.Channel.t;
      (** the block's output channel (never written by the FIR) *)
  input_range : float;  (** the input's knowledge range is [±input_range] *)
  extract : ?outputs:string list -> unit -> Sfg.Graph.t;
      (** {!Sim.Extract.graph} of one [step]; advances the design by one
          cycle *)
}

(** ["fir"; "lms"; "timing"; "sync"]. *)
val names : string list

(** {1 The 5-tap FIR} *)

val fir_coefs : float array

(** [Uniform]: seeded uniform ±1 samples, the sweep's stimulus, whose
    generator seed {!reseed} sets; [Channel]: ISI+AWGN symbols through
    an input channel, the bench harness's. *)
type fir_source = Uniform | Channel

(** The first [n] samples of the [Uniform] source at generator [seed] —
    the stream a [reseed seed; design.reset ()] run feeds [x]. *)
val uniform_samples : seed:int -> int -> float array

(** [x] (range ±1.2, untyped unless [typed_input], then [T<8,6>]) through
    the {!fir_coefs} direct-form filter into [out] over [n] cycles
    (default 512, [Uniform]); probe [out]. *)
val fir :
  ?n:int ->
  ?source:fir_source ->
  ?typed_input:bool ->
  unit ->
  Dsp.Fir.t t

(** {1 The LMS equalizer} *)

(** The paper's motivational example on ISI+AWGN binary PAM
    ([n_symbols] default 4000, stimulus [seed] default 2024,
    [noise_sigma] default 0.02), input [T_input<7,5,sat>] unless
    [typed_input] is false, range ±1.5; probe [w]. *)
val lms :
  ?n_symbols:int ->
  ?seed:int ->
  ?noise_sigma:float ->
  ?steered:bool ->
  ?typed_input:bool ->
  ?record:bool ->
  unit ->
  Dsp.Lms_equalizer.t t

(** {1 The Gardner timing-recovery loop} *)

(** PAM at 2 samples/symbol with a 0.3 timing offset ([n_symbols]
    default 4000, [seed] default 99, [noise_sigma] default 0.01), input
    [T_input<10,8,sat>] ([input_bits] overrides), range ±1.6, and —
    unless [knowledge_ranges] is false — the paper's five
    knowledge-based ranges on [nco_mu], [lf_lferr], [ted_err], [ip_out]
    and [out]; probe [out]. *)
val timing :
  ?n_symbols:int ->
  ?seed:int ->
  ?noise_sigma:float ->
  ?input_bits:int * int ->
  ?knowledge_ranges:bool ->
  ?kp:float ->
  ?ki:float ->
  ?record:bool ->
  unit ->
  Dsp.Timing_recovery.t t

(** {1 The closed synchronizer} *)

(** The closed symbol-timing loop on drifting-τ M-PAM ([n_symbols]
    default 4000, [seed] default 463, detector [ted] default ML-TED,
    [m] default 4), input [T_input<10,8,sat>], input range
    [±input_range] (default 1.6), and the knowledge
    ranges on [nco_mu], [lf_lferr], the detector error, [ip_out],
    [ip_dout] (ML-TED only) and [out]; probe [out].  [decisions], when
    given, receives the sliced symbols and is cleared on reset. *)
val sync :
  ?n_symbols:int ->
  ?seed:int ->
  ?ted:Dsp.Synchronizer.ted ->
  ?m:int ->
  ?input_range:float ->
  ?record:bool ->
  ?decisions:Sim.Channel.t ->
  unit ->
  Dsp.Synchronizer.t t

(** The §6.1 [error()] overrule of the NCO phase register [nco_eta],
    whose float/fixed error monitoring is meaningless under
    decision-steered feedback: annotates the signal (the annotation
    survives resets) and returns [config] with [auto_error_lsb = -8] and
    the matching [error_overrides]. *)
val overrule_nco_phase :
  Dsp.Synchronizer.t t -> Refine.Flow.config -> Refine.Flow.config
