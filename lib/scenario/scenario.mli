(** The scenario registry: the example designs, each declared once.

    The paper's flow (§6.1) has the designer write a design's stimulus
    and its knowledge-based [range()]/[error()] annotations once; the
    MSB/LSB passes, re-simulation and the SQNR check all reuse that one
    description.  This module is that description for the 5-tap FIR,
    the LMS equalizer, the Gardner timing-recovery loop, the closed
    synchronizer, the 12-stage CORDIC rotator, the DDC front end and
    the 16-point FFT: environment seed, stimulus, input type, knowledge
    ranges, probe and extract closure.  The conformance workloads, the
    sweep workloads, the [check] gates, the bench guard, the CLI
    subcommands, the bench harness and the examples all build from
    here.

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
      (** the transmitted symbols of the current stimulus (the FFT's
          input samples; [[||]] for the FIR's uniform source, the CORDIC
          and the DDC) *)
  output : Sim.Channel.t;
      (** the block's output channel (never written by the feed-forward
          designs: the FIR, the CORDIC, the DDC and the FFT) *)
  input_range : float;  (** the input's knowledge range is [±input_range] *)
  extract : ?outputs:string list -> unit -> Sfg.Graph.t;
      (** {!Sim.Extract.graph} of one [step]; advances the design by one
          cycle *)
}

(** ["fir"; "lms"; "timing"; "sync"; "cordic-12"; "ddc-frontend";
    "fft-16"] — distinct from the conformance workloads' [cordic] and
    [ddc] ([Oracle.Workloads]), which are other configurations. *)
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

(** {1 The 12-stage CORDIC rotator} *)

(** Rotation mode over [n] cycles (default 2000): [xin]/[yin]/[zin]
    typed [T_in<12,10>] with ranges ±1, ±1, ±1.6, driven by unit-circle
    vectors at φ uniform in [[0, 2π)] and z uniform in ±1.5 (stimulus
    [seed] default 4); probe [cor_x[12]]. *)
val cordic : ?n:int -> ?seed:int -> unit -> Dsp.Cordic.t t

(** {1 The DDC front end} *)

(** The CORDIC-mixer, order-2, R = 4 down-converter at fcw 5/32 over
    [n] input samples (default 4096): input [x] typed [T_if<10,8>],
    range ±1, a 0.7 carrier tone plus 0.05 uniform noise; NCO phase
    range [[0, 1]]; the [ddc_ci_*]/[ddc_cq_*] CIC registers pre-typed
    wrap/floor at the Hogenauer width (14 bits, 8 fractional); probe
    [ddc_i]. *)
val ddc : ?n:int -> unit -> Dsp.Ddc.t t

(** {1 The 16-point FFT} *)

(** [transforms] (default 200) radix-2 transforms, [scale] selecting
    ½-per-stage butterflies: real input [xr] typed [T_in<10,8>], range
    ±1, uniform ±1 samples ([sent] returns them, [xr] row-major); probe
    [fft_re4[0]]. *)
val fft : ?transforms:int -> scale:bool -> unit -> Dsp.Fft.t t
