(** Automatic signal-flowgraph extraction from a simulation step.

    The paper's third MSB technique (§4.1 "Analytical") builds a signal
    flowgraph out of the source description and analyzes the dataflow
    statically.  In the original C++ environment that required a parser;
    here the overloaded operators themselves do it: during a recording
    session every operation additionally creates an {!Sfg.Node} whose
    inputs are the provenance ids carried on the operand {!Value}s, and
    every signal assignment names (and, for typed/annotated signals,
    quantizes or saturates) the expression node.  Executing one clock
    cycle of the design's step function under {!session} therefore
    yields the complete flowgraph — ready for {!Sfg.Range_analysis},
    {!Sfg.Noise_analysis}, {!Sfg.Wordlength} or {!Vhdl.Of_sfg}.

    Semantics and limitations (all shared with any trace-based
    extraction):
    - the recorded structure is the {e executed} one: OCaml-level [if]s
      contribute only the taken branch ({!Ops.select} and {!Ops.sign}
      record both); loops are unrolled as executed;
    - registered signals become [Delay] nodes, so feedback loops close
      correctly even though the recording is a single forward pass;
    - a combinational signal read before any recorded assignment is
      represented by its current value as a [Const] (coefficients) —
      or by its declared range as an [Input] if it was assigned external
      data during the recorded step. *)

type t = {
  graph : Sfg.Graph.t;
  (* signal id -> node currently driving the signal *)
  drivers : (int, int) Hashtbl.t;
  (* signal id -> delay node (registered signals) *)
  delays : (int, int) Hashtbl.t;
  mutable fresh : int;  (** counter for synthetic op-node names *)
}

(* Domain-local: parallel sweep workers each extract (and therefore
   record) inside their own domain — a shared ref would cross-record
   their graphs into each other. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get current

let start () =
  let t =
    {
      graph = Sfg.Graph.create ();
      drivers = Hashtbl.create 64;
      delays = Hashtbl.create 16;
      fresh = 0;
    }
  in
  Domain.DLS.set current (Some t);
  t

let stop () = Domain.DLS.set current None

let synth_name t base =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "%s~%d" base t.fresh

(** Node for an operand value: its provenance if it has one, otherwise a
    constant of its fixed value (literals and detached externals). *)
let operand t (v : Value.t) =
  if v.Value.node >= 0.0 then Float.to_int v.Value.node
  else
    Sfg.Graph.const t.graph ~name:(synth_name t "lit") v.Value.fx

(** Record a primitive operation over already-recorded operands. *)
let op t op_kind (args : Value.t list) =
  let inputs = List.map (operand t) args in
  Sfg.Graph.fresh t.graph
    ~name:(synth_name t (Sfg.Node.op_name op_kind))
    ~op:op_kind ~inputs

(* The graph node a read of signal [e] refers to, creating delay/const
   placeholders on first use.  Reads of a [range()]-annotated signal go
   through a Saturate node, mirroring the range a read propagates. *)
let read t (e : Env.entry) =
  match Hashtbl.find_opt t.drivers e.Env.id with
  | Some n -> n
  | None ->
      let g = t.graph in
      let base =
        match e.Env.kind with
        | Env.Registered ->
            let d = Sfg.Graph.delay g e.Env.name in
            Hashtbl.replace t.delays e.Env.id d;
            d
        | Env.Comb ->
            (* read before any recorded assignment: a constant loaded at
               initialization (coefficients) *)
            Sfg.Graph.const g ~name:e.Env.name e.Env.v.Env.fx
      in
      let wrapped =
        match e.Env.explicit_range with
        | Some rr ->
            Sfg.Graph.fresh g
              ~name:(e.Env.name ^ ".range")
              ~op:(Sfg.Node.Saturate rr) ~inputs:[ base ]
        | None -> base
      in
      Hashtbl.replace t.drivers e.Env.id wrapped;
      wrapped

(* An assignment extends the graph with the signal's
   quantization/saturation pipeline and names the result — comb signals
   get an Alias node, registered signals a Delay (closing feedback). *)
let assign t (e : Env.entry) (v : Value.t) =
  let g = t.graph in
  let src =
    if v.Value.node >= 0.0 then Float.to_int v.Value.node
    else
      (* external data entering the design through this signal; its
         declared range is the annotation, the type range, or — lacking
         both — the incoming value itself (a literal constant) *)
      let declared =
        match e.Env.explicit_range with
        | Some r -> r
        | None -> (
            match e.Env.dtype with
            | Some dt ->
                let lo, hi = Fixpt.Dtype.range dt in
                Interval.make lo hi
            | None -> Value.iv v)
      in
      Sfg.Graph.fresh g
        ~name:(e.Env.name ^ "_in")
        ~op:(Sfg.Node.Input declared) ~inputs:[]
  in
  let src =
    match e.Env.dtype with
    | Some dt -> Sfg.Graph.quantize g ~name:(e.Env.name ^ "_q") dt src
    | None -> src
  in
  let src =
    match e.Env.explicit_range with
    | Some rr ->
        Sfg.Graph.fresh g
          ~name:(e.Env.name ^ "_sat")
          ~op:(Sfg.Node.Saturate rr) ~inputs:[ src ]
    | None -> src
  in
  match e.Env.kind with
  | Env.Comb ->
      let a = Sfg.Graph.alias g ~name:e.Env.name src in
      Hashtbl.replace t.drivers e.Env.id a
  | Env.Registered -> (
      match Hashtbl.find_opt t.delays e.Env.id with
      | Some d -> (
          try Sfg.Graph.connect_delay g d src
          with Invalid_argument _ ->
            (* already connected (second write this cycle): keep first *)
            ())
      | None ->
          let d = Sfg.Graph.delay_of g e.Env.name src in
          Hashtbl.replace t.delays e.Env.id d;
          Hashtbl.replace t.drivers e.Env.id d)
