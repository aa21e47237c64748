(** Recording sessions for automatic signal-flowgraph extraction (§4.1
    "Analytical") — see {!Extract} for the one-call API.

    While a session is active, the overloaded operators ({!Ops}) and the
    signal read/write paths ({!Signal}, through {!read} and {!assign})
    add nodes to [graph]; the [drivers]/[delays] tables map signal ids
    to the nodes currently representing them. *)

type t = {
  graph : Sfg.Graph.t;
  drivers : (int, int) Hashtbl.t;  (** signal id → driving node *)
  delays : (int, int) Hashtbl.t;  (** signal id → delay node (registers) *)
  mutable fresh : int;
}

(** The recorder currently capturing, if any.  The session is
    domain-local: at most one per domain, and parallel sweep workers
    can extract concurrently without cross-recording each other's
    graphs. *)
val active : unit -> t option

(** Begin a session (replacing any active one). *)
val start : unit -> t

(** Stop capturing (no-op when idle). *)
val stop : unit -> unit

(** Fresh synthetic node name ["base~k"]. *)
val synth_name : t -> string -> string

(** Node for an operand value: its provenance if present, else a
    [Const] of its fixed value. *)
val operand : t -> Value.t -> int

(** Record a primitive operation over already-recorded operands. *)
val op : t -> Sfg.Node.op -> Value.t list -> int

(** The node a read of the signal refers to (a delay, a constant or the
    current driver; wrapped in a [Saturate] for a [range()]-annotated
    signal), created on first use. *)
val read : t -> Env.entry -> int

(** Record an assignment of the value to the signal: its quantize and
    saturate nodes, then an [Alias] (combinational) or the [Delay]
    input (registered). *)
val assign : t -> Env.entry -> Value.t -> unit
