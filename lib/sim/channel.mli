(** Communication channels — the paper's [get]/[put] primitives: FIFOs
    of samples between processors, optionally backed by a stimulus
    generator (source) or recording every write (sink).  A channel
    delivers its stimulus unaltered: faults strike at the assignment
    site instead (see {!Fault.Inject}). *)

type t

(** Raised by {!get} on an unproduced, unbacked channel.  A [Printexc]
    printer is registered, so an uncaught raise names the channel. *)
exception Empty of string

(** [record:true] keeps every consumed sample for scoring. *)
val create : ?record:bool -> string -> t

(** Source channel: [get] returns [f 0], [f 1], … — the generator is
    fixed for the channel's lifetime. *)
val of_fun : string -> (int -> float) -> t

(** The channel's declared name. *)
val name : t -> string

(** Consume the next sample (pulls from the producer if the FIFO is
    empty); raises {!Empty} on an unbacked empty channel. *)
val get : t -> float

(** Append one sample to the queue. *)
val put : t -> float -> unit

(** Samples currently queued. *)
val length : t -> int

(** No samples queued. *)
val is_empty : t -> bool

(** All recorded samples in emission order (needs [~record:true]). *)
val recorded : t -> float list

(** Drop queued samples, recorded history, and producer position. *)
val clear : t -> unit
