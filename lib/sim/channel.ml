(** Communication channels — the paper's [get]/[put] primitives.

    Processors communicate through directed sample streams.  A channel is
    a FIFO of floats; a {e source} channel can instead be backed by a
    generator function (the stimulus), and a {e sink} channel records
    what was written for later analysis (SQNR measurement against a
    reference run). *)

type t = {
  name : string;
  queue : float Queue.t;
  producer : (int -> float) option;  (** set only by [of_fun] *)
  mutable produced : int;  (** samples pulled from the producer *)
  mutable history : float list;  (** reversed log of every [put] *)
  mutable record : bool;
}

let create ?(record = false) name =
  { name; queue = Queue.create (); producer = None; produced = 0;
    history = []; record }

(** [of_fun name f] — a source channel: [get] returns [f 0], [f 1], …
    Deterministic stimulus generators plug in here. *)
let of_fun name f = { (create name) with producer = Some f }

let name t = t.name

exception Empty of string

let () =
  Printexc.register_printer (function
    | Empty name ->
        Some
          (Printf.sprintf
             "Sim.Channel.Empty: channel %S read while empty and unbacked"
             name)
    | _ -> None)

(** [get t] — consume the next sample; pulls from the producer if the
    FIFO is empty.  Raises [Empty] on an unproduced, unbacked channel. *)
let get t =
  if not (Queue.is_empty t.queue) then Queue.pop t.queue
  else
    match t.producer with
    | Some f ->
        let v = f t.produced in
        t.produced <- t.produced + 1;
        v
    | None -> raise (Empty t.name)

(** [put t v] — emit a sample into the channel. *)
let put t v =
  Queue.push v t.queue;
  if t.record then t.history <- v :: t.history

let length t = Queue.length t.queue
let is_empty t = Queue.is_empty t.queue

(** All recorded samples in emission order (requires [~record:true]). *)
let recorded t = List.rev t.history

let clear t =
  Queue.clear t.queue;
  t.history <- [];
  t.produced <- 0
