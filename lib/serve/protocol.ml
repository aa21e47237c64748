(** The daemon's job protocol: typed requests/responses and their
    {!Wire} line codecs.

    A client connection carries a sequence of independent requests;
    every request names an [id] the daemon echoes in its response, so a
    client multiplexing jobs can correlate them.  The sweep job is the
    {!Sweep.Job.t} the CLI builds from the same flags: workload and
    strategy by name, the grid/bisect parameters, jobs/budget, plus a
    wall-clock [timeout_s] that the daemon checks between waves. *)

type sweep_params = Sweep.Job.t = {
  workload : string;
  strategy : string;
  f_min : int;
  f_max : int;
  seeds : int;
  jobs : int;
  budget : int option;
  target_db : float;
  timeout_s : float option;
}

type request =
  | Ping of { id : string }
  | Stats of { id : string }
  | Shutdown of { id : string }
  | Sweep of { id : string; params : sweep_params }

type response =
  | Pong of { id : string }
  | Stats_reply of { id : string; stats : Cache.stats }
  | Bye of { id : string }
  | Report of { id : string; report : string; hits : int; misses : int }
  | Error of { id : string; message : string }
  | Busy of { id : string; active : int; limit : int }
      (** structured backpressure: the daemon is at its connection
          limit; retry later (no request was admitted) *)

(* --- rendering ---------------------------------------------------------- *)

let request_to_line = function
  | Ping { id } ->
      Wire.to_line [ ("op", Wire.String "ping"); ("id", Wire.String id) ]
  | Stats { id } ->
      Wire.to_line [ ("op", Wire.String "stats"); ("id", Wire.String id) ]
  | Shutdown { id } ->
      Wire.to_line [ ("op", Wire.String "shutdown"); ("id", Wire.String id) ]
  | Sweep { id; params = p } ->
      Wire.to_line
        ([
           ("op", Wire.String "sweep");
           ("id", Wire.String id);
           ("workload", Wire.String p.workload);
           ("strategy", Wire.String p.strategy);
           ("f_min", Wire.Int p.f_min);
           ("f_max", Wire.Int p.f_max);
           ("seeds", Wire.Int p.seeds);
           ("jobs", Wire.Int p.jobs);
           ("target_db", Wire.Float p.target_db);
         ]
        @ (match p.budget with
          | Some b -> [ ("budget", Wire.Int b) ]
          | None -> [])
        @
        match p.timeout_s with
        | Some t -> [ ("timeout_s", Wire.Float t) ]
        | None -> [])

let response_to_line = function
  | Pong { id } ->
      Wire.to_line [ ("op", Wire.String "pong"); ("id", Wire.String id) ]
  | Stats_reply { id; stats = s } ->
      Wire.to_line
        [
          ("op", Wire.String "stats");
          ("id", Wire.String id);
          ("hits", Wire.Int s.Cache.hits);
          ("misses", Wire.Int s.Cache.misses);
          ("inserts", Wire.Int s.Cache.inserts);
          ("evictions", Wire.Int s.Cache.evictions);
          ("corrupt", Wire.Int s.Cache.corrupt);
          ("entries", Wire.Int s.Cache.entries);
        ]
  | Bye { id } ->
      Wire.to_line [ ("op", Wire.String "bye"); ("id", Wire.String id) ]
  | Report { id; report; hits; misses } ->
      Wire.to_line
        [
          ("op", Wire.String "report");
          ("id", Wire.String id);
          ("hits", Wire.Int hits);
          ("misses", Wire.Int misses);
          ("report", Wire.String report);
        ]
  | Error { id; message } ->
      Wire.to_line
        [
          ("op", Wire.String "error");
          ("id", Wire.String id);
          ("message", Wire.String message);
        ]
  | Busy { id; active; limit } ->
      Wire.to_line
        [
          ("op", Wire.String "busy");
          ("id", Wire.String id);
          ("active", Wire.Int active);
          ("limit", Wire.Int limit);
        ]

(* --- parsing ------------------------------------------------------------ *)

let ( let* ) = Option.bind

let request_of_line line =
  let* fields = Wire.of_line line in
  let* op = Wire.get_string fields "op" in
  let id = Option.value (Wire.get_string fields "id") ~default:"" in
  match op with
  | "ping" -> Some (Ping { id })
  | "stats" -> Some (Stats { id })
  | "shutdown" -> Some (Shutdown { id })
  | "sweep" ->
      let* workload = Wire.get_string fields "workload" in
      let* strategy = Wire.get_string fields "strategy" in
      let* f_min = Wire.get_int fields "f_min" in
      let* f_max = Wire.get_int fields "f_max" in
      let* seeds = Wire.get_int fields "seeds" in
      let jobs = Option.value (Wire.get_int fields "jobs") ~default:1 in
      let budget = Wire.get_int fields "budget" in
      let target_db =
        Option.value (Wire.get_float fields "target_db") ~default:40.0
      in
      let timeout_s = Wire.get_float fields "timeout_s" in
      Some
        (Sweep
           {
             id;
             params =
               {
                 workload;
                 strategy;
                 f_min;
                 f_max;
                 seeds;
                 jobs;
                 budget;
                 target_db;
                 timeout_s;
               };
           })
  | _ -> None

let response_of_line line =
  let* fields = Wire.of_line line in
  let* op = Wire.get_string fields "op" in
  let id = Option.value (Wire.get_string fields "id") ~default:"" in
  match op with
  | "pong" -> Some (Pong { id })
  | "bye" -> Some (Bye { id })
  | "stats" ->
      let* hits = Wire.get_int fields "hits" in
      let* misses = Wire.get_int fields "misses" in
      let* inserts = Wire.get_int fields "inserts" in
      let* evictions = Wire.get_int fields "evictions" in
      let* corrupt = Wire.get_int fields "corrupt" in
      let* entries = Wire.get_int fields "entries" in
      Some
        (Stats_reply
           {
             id;
             stats =
               { Cache.hits; misses; inserts; evictions; corrupt; entries };
           })
  | "report" ->
      let* report = Wire.get_string fields "report" in
      let* hits = Wire.get_int fields "hits" in
      let* misses = Wire.get_int fields "misses" in
      Some (Report { id; report; hits; misses })
  | "error" ->
      let* message = Wire.get_string fields "message" in
      Some (Error { id; message })
  | "busy" ->
      let* active = Wire.get_int fields "active" in
      let* limit = Wire.get_int fields "limit" in
      Some (Busy { id; active; limit })
  | _ -> None
