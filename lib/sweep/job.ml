type t = {
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

(* Strategy name -> its generator over the job's f range and seeds. *)
let generators =
  [
    ( "grid",
      fun j ~specs ~seeds ->
        Generator.grid ~specs ~f_min:j.f_min ~f_max:j.f_max ~seeds );
    ( "bisect",
      fun j ~specs ~seeds ->
        Generator.bisect ~specs ~f_min:j.f_min ~f_max:j.f_max
          ~target_db:j.target_db ~seeds );
    ( "pareto",
      fun j ~specs ~seeds ->
        Generator.pareto ~specs ~f_min:j.f_min ~f_max:j.f_max ~seeds () );
  ]

let strategies = List.map fst generators

let resolve ?(strategies = strategies) j =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let allowed = List.filter (fun (s, _) -> List.mem s strategies) generators in
  let below_one =
    List.find_opt
      (fun (_, v) -> v < 1)
      [
        ("seeds", j.seeds);
        ("jobs", j.jobs);
        ("budget", Option.value j.budget ~default:1);
      ]
  in
  match (Workload.find j.workload, List.assoc_opt j.strategy allowed) with
  | None, _ ->
      fail "workload: unknown %S (available: %s)" j.workload
        (String.concat ", "
           (List.map (fun (w : Workload.t) -> w.Workload.name) (Workload.all ())))
  | _, None ->
      fail "strategy: unknown %S (%s)" j.strategy
        (String.concat "|" strategies)
  | _ when j.f_min > j.f_max -> fail "f_min: %d > f_max %d" j.f_min j.f_max
  | Some w, Some generator -> (
      match below_one with
      | Some (field, v) -> fail "%s: must be at least 1, got %d" field v
      | None ->
          Ok
            ( w,
              generator j ~specs:w.Workload.specs
                ~seeds:(List.init j.seeds Fun.id) ))

let checkpoint_key ~context j =
  Checkpoint.sweep_key ~workload:j.workload ~strategy:j.strategy ~context
    [
      ("f_min", string_of_int j.f_min);
      ("f_max", string_of_int j.f_max);
      ("seeds", string_of_int j.seeds);
      ( "budget",
        match j.budget with Some b -> string_of_int b | None -> "none" );
      ("target_db", Printf.sprintf "%h" j.target_db);
    ]
