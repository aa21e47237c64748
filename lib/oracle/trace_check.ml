(** Trace-determinism gate — the oracle for the observability layer.

    Two contracts are held here, per sweep strategy:

    - {e counter determinism}: a sweep run with [~counters:true] renders
      {!Sweep.Report.counters_json} byte-identically at [jobs=1] and
      [jobs=N] — event counting rides the same commutative-merge,
      fold-in-id-order discipline as the monitor aggregates, and any
      scheduling leak (shared counter state, wave-order dependence,
      non-commutative watermark ties) breaks the string equality;
    - {e observer neutrality}: attaching the counting sink must not
      change simulation outcomes — the ordinary report of a counted
      sequential sweep is compared byte-for-byte against the uncounted
      one. *)

(* The sweep gate's rows, run with and without the counting sink. *)
let strategies = [ "grid"; "bisect"; "pareto" ]

let run ~jobs =
  List.concat_map
    (fun strategy ->
      let sequential = Sweep_check.sweep ~jobs:1 ~counters:true strategy in
      let parallel = Sweep_check.sweep ~jobs ~counters:true strategy in
      let plain = Sweep_check.sweep ~jobs:1 ~counters:false strategy in
      let candidates = List.length sequential.Sweep.Report.entries in
      let counters_identical =
        String.equal
          (Sweep.Report.counters_json sequential)
          (Sweep.Report.counters_json parallel)
      in
      let observer_neutral =
        String.equal
          (Sweep.Report.to_json sequential)
          (Sweep.Report.to_json plain)
      in
      [
        {
          Check.name = strategy ^ "/counters";
          ok = counters_identical;
          detail =
            Printf.sprintf "%d candidates, counters jobs 1 vs %d: %s"
              candidates jobs
              (if counters_identical then "identical" else "diverged");
        };
        {
          Check.name = strategy ^ "/observer";
          ok = observer_neutral;
          detail =
            (if observer_neutral then
               "report with counters byte-identical to without"
             else "counting sink perturbed the report");
        };
      ])
    strategies
