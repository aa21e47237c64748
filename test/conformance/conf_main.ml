(* Conformance suite entry point: the differential quantization oracle,
   the metamorphic workload invariants, golden traces, the emitted
   VHDL and the gate table.  Runs under `dune runtest` (tier 1) — the bench regression
   guard is deliberately *not* here (wall-clock measurements don't
   belong in a deterministic test suite); it runs inside
   `fxrefine check` (scripts/check.sh). *)

let () =
  Alcotest.run "conformance"
    [
      Conf_differential.suite;
      Conf_metamorphic.suite;
      Conf_golden.suite;
      Conf_vhdl.suite;
      Conf_gates.suite;
    ]
