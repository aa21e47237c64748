#!/bin/sh
# Repo check — the single tier-1 entry point:
#   1. full build (libs, tests, benches, examples);
#   2. the deterministic test suites (unit + conformance);
#   3. API docs (odoc), when the toolchain has odoc installed;
#   4. the conformance gate: one `fxrefine check`, which runs every
#      gate of the ordered table in lib/oracle/gates.ml (see
#      `Oracle.Gates.all` for the list and docs/CLI.md#check), the
#      wall-clock bench guards included (deliberately NOT part of
#      `dune runtest`);
#   5. duplication guards: the atomic durable write (fsync + rename)
#      lives only in lib/durable/, the example designs are built
#      only by the scenario registry (lib/scenario/), the CLI
#      and the daemon resolve sweep jobs only through Sweep.Job, and
#      the bench baseline files are named, written and read only by
#      lib/oracle/bench_guard.ml, and a gate verdict is printed and
#      judged only by lib/oracle/check.ml (no `let passed`,
#      `let pp_report` or `let pp_result` elsewhere in lib/oracle), so
#      none grows a second copy again;
#   6. a hot-path guard: lib/sim/ops.ml and lib/sim/signal.ml read the
#      flat Sim.Value.t fields directly and never call the Value.fx /
#      Value.fl / Value.iv / Value.node accessors or Interval's
#      arithmetic (add sub mul div neg abs min_ max_ scale shift_left
#      join clamp) — out-of-line calls that box floats on every
#      operation;
#   7. the transcript-bearing docs (docs/TUTORIAL.md, docs/CLI.md,
#      docs/CACHING.md), re-executed command by command, plus a dead
#      relative-link check over README.md and docs/*.md, so the
#      documentation cannot rot.
#
# Long-running steps are wrapped in `timeout` where available, so a
# hung worker domain or a wedged simulation fails the check instead of
# blocking it forever.
set -eu
cd "$(dirname "$0")/.."

# timeout(1) is coreutils; degrade to no wrapper where it is missing.
if command -v timeout >/dev/null 2>&1; then
  with_timeout() { timeout "$@"; }
else
  with_timeout() { shift; "$@"; }
fi

# The chaos gate forks daemons and sweeps and SIGKILLs them; if the
# gate itself is killed (timeout, ^C), its scratch dirs can be left
# with live orphan children.  Each scratch dir records the pids it
# forked in a `pids` file — kill them and remove the dirs on exit,
# along with any orphaned doc-transcript daemon sockets.
cleanup_chaos() {
  for d in "${TMPDIR:-/tmp}"/fxchaos-*; do
    [ -d "$d" ] || continue
    if [ -f "$d/pids" ]; then
      while IFS= read -r pid; do
        kill -KILL "$pid" 2>/dev/null || true
      done < "$d/pids"
    fi
    rm -rf "$d"
  done
  rm -f /tmp/fxterm.sock /tmp/fxcli.sock
}
trap cleanup_chaos EXIT INT TERM

with_timeout 600 dune build @all
with_timeout 600 dune runtest
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: odoc not installed, skipping 'dune build @doc'"
fi
# Hard timeout: the chaos gate SIGKILLs its own children, but a hung
# resume or a daemon that never drains must fail the check, not hang it.
with_timeout 900 dune exec bin/fxrefine.exe -- check
# One durable-write implementation: every store goes through Durable.
if grep -rnE 'Unix\.fsync|Sys\.rename' lib bin --include='*.ml' --include='*.mli' \
  | grep -v '^lib/durable/'; then
  echo "check.sh: Unix.fsync/Sys.rename outside lib/durable/ (write through Durable.write)" >&2
  exit 1
fi
# One declaration per design: the example designs are built only by the
# scenario registry (tests and the conformance fixtures in
# lib/oracle/workloads.ml stay exempt).
if grep -rnE 'Dsp\.(Cordic|Ddc|Fft|Synchronizer|Lms_equalizer|Timing_recovery)\.create' \
  lib bin bench examples --include='*.ml' --include='*.mli' \
  | grep -vE '^lib/(dsp|scenario)/|^lib/oracle/workloads\.ml:'; then
  echo "check.sh: a design built outside lib/scenario/ (build it through Scenario)" >&2
  exit 1
fi
# One sweep job: strategy dispatch and the wave-journal key live in
# lib/sweep/job.ml (oracle gates and tests stay exempt: they build their
# reference sweeps on their own on purpose).
if grep -rnE 'Sweep\.Generator\.(grid|bisect|pareto)|Sweep\.Checkpoint\.sweep_key' bin lib/serve \
  --include='*.ml' --include='*.mli'; then
  echo "check.sh: a sweep job resolved outside lib/sweep/job.ml (use Sweep.Job.resolve/checkpoint_key)" >&2
  exit 1
fi
# One bench-baseline format: only Bench_guard names the BENCH_*.json
# files (and so only it writes and reads them).
if grep -rn 'BENCH_' lib bin bench --include='*.ml' --include='*.mli' \
  | grep -v '^lib/oracle/bench_guard\.ml:'; then
  echo "check.sh: a bench baseline file named outside lib/oracle/bench_guard.ml (record/read it through Oracle.Bench_guard)" >&2
  exit 1
fi
# One gate verdict: every gate returns Oracle.Check.t list, and only
# check.ml judges (passed) and prints (pp) one.
if grep -nE 'let (passed|pp_report|pp_result)([^A-Za-z0-9_]|$)' lib/oracle/*.ml \
  | grep -v '^lib/oracle/check\.ml:'; then
  echo "check.sh: a gate verdict judged or printed outside lib/oracle/check.ml (return Oracle.Check.t list)" >&2
  exit 1
fi
# One flat dual value: the per-operation path reads Value.t fields
# directly (a field access `v.Value.fx` or a record label `{ Value.fx =`
# is fine; a call `Value.fx v` is not).
if grep -nE '(^|[^.[:alnum:]_])Value\.(fx|fl|iv|node)([[:space:]]+[^[:space:]=;}]|[)]|$)|Interval\.(add|sub|mul|div|neg|abs|min_|max_|scale|shift_left|join|clamp)([^[:alnum:]_]|$)' \
  lib/sim/ops.ml lib/sim/signal.ml; then
  echo "check.sh: a boxing Value accessor or Interval operation on the dual-value hot path (read the Value.t fields directly)" >&2
  exit 1
fi
with_timeout 60 sh scripts/check_links.sh
with_timeout 600 sh scripts/check_tutorial.sh
