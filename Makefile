.PHONY: all build test test-force test-metrics bench bench-tables bench-micro bench-codec bench-obs bench-sched bench-chaos bench-cohort bench-multichannel bench-gate perfbench-smoke chaos lint tsan examples audit doc clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-tables:
	dune exec bench/main.exe -- tables

bench-micro:
	dune exec bench/main.exe -- micro

# Quick codec-engine throughput run; writes BENCH_codec.json.
bench-codec:
	PINDISK_CODEC_QUICK=1 dune exec bench/main.exe -- e20

# Same codec run with the observability layer force-enabled; writes
# BENCH_codec_metrics.json so the overhead is the diff of two artifacts.
bench-obs:
	PINDISK_CODEC_QUICK=1 PINDISK_METRICS=1 \
	  PINDISK_CODEC_OUT=BENCH_codec_metrics.json \
	  dune exec bench/main.exe -- e20

# Quick scheduling-scale run (E21); writes BENCH_sched.json.
bench-sched:
	PINDISK_SCHED_QUICK=1 dune exec bench/main.exe -- e21

# Chaos recovery sweep (E22): crash-restart cost vs block-store fault
# rate; writes BENCH_chaos.json. Slot-domain and fully deterministic.
bench-chaos:
	dune exec bench/main.exe -- e22

# Quick cohort-scale run (E23): million-client weighted-class
# populations plus the cohort==drive spot-check; writes BENCH_cohort.json.
bench-cohort:
	PINDISK_COHORT_QUICK=1 dune exec bench/main.exe -- e23

# Multi-channel sharding sweep (E24): aggregate files served and cohort
# clients at K = 1, 2, 4, 8 channels; writes BENCH_multichannel.json.
bench-multichannel:
	PINDISK_MULTICHANNEL_QUICK=1 dune exec bench/main.exe -- e24

# Scripted chaos-scenario suite: crashes with restart-from-checkpoint,
# stuck readers, loss bursts under fixed seeds; fails on any recovery
# invariant violation. Writes chaos_summary.md (the CI artifact).
chaos:
	dune exec -- pindisk chaos --summary chaos_summary.md

# Benchmark-regression gate: compare fresh quick-mode runs against the
# committed baselines (bench/baselines/), failing on regression beyond
# the tolerance band. Writes bench_gate_summary.md.
bench-gate: bench-sched bench-codec bench-chaos bench-cohort bench-multichannel
	dune exec scripts/bench_gate.exe -- \
	  --kind sched --fresh BENCH_sched.json \
	  --baseline bench/baselines/BENCH_sched.baseline.json \
	  --summary bench_gate_summary.md
	dune exec scripts/bench_gate.exe -- \
	  --kind codec --fresh BENCH_codec.json \
	  --baseline bench/baselines/BENCH_codec.baseline.json \
	  --summary bench_gate_summary.md --append
	dune exec scripts/bench_gate.exe -- \
	  --kind chaos --fresh BENCH_chaos.json \
	  --baseline bench/baselines/BENCH_chaos.baseline.json \
	  --summary bench_gate_summary.md --append
	dune exec scripts/bench_gate.exe -- \
	  --kind cohort --fresh BENCH_cohort.json \
	  --baseline bench/baselines/BENCH_cohort.baseline.json \
	  --summary bench_gate_summary.md --append
	dune exec scripts/bench_gate.exe -- \
	  --kind multichannel --fresh BENCH_multichannel.json \
	  --baseline bench/baselines/BENCH_multichannel.baseline.json \
	  --summary bench_gate_summary.md --append

# One short untraced pass of each end-to-end pipeline workload
# (perfbench/README.md). Gates no numbers: it exists to run the
# benchmark's correctness gates (byte identity, certification, replay
# determinism), which exit non-zero on failure.
perfbench-smoke:
	@for w in air-bytes fleet-exact population; do \
	  dune exec --root . --display quiet ./perfbench/main.exe -- \
	    --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Full test suite with metrics recording force-enabled (determinism
# regression: instrumentation must not change any observable output).
test-metrics:
	PINDISK_METRICS=1 dune runtest --force

# Static-analysis gate: parse every .ml under lib/ bin/ bench/ scripts/
# with compiler-libs and enforce the committed lint.config modulo the
# expiring lint.baseline. Writes lint_summary.md (the CI artifact);
# exits non-zero on unsuppressed findings or stale baseline entries.
lint:
	dune build bin/lint_main.exe
	dune exec bin/lint_main.exe -- --summary lint_summary.md

# ThreadSanitizer pass over the domain-crossing suites (pool, codec,
# sharded metrics). Needs a TSan-instrumented compiler (an
# ocaml-option-tsan switch, OCaml >= 5.2); detected via `ocamlopt
# -config` and skipped gracefully elsewhere so the target is safe to
# invoke on any machine.
tsan:
	@if ocamlopt -config 2>/dev/null | grep -q '^tsan:.*true'; then \
	  echo "tsan: instrumented compiler detected; running domain-crossing suites"; \
	  dune build test/test_util.exe test/test_gf256.exe test/test_ida.exe test/test_obs.exe && \
	  dune exec test/test_util.exe && \
	  dune exec test/test_gf256.exe && \
	  dune exec test/test_ida.exe && \
	  dune exec test/test_obs.exe; \
	else \
	  echo "tsan: compiler is not TSan-instrumented (needs an ocaml-option-tsan switch, OCaml >= 5.2); skipping"; \
	fi

audit:
	@for design in examples/designs/*.design; do \
	  echo "=== $$design"; \
	  dune exec -- pindisk audit $$design || exit 1; \
	done

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ivhs.exe
	dune exec examples/awacs.exe
	dune exec examples/failure_injection.exe
	dune exec examples/generalized.exe
	dune exec examples/deployment.exe

clean:
	dune clean
