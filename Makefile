# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-json bench chaos golden examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Protocol-aware static analysis (see README "Static analysis & invariants")
lint:
	dune build @lint

# Same scan, machine-readable: writes the SARIF-lite JSON report to
# _build/default/lint-report.json (fingerprints feed lint.allow entries)
lint-json:
	dune build @lint-json
	@echo "report: _build/default/lint-report.json"

# Full experiment tables (writes bench_results/*.csv too)
bench:
	dune exec bench/main.exe -- csv

# The randomized campaign suite (every protocol under fault injection,
# adversarial schedulers and lossy links) with a pinned generator seed,
# so a red run is replayable byte-for-byte.  It reads its golden files
# relative to test/.  Override the pin to widen the net:
# make chaos QCHECK_SEED=12345
QCHECK_SEED ?= 421984
chaos:
	dune build test/test_properties.exe
	cd test && QCHECK_SEED=$(QCHECK_SEED) ../_build/default/test/test_properties.exe

# Regenerate the checked-in golden analyzer summaries from the same
# seeded runs CI replays, refresh the abc-run transcript in test/cli.t
# (which replays those runs through the binaries; dune exits 1 when it
# promotes a change, hence the leading -), then re-run the test suite:
# if the goldens and the code disagree after regeneration,
# something nondeterministic crept in.  Golden drift is this one
# command instead of hand-editing.
golden:
	dune build bin/abc_run.exe bin/abc_trace.exe
	dune exec bin/abc_run.exe -- consensus -n 7 -f 2 --seed 42 \
	  --trace-out _build/smoke_trace.jsonl
	dune exec bin/abc_trace.exe -- summary _build/smoke_trace.jsonl \
	  > test/golden/smoke_summary.txt
	dune exec bin/abc_run.exe -- consensus -n 5 -f 1 --reliable --loss 0.2 \
	  --seed 7 --trace-out _build/lossy_trace.jsonl
	dune exec bin/abc_trace.exe -- summary _build/lossy_trace.jsonl \
	  > test/golden/lossy_summary.txt
	dune exec bin/abc_run.exe -- smr --atomic -n 4 -f 1 --epochs 3 \
	  --batch-size 8 --seed 11 --trace-out _build/atomic_trace.jsonl
	dune exec bin/abc_trace.exe -- summary _build/atomic_trace.jsonl \
	  > test/golden/atomic_summary.txt
	dune exec bin/abc_run.exe -- smr --atomic -n 4 -f 1 --epochs 4 \
	  --batch-size 4 --seed 21 --checkpoint-interval 2 --crash 2:300:2500 \
	  --trace-out _build/recovery_trace.jsonl
	dune exec bin/abc_trace.exe -- summary _build/recovery_trace.jsonl \
	  > test/golden/recovery_summary.txt
	dune exec bin/abc_run.exe -- consensus -n 4 -f 1 --seed 8 --dup 0.2 \
	  --trace-out test/golden/dup_trace.jsonl
	-dune runtest test/cli.t --auto-promote
	dune runtest

examples:
	dune exec examples/quickstart.exe
	dune exec examples/byzantine_generals.exe
	dune exec examples/adversarial_scheduler.exe
	dune exec examples/replicated_log.exe
	dune exec examples/partial_network.exe
	dune exec examples/model_checking.exe

clean:
	dune clean
