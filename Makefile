# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-service bench bench-full bench-json bench-check \
        examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# the batched serving layer's suite only (scheduler/seeds/fallback/metrics)
test-service:
	dune build @all
	dune exec test/test_service.exe

# default (reduced) scale: ~1 minute
bench:
	dune exec bench/main.exe

# the paper's 1000-target workload: ~20 minutes
bench-full:
	DADU_TARGETS=1000 dune exec bench/main.exe

# steady-state Quick-IK kernel benchmark -> BENCH_quickik.json
bench-json:
	dune exec bench/main.exe -- micro --json

# regenerate the kernel benchmark and gate it against the committed
# baseline (fails on >15% ns/iter or words/iter regressions); the
# baseline file is restored afterwards — refresh it deliberately with
# `make bench-json`
bench-check:
	cp BENCH_quickik.json _build/bench_baseline.json
	dune exec bench/main.exe -- micro --json
	dune exec tools/bench_diff.exe -- _build/bench_baseline.json BENCH_quickik.json; \
	  status=$$?; cp _build/bench_baseline.json BENCH_quickik.json; exit $$status

examples:
	@set -e; for e in quickstart high_dof_snake accelerator_sim \
	          solver_shootout pose_reaching; do \
	  echo "==== $$e ===="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
