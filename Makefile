# Convenience targets; everything runs against the in-tree sources.
PYTHON ?= python
export PYTHONPATH := src

FUZZ_SEED ?= 7
FUZZ_ITERATIONS ?= 25

.PHONY: test analyze fuzz fuzz-soak bench serve-smoke stream-smoke \
	pack-smoke lint-src perfbench-smoke

test:
	$(PYTHON) -m pytest -x -q

# Static plan analysis + UDF linting over every built-in algorithm plus
# fuzzer-generated plans; --strict-warnings makes WARNING findings fail
# the gate too. (The stream pass is exercised by the corpus tests
# instead: scc's nested fixed point legitimately warns under GS-M404.)
analyze:
	$(PYTHON) -m repro.cli analyze --seed $(FUZZ_SEED) --generated 25 \
		--strict-warnings --json analysis-report.json

# The CI fuzz-smoke configuration: fixed seed, deterministic campaign.
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) \
		--iterations $(FUZZ_ITERATIONS)

# Longer soak that keeps going past failures, one repro per mismatch.
fuzz-soak:
	$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) --iterations 200 \
		--keep-going --quiet

bench:
	$(PYTHON) benchmarks/bench_hotpath.py --check BENCH_engine.json \
		--tolerance 0.25

# Boot the real daemon, drive it over HTTP (health, GVDL, cached run,
# mutation, delta recompute), SIGTERM it, and assert a clean drained
# shutdown with a valid session checkpoint. See docs/serving.md.
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Gate for the community & scoring pack (the CI pack-smoke job): the
# hand-computed pin tests lock the tie-breaking/normalization/peeling
# rules, then each pack member runs a 25-iteration single-algorithm
# fuzz campaign — which executes the *full* invariant battery every
# iteration, including the streamed-churn `stream` check, so every
# member sees >= 25 seeded cases. See docs/algorithms.md.
pack-smoke:
	$(PYTHON) -m pytest -x -q tests/algorithms/test_pack_pins.py
	for algo in labelprop ppr ktruss score; do \
		$(PYTHON) -m repro.cli fuzz --seed $(FUZZ_SEED) \
			--iterations $(FUZZ_ITERATIONS) \
			--algorithms $$algo --quiet || exit 1; \
	done

# Source lint (the CI lint-src job); requires ruff on PATH. Config lives
# in pyproject.toml [tool.ruff].
lint-src:
	ruff check src tests

# Stream a 60-epoch seeded churn source through continuously maintained
# queries: per-epoch snapshots must equal the plain references on the
# accumulated edges, work must scale with the batch (not the graph),
# capture traces stay bounded under compaction, and a journaled stream
# killed mid-way resumes byte-identically. See docs/streaming.md.
stream-smoke:
	$(PYTHON) -m repro.stream.smoke

# Self-tests of the end-to-end benchmark on its quick inputs (the CI
# perfbench-smoke job). The tier-1 suite only collects tests/, while
# perfbench wraps view-collection materialization and its steps by
# attribute, so a signature change there would otherwise fail nothing.
# See perfbench/README.md.
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py
