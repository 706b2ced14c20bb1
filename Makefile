# Convenience wrappers; every target works from a clean checkout.
export PYTHONPATH := src

.PHONY: test test-concurrency test-shard test-kernels test-faults \
    docs-check bench bench-smoke bench-selftest bench-fig23 serve-demo

# The bench_*.py naming keeps the harnesses out of default pytest
# collection (tier-1 stays fast); targets pass the files explicitly.
BENCHES := $(wildcard benchmarks/bench_*.py)

# Tier-1 verification — must stay green.
test:
	python -m pytest -x -q

# The serving concurrency gate: 50-seed stress schedules, hypothesis
# interleavings vs the serialized oracle, and the deterministic
# race-harness schedules — run without -x so one flaky schedule still
# reports every other failure.
test-concurrency:
	python -m pytest tests/test_server_concurrency.py \
	    tests/test_snapshot_properties.py tests/test_cache_boundaries.py -q

# The chunked/spill-build gate: unit coverage for chunked construction
# and the out-of-core spill build (union encoding, block merges, a real
# process pool, failed-stream cleanup), hypothesis properties of the
# spill build vs the one-pass cube, and spill round trips across a pool
# respawn — run without -x for the same reason as the concurrency gate.
test-shard:
	python -m pytest tests/test_shard.py tests/test_shard_properties.py \
	    tests/test_parallel_recommend.py -q

# The fused-kernel gate: hypothesis bitwise-equality properties for all
# three kernels of the fused NumPy backend against the frozen plain tier,
# plus the dispatch/counter unit coverage.
test-kernels:
	python -m pytest tests/test_kernel_properties.py -q

# The fault-tolerance gate: the fault-injection registry, supervised
# worker-pool recovery (crash/retry/deadline/leak), kernel quarantine,
# atomic ingest, degraded-mode serving, and 32 seeded chaos schedules
# with concurrent traffic — run without -x so one bad schedule still
# reports every other failure.
test-faults:
	python -m pytest tests/test_faults.py -q

# Execute every fenced python block in README.md and docs/*.md so the
# documented examples cannot rot.
docs-check:
	python -m pytest tests/test_docs.py -q

# Regenerate the paper figures (series land in benchmarks/out/).
bench:
	python -m pytest $(BENCHES) -q

# Run every benchmark harness at tiny sizes: a does-it-still-run gate
# for CI, not a measurement (timing assertions are skipped). Fails
# loudly if any smoke JSON row comes out without its `speedup` field —
# such rows are invisible to the cross-PR perf tracking.
bench-smoke:
	REPRO_BENCH_SMOKE=1 python -m pytest $(BENCHES) -q --benchmark-disable
	python benchmarks/check_smoke.py

# The benchmark's self-test: every workload at 20k rows emits each metric
# of BENCHMARK.json, and the layer boundaries perfbench/tracer.py wraps
# by name still exist.
bench-selftest:
	python3 perfbench/selftest.py

# The kernel-tier figure alone, at full scale (speedup floors + memory
# bandwidth vs the measured STREAM-triad roofline).
bench-fig23:
	python -m pytest benchmarks/bench_fig23_kernels.py -q

serve-demo:
	python -m repro serve --repeat 2
