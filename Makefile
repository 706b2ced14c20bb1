# Convenience wrappers; every target works from a clean checkout.
export PYTHONPATH := src

.PHONY: test test-concurrency test-kernels test-faults test-delta \
    test-recommend test-model docs-check bench bench-smoke bench-selftest \
    bench-fig23 serve-demo

# The bench_*.py naming keeps the harnesses out of default pytest
# collection (tier-1 stays fast); targets pass the files explicitly.
BENCHES := $(wildcard benchmarks/bench_*.py)

# Tier-1 verification — must stay green.
test:
	python -m pytest -x -q

# The serving concurrency gate: 50-seed stress schedules, hypothesis
# interleavings vs the serialized oracle (one-shot recommends included),
# the deterministic race-harness schedules, the cache's boundaries and
# the one-shot recommendation memo (every hit equals a cache-less answer;
# ingest, rollback and refresh recompute; answers are immutable) — run
# without -x so one flaky schedule still reports every other failure.
test-concurrency:
	python -m pytest tests/test_server_concurrency.py \
	    tests/test_snapshot_properties.py tests/test_cache_boundaries.py \
	    tests/test_recommend_memo.py -q

# The fused-kernel gate: hypothesis bitwise-equality properties for all
# three kernels of the fused NumPy tier against the frozen plain tier,
# plus the dispatch/counter unit coverage.
test-kernels:
	python -m pytest tests/test_kernel_properties.py -q

# The fault-tolerance gate: the fault-injection registry, atomic ingest,
# degraded-mode serving, and 32 seeded chaos schedules with concurrent
# traffic — run without -x so one bad schedule still reports every other
# failure.
test-faults:
	python -m pytest tests/test_faults.py -q

# The delta-engine gate: the hypothesis oracle properties of ingest
# (incremental apply ≡ rebuild from the post-delta rows, FD rejections
# included) and the layer-by-layer ingest tests — run without -x so one
# failing property still reports every other failure.
test-delta:
	python -m pytest tests/test_delta_properties.py tests/test_ingest.py -q

# The recommend-path gate: the array ranker against the frozen rankref
# oracle (scoring and end-to-end properties, the one-array-form contract
# for hand-built views and mapping predictions), features, model
# selection and the core engine — run without -x so one failing
# property still reports every other failure.
test-recommend:
	python -m pytest tests/test_ranker_array_properties.py \
	    tests/test_ranker_properties.py tests/test_features.py \
	    tests/test_selection.py tests/test_core_engine.py -q

# The model-layer gate: the live EM and OLS fits against the frozen
# emref oracle (every fit field and prediction, bitwise), the model and
# pipeline tests, and the edge-case and extension suites that drive
# fits — run without -x so one failing property still reports every
# other failure.
test-model:
	python -m pytest tests/test_emref_properties.py tests/test_models.py \
	    tests/test_pipeline.py tests/test_edge_cases.py \
	    tests/test_extensions.py -q

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
