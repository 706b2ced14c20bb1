# Convenience wrappers; every target works from a clean checkout.
export PYTHONPATH := src

.PHONY: test test-concurrency test-kernels test-faults test-delta \
    test-relational test-recommend test-model docs-check cli-smoke bench \
    bench-smoke bench-selftest bench-fig23 serve-demo

# The bench_*.py naming keeps the harnesses out of default pytest
# collection (tier-1 stays fast); targets pass the files explicitly.
BENCHES := $(wildcard benchmarks/bench_*.py)

# Tier-1 verification — must stay green.
test:
	python -m pytest -x -q

# The serving concurrency gate: 50-seed stress schedules, hypothesis
# interleavings vs the serialized oracle (one-shot recommends included),
# the deterministic race-harness schedules, the raw-socket framing fuzz
# (random request lines, header fields and bodies: a framed 2xx/4xx or a
# degraded 503, then the next request or a close, never a hang or a
# session opened by a refused request), the cache's boundaries and the
# one-shot recommendation memo (every hit equals a cache-less answer;
# ingest, rollback and refresh recompute; answers are immutable; the
# byte-identity property: every memo reply is byte for byte the
# json.dumps of a freshly built payload) — run without -x so one flaky
# schedule still reports every other failure.
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

# The relational-layer gate: the columnar kernels against the frozen
# rowref loops, the array counted relations against the dict CountMap's
# §2.2 loops, Relation's typing rule (a list cell, a NaN or a second
# cell type in any column but the measure raises EncodingError where the
# relation is built, a measure cell that is no number SchemaError), the
# typed-key rule where data and requests enter (registration, auxiliary
# joins, CSV typing, ingest and every request cell through
# ServerApp.dispatch), hierarchies and the chunked build — run without
# -x so one failing property still reports every other failure.
test-relational:
	python -m pytest tests/test_columnar_properties.py tests/test_countmap.py \
	    tests/test_factorized_array_properties.py tests/test_relation.py \
	    tests/test_typed_keys.py tests/test_hierarchy.py tests/test_shard.py \
	    tests/test_shard_properties.py -q

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

# The CLI as a process (the tests call main() in process): the serve and
# ingest demos run, serve --csv loads a village column holding 101 and
# Zata (typed str as a whole), and a malformed batch file, a malformed
# rows file, a str measure cell ("7"), a str year ingested into the
# demo's int year column and serve --csv on a CSV measure cell abc must
# each exit with status 1 and exactly one line on stderr, so a
# traceback fails (the last line naming the column and the CSV line).
cli-smoke:
	python -m repro serve --repeat 2 --iterations 2 > /dev/null
	python -m repro ingest --iterations 2 > /dev/null
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	printf 'district,village,year,sev\nOfla,101,1986,2.0\nOfla,101,1987,5.0\nOfla,Zata,1986,3.0\nOfla,Zata,1987,6.0\nAlaje,Bora,1986,4.0\nAlaje,Bora,1987,5.5\n' \
	    > "$$dir/data.csv" && \
	echo '[{"aggregate": "mean", "coordinates": {"village": "101"}, "group_by": ["village"]}]' \
	    > "$$dir/csv_batch.json" && \
	python -m repro serve --csv "$$dir/data.csv" --batch "$$dir/csv_batch.json" \
	    --hierarchy geo=district,village --hierarchy time=year \
	    --measure sev --iterations 2 > "$$dir/csv_out" && \
	grep -q "village': '101'" "$$dir/csv_out" || { \
	    echo "cli-smoke: serve --csv must answer the complaint on village" \
	         "'101' (a str column)" >&2; exit 1; } && \
	echo '[{"aggregate": "mean", "coordinates": {"year": 1986}, "k": -1}]' \
	    > "$$dir/batch.json" && \
	echo '[["Ofla", "Zata", 1986, true]]' > "$$dir/rows.json" && \
	echo '[["Ofla", "Zata", 1986, "7"]]' > "$$dir/str_measure.json" && \
	echo '[["Ofla", "Zata", "1986", 5.0]]' > "$$dir/str_year.json" && \
	for run in "serve --batch $$dir/batch.json" \
	           "ingest --rows $$dir/rows.json" \
	           "ingest --rows $$dir/str_measure.json" \
	           "ingest --rows $$dir/str_year.json"; do \
	    status=0; \
	    python -m repro $$run > /dev/null 2> "$$dir/stderr" || status=$$?; \
	    cat "$$dir/stderr"; \
	    if [ $$status -ne 1 ] || [ $$(wc -l < "$$dir/stderr") -ne 1 ]; then \
	        echo "cli-smoke: 'repro $$run' must exit 1 with one line" \
	             "on stderr (exit $$status)" >&2; \
	        exit 1; \
	    fi; \
	done; \
	grep -q "'year'" "$$dir/stderr" || { \
	    echo "cli-smoke: the str-year ingest must name 'year'" >&2; exit 1; } && \
	printf 'district,village,year,sev\nOfla,Zata,1986,2.0\nOfla,Zata,1987,abc\n' \
	    > "$$dir/bad_measure.csv" && \
	status=0; \
	python -m repro serve --csv "$$dir/bad_measure.csv" \
	    --hierarchy geo=district,village --hierarchy time=year \
	    --measure sev > /dev/null 2> "$$dir/stderr" || status=$$?; \
	cat "$$dir/stderr"; \
	if [ $$status -ne 1 ] || [ $$(wc -l < "$$dir/stderr") -ne 1 ] \
	        || ! grep -q "'sev' cell 'abc' on line 3" "$$dir/stderr"; then \
	    echo "cli-smoke: serve --csv must exit 1 with one line on stderr" \
	         "naming the measure column and line of the cell abc" \
	         "(exit $$status)" >&2; \
	    exit 1; \
	fi

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
