# Convenience targets for the FBF reproduction.

PYTHON ?= python

.PHONY: install test bench bench-quick bench-json bench-perf bench-paper report examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI smoke: the multiplicity ablation at reduced scale, timings off.
bench-quick:
	$(PYTHON) -m pytest benchmarks/test_ablation_collapse.py -q --benchmark-disable

# Machine-readable artifacts: BENCH_hybrid.json (backend trajectory;
# the committed artifact was produced with REPRO_HYBRID_N=10000),
# BENCH_metrics.json (serve-telemetry overhead), BENCH_serve_async.json
# (asyncio front-end vs the blocking loop), BENCH_passjoin.json
# (candidate-generator trajectory; committed with
# REPRO_PASSJOIN_N=100000), BENCH_outofcore.json (streamed join;
# committed with REPRO_OUTOFCORE_ROWS=10000000
# REPRO_OUTOFCORE_ROSTER=100000) and BENCH_native.json (compiled
# kernel tier; committed with REPRO_NATIVE_N=10000, skipped when no
# compiled provider loads), plus the .txt tables.
bench-json:
	$(PYTHON) -m pytest benchmarks/test_ablation_hybrid_backend.py benchmarks/test_ablation_obs_overhead.py benchmarks/test_serve_async.py benchmarks/test_ablation_passjoin.py benchmarks/test_bench_outofcore.py benchmarks/test_ablation_native.py -q -s --benchmark-disable

# The repo's benchmark (BENCHMARK.json): every workload, each in its
# own process; records land in benchmarks/perf/out/runs/.
bench-perf:
	python3 benchmarks/perf/bench.py

bench-paper:
	REPRO_PAPER_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) -m repro.cli report --output REPORT.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/deduplicate_names.py
	$(PYTHON) examples/health_department_linkage.py 120
	$(PYTHON) examples/scaling_study.py 600
	$(PYTHON) examples/blocking_vs_filtering.py
	$(PYTHON) examples/incremental_updates.py 200 3

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
