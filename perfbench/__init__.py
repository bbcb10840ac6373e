"""End-to-end and per-layer benchmark of gptsteer (see BENCHMARK.json)."""
