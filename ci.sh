#!/usr/bin/env bash
# ci.sh — the full verification gate for incastlab.
#
# Runs, in order:
#   1. go vet            static checks across every package
#   2. go build          everything compiles, commands included
#   3. go test           the full unit + determinism suite
#   4. go test -race     the parallel orchestration tests under the race
#                        detector (worker pool + experiment fan-out)
#   5. audit gate        quick Fig-5/Fig-8 experiments re-run in checked
#                        mode (every simulation invariant enforced, zero
#                        violations tolerated) plus the three-way
#                        rackmodel<->flowsim<->netsim differential
#                        cross-check on the canonical trace, the
#                        closed-loop packet<->flow incast gate (mode
#                        classification exact, BCT/peak-queue within the
#                        documented tolerances; see EXPERIMENTS.md), and
#                        the fabric closed-loop gate: the ext_clos_crossrack
#                        operating points run packet vs multi-queue fluid
#                        under the same pinned tolerance contract
#                        (TestClosDifferentialGate), and the cohort
#                        differential gate: Fig-5 + Clos points run
#                        per-flow vs cohort-aggregated on the fluid
#                        backend under tighter-still tolerances
#                        (TestCohortDifferentialGate)
#   6. obs gate          quick Fig-5 run three ways (no metrics; metrics
#                        serial; metrics parallel): CSV artifacts must be
#                        bit-identical across all three, both snapshots
#                        must parse and carry the key metric families, and
#                        their deterministic subsets must be byte-equal
#   7. registry gate     `figures -list` must match the checked-in golden
#                        name list, an unknown -only name must exit
#                        non-zero, and the quick CSVs (fig5, fig6,
#                        ablation_g, ablation_marking, both Clos sweeps,
#                        and both notification experiments) must be
#                        byte-identical to the checked-in goldens
#                        (scheduler and pooling changes are
#                        behavior-preserving); the two Clos sweeps then
#                        re-run at -fidelity flow against their own
#                        checked-in goldens (testdata/quick_flow), pinning
#                        the multi-queue fluid solver's output bit for bit
#   8. sweep-cache gate  the Clos cross-rack example sweep runs cold,
#                        sharded across two worker processes against a
#                        shared content-addressed cache, then again as a
#                        warm resume: the resume must be all cache hits
#                        and its CSV byte-identical to the cold run; the
#                        1,000-point flow-fidelity RTO grid then shards
#                        across four processes and warm-assembles the
#                        same way (resumable 1k-point studies work); the
#                        million-flow Clos grid (208 rows, 1.26M flows
#                        summed, fidelity flow) does the same cold/warm
#                        byte-identity dance through the sharded cache
#   9. scenario gate     example specs run end to end through
#                        `incastsim -scenario` and produce their CSVs —
#                        one packet-level, one at flow fidelity (a
#                        10,000-flow sweep only the fluid backend can
#                        turn around), one with the notification block
#                        and its sweep axis, and the single-run
#                        million-flow Clos scenario (1,048,576 flows in
#                        ONE cohort-aggregated row, no shard cache) under
#                        a wall-clock sanity bound; a bogus spec path, a
#                        malformed -shard spec, and a bogus -aggregation
#                        level must exit non-zero
#  10. bench gate        the substrate micro-benchmarks, the flow-level
#                        Fig-5 sweep and the network solver's per
#                        record-step micro-benchmark smoke-run at one
#                        iteration each (they must at least execute); with CI_BENCH=1 the macro
#                        + micro benchmarks run for real and refresh the
#                        "current" sections of BENCH_PR5.json,
#                        BENCH_PR6.json (packet vs flow fidelity on the
#                        same Fig-5 sweep), BENCH_PR9.json (packet vs
#                        flow on the two Clos fabric sweeps), and
#                        BENCH_PR10.json (per-flow vs cohort-aggregated
#                        fluid on the 1400-degree Fig-5 point, plus the
#                        single-run million-flow Clos scenario) via
#                        internal/bench/benchjson
set -euo pipefail
cd "$(dirname "$0")"

echo "==> gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "gofmt needed on:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/core -run TestParallel"
go test -race ./internal/core -run TestParallel

echo "==> audit gate: invariant-checked experiments + rackmodel/netsim differential"
go test ./internal/audit -count=1
go test ./internal/core -run 'TestAudited' -count=1

echo "==> obs gate: metrics must not perturb results; serial == parallel snapshots"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
go run ./cmd/figures -quick -only fig5 -workers 1 -out "$OBS_TMP/base"
go run ./cmd/figures -quick -only fig5 -workers 1 -metrics "$OBS_TMP/m1.json" -out "$OBS_TMP/serial"
go run ./cmd/figures -quick -only fig5 -workers 4 -metrics "$OBS_TMP/m2.json" -out "$OBS_TMP/parallel"
for f in "$OBS_TMP"/base/fig5*.csv; do
  name="$(basename "$f")"
  cmp "$f" "$OBS_TMP/serial/$name"    # instrumented == uninstrumented
  cmp "$f" "$OBS_TMP/parallel/$name"  # parallel == serial
done
go run ./internal/obs/snapcheck \
  -require runs,sim_events_executed,sim_time_ns,net_queue_enqueued_packets,net_link_tx_bytes,net_pool_gets,tcp_sent_packets,cc_cwnd_updates,burst_bct_ms \
  "$OBS_TMP/m1.json"
go run ./internal/obs/snapcheck -diff "$OBS_TMP/m1.json" "$OBS_TMP/m2.json"

echo "==> registry gate: -list golden, unknown -only rejection, quick CSV goldens"
go run ./cmd/figures -list | diff -u internal/core/testdata/registry_names.golden -
if go run ./cmd/figures -only bogus -out "$OBS_TMP/bogus" 2>/dev/null; then
  echo "figures -only bogus should have exited non-zero" >&2
  exit 1
fi
go run ./cmd/figures -quick -only fig5,fig6,ablation_g,ablation_marking,ext_clos_crossrack,ext_clos_multiagg,ext_pulser_modes,ext_distributed_detect -out "$OBS_TMP/golden"
for f in internal/core/testdata/quick/*.csv; do
  cmp "$f" "$OBS_TMP/golden/$(basename "$f")"
done
go run ./cmd/figures -quick -only ext_clos_crossrack,ext_clos_multiagg -fidelity flow -out "$OBS_TMP/golden_flow"
for f in internal/core/testdata/quick_flow/*.csv; do
  cmp "$f" "$OBS_TMP/golden_flow/$(basename "$f")"
done

echo "==> sweep-cache gate: sharded cold run, then warm resume, byte-identical"
go build -o "$OBS_TMP/incastsim" ./cmd/incastsim
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_crossrack.json -quick \
  -cache "$OBS_TMP/sweep.cache" -shard-procs 2 -out "$OBS_TMP/sweep_cold" >"$OBS_TMP/sweep_cold.log"
grep -q '^cache: 4 rows, 4 hits, 0 computed, 0 skipped$' "$OBS_TMP/sweep_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_crossrack.json -quick \
  -cache "$OBS_TMP/sweep.cache" -out "$OBS_TMP/sweep_warm" >"$OBS_TMP/sweep_warm.log"
grep -q '^cache: 4 rows, 4 hits, 0 computed, 0 skipped$' "$OBS_TMP/sweep_warm.log"
cmp "$OBS_TMP/sweep_cold/clos_crossrack.csv" "$OBS_TMP/sweep_warm/clos_crossrack.csv"
"$OBS_TMP/incastsim" -scenario examples/scenarios/fanin_rto_grid_flow.json -quick \
  -cache "$OBS_TMP/grid.cache" -shard-procs 4 -out "$OBS_TMP/grid_cold" >"$OBS_TMP/grid_cold.log"
grep -q '^cache: 1000 rows, 1000 hits, 0 computed, 0 skipped$' "$OBS_TMP/grid_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/fanin_rto_grid_flow.json -quick \
  -cache "$OBS_TMP/grid.cache" -out "$OBS_TMP/grid_warm" >"$OBS_TMP/grid_warm.log"
cmp "$OBS_TMP/grid_cold/fanin_rto_grid_flow.csv" "$OBS_TMP/grid_warm/fanin_rto_grid_flow.csv"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -cache "$OBS_TMP/mfg.cache" -shard-procs 4 -out "$OBS_TMP/mfg_cold" >"$OBS_TMP/mfg_cold.log"
grep -q '^cache: 208 rows, 208 hits, 0 computed, 0 skipped$' "$OBS_TMP/mfg_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -cache "$OBS_TMP/mfg.cache" -out "$OBS_TMP/mfg_warm" >"$OBS_TMP/mfg_warm.log"
grep -q '^cache: 208 rows, 208 hits, 0 computed, 0 skipped$' "$OBS_TMP/mfg_warm.log"
cmp "$OBS_TMP/mfg_cold/clos_million_flow_grid.csv" "$OBS_TMP/mfg_warm/clos_million_flow_grid.csv"

echo "==> scenario gate: example specs end to end; bad spec path rejected"
go run ./cmd/incastsim -scenario examples/scenarios/ml_periodic_bursts.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/ml_periodic_bursts.csv"
go run ./cmd/incastsim -scenario examples/scenarios/fanin_scaling_flow.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/fanin_scaling_flow.csv"
go run ./cmd/incastsim -scenario examples/scenarios/pulser_fanin.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/pulser_fanin.csv"
# The headline single-run million-flow scenario: 1,048,576 flows in one
# cohort-aggregated row. The timeout is the wall-clock sanity bound — the
# run takes ~1.4 s on a 2-vCPU Xeon; if it regresses past 30 s the
# aggregation or the drop-victim index is broken.
timeout 30 "$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_single.json \
  -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/clos_million_flow_single.csv"
if go run ./cmd/incastsim -scenario "$OBS_TMP/no_such_spec.json" 2>/dev/null; then
  echo "incastsim -scenario with a missing file should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -shard 0/0 2>/dev/null; then
  echo "incastsim -shard 0/0 should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -fidelity flow -aggregation bogus 2>/dev/null; then
  echo "incastsim -aggregation bogus should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -aggregation cohort 2>/dev/null; then
  echo "incastsim -aggregation without -fidelity flow should have exited non-zero" >&2
  exit 1
fi

echo "==> bench gate: substrate micro-benchmarks + flow fast path smoke-run"
go test -run '^$' \
  -bench '^(BenchmarkSimulatorPacketRate|BenchmarkMillisamplerAnalyze|BenchmarkPredictorObserve|BenchmarkFlowsimFig5|BenchmarkFlowsimCohortFig5|BenchmarkFlowsimPerFlowFig5Point|BenchmarkFlowsimCohortFig5Point|BenchmarkClosMillionFlowSingleRun)$' \
  -benchtime=1x -benchmem . >"$OBS_TMP/bench_smoke.txt"
grep -q '^BenchmarkSimulatorPacketRate' "$OBS_TMP/bench_smoke.txt"
grep -q '^BenchmarkFlowsimFig5' "$OBS_TMP/bench_smoke.txt"
grep -q '^BenchmarkFlowsimCohortFig5Point' "$OBS_TMP/bench_smoke.txt"
grep -q '^BenchmarkClosMillionFlowSingleRun' "$OBS_TMP/bench_smoke.txt"
go test -run '^$' -bench '^BenchmarkNetEngineStep$' -benchtime=1x ./internal/flowsim >"$OBS_TMP/bench_flowsim.txt"
grep -q '^BenchmarkNetEngineStep.*ns/record-step' "$OBS_TMP/bench_flowsim.txt"
if [ "${CI_BENCH:-0}" = "1" ]; then
  echo "==> bench gate: full run refreshing BENCH_PR5.json (CI_BENCH=1)"
  go test -run '^$' \
    -bench '^(BenchmarkFig5DCTCPModes|BenchmarkExtModeBoundary|BenchmarkSimulatorPacketRate)$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_full.txt"
  go test -run '^$' \
    -bench '^(BenchmarkMillisamplerAnalyze|BenchmarkPredictorObserve)$' \
    -benchtime=1s -benchmem . >>"$OBS_TMP/bench_full.txt"
  go run ./internal/bench/benchjson -label current \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -out BENCH_PR5.json <"$OBS_TMP/bench_full.txt"
  echo "==> bench gate: packet vs flow Fig-5 sweep refreshing BENCH_PR6.json (CI_BENCH=1)"
  go test -run '^$' -bench '^BenchmarkFig5DCTCPModes$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_pr6_base.txt"
  go test -run '^$' -bench '^BenchmarkFlowsimFig5$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_pr6_cur.txt"
  go run ./internal/bench/benchjson -label baseline \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "packet-level netsim reference: quick Fig-5 DCTCP sweep (n=80/500/1400, 4 bursts)" \
    -out BENCH_PR6.json <"$OBS_TMP/bench_pr6_base.txt"
  go run ./internal/bench/benchjson -label current \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "flow-level fluid engine: same sweep at fidelity=flow; mode classification pinned by TestIncastDifferentialGate" \
    -out BENCH_PR6.json <"$OBS_TMP/bench_pr6_cur.txt"
  echo "==> bench gate: packet vs flow Clos sweeps refreshing BENCH_PR9.json (CI_BENCH=1)"
  go test -run '^$' -bench '^(BenchmarkClosCrossRackPacket|BenchmarkClosMultiAggPacket)$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_pr9_base.txt"
  go test -run '^$' -bench '^(BenchmarkClosCrossRackFlow|BenchmarkClosMultiAggFlow)$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_pr9_cur.txt"
  go run ./internal/bench/benchjson -label baseline \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "packet-level netsim reference: quick ext_clos_crossrack + ext_clos_multiagg fabric sweeps (8 racks, 2 ECMP spines)" \
    -out BENCH_PR9.json <"$OBS_TMP/bench_pr9_base.txt"
  go run ./internal/bench/benchjson -label current \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "multi-queue fluid solver: same sweeps at fidelity=flow; agreement pinned by TestClosDifferentialGate" \
    -out BENCH_PR9.json <"$OBS_TMP/bench_pr9_cur.txt"
  echo "==> bench gate: per-flow vs cohort fluid refreshing BENCH_PR10.json (CI_BENCH=1)"
  go test -run '^$' -bench '^BenchmarkFlowsimPerFlowFig5Point$' \
    -benchtime=30x -benchmem . >"$OBS_TMP/bench_pr10_base.txt"
  go test -run '^$' -bench '^(BenchmarkFlowsimCohortFig5Point|BenchmarkFlowsimCohortFig5|BenchmarkClosMillionFlowSingleRun)$' \
    -benchtime=3x -benchmem . >"$OBS_TMP/bench_pr10_cur.txt"
  go run ./internal/bench/benchjson -label baseline \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "per-flow fluid reference: 1400-degree Fig-5 point, one record per flow" \
    -out BENCH_PR10.json <"$OBS_TMP/bench_pr10_base.txt"
  go run ./internal/bench/benchjson -label current \
    -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -note "cohort-aggregated fluid: same 1400-degree point, the cohort Fig-5 sweep, and the single-run 1,048,576-flow Clos scenario; agreement pinned by TestCohortDifferentialGate" \
    -out BENCH_PR10.json <"$OBS_TMP/bench_pr10_cur.txt"
fi

echo "==> ci.sh: all checks passed"
