#!/bin/sh
# CI gate: vet, build, and the full test suite under the race detector.
# -short trims the Monte-Carlo trial budgets so the race run stays within
# a small-machine time budget; the plain `go test ./...` tier-1 gate runs
# the full budgets.
set -eux

cd "$(dirname "$0")"

gofmt_dirty=$(gofmt -l .)
test -z "$gofmt_dirty"

go vet ./...
go build ./...
go test -race -short ./...

# Benchmark module: perfbench is a nested module (it imports this one
# through a replace), so the root `go build ./...` never compiles it. Vet
# and test it here, so an API change that breaks the benchmark fails CI
# instead of the benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Chaos soak gate: the seeded short grid (24 fault-injected runs through
# the §4 recovery ladder, deterministic outcome table) under the race
# detector, time-boxed so a hung run fails fast instead of stalling CI.
# The same gate runs the platform differential: every Default soak cell, in
# notified and fused modes, at soak and serving sizes, on the timed
# cache/DRAM platform and on the functional platform requests are served
# on. Any difference in a ladder decision or a delivered answer fails.
go test -race -timeout 5m -run 'TestSoakShortDeterministic|TestSoakTimedMatchesFunctional' ./internal/recovery/soak/

# Bench smoke: compile and run every benchmark once so the GFLOP/s suite
# (kernel layer, tables/figures) can't silently rot.
go test -bench=. -benchtime=1x -run='^$' ./...

# Fused-kernel bench gate: a short wall-clock comparison of two-pass
# (FullVerify) vs fused (FusedVerify) DGEMM under fault injection. The
# test fails if the fused faulted GFLOP/s regresses below the two-pass
# faulted GFLOP/s — the perf contract behind the fused verify mode. The
# committed BENCH_fused.json baseline is the same test at n=1024. n=256 is
# the smallest size where the contract structurally holds: below it the
# whole product is cache-resident and the two-pass sweep's memory-traffic
# penalty (the cost fused detection avoids) vanishes.
FUSED_BENCH=1 FUSED_BENCH_N=256 go test -timeout 10m \
	-run 'TestFusedVsTwoPassGate' -v ./internal/abft/

# Mixed-precision f32 ABFT gates: the variance-adaptive threshold must
# detect every injected fault above its bound (no silent wrong answers)
# and never fire on clean runs across adversarial magnitude/shape
# distributions (no false-positive restarts).
go test -race -timeout 5m \
	-run 'TestGEMM32CleanSweepNoFalsePositives|TestGEMM32FaultAboveBoundAlwaysDetected|TestGEMM32BitFlipNeverSilent' \
	./internal/abft/

# Serving smoke gate: build abftd + abftload under the race detector,
# start the daemon on loopback, drive a seeded fault-injected burst
# through it, and assert zero wrong answers (abftload exits nonzero on
# any outcome outside corrected/restarted/aborted), typed rejections
# only, BENCH_serve.json emission, and a clean SIGINT drain.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -race -o "$tmp/abftd" ./cmd/abftd
go build -race -o "$tmp/abftload" ./cmd/abftload
"$tmp/abftd" -addr 127.0.0.1:18321 &
abftd_pid=$!
"$tmp/abftload" -addr http://127.0.0.1:18321 -wait 10s \
	-rates 40 -kernels gemm,cholesky -strategies "w_ck,p_ck+p_sd" \
	-verify-modes notified,fused -dtypes f64,f32 \
	-duration 2s -n 48 -fault-fraction 0.25 -fault-kind chip-failure \
	-seed 7 -bench-out "$tmp/BENCH_serve.json"
test -s "$tmp/BENCH_serve.json"
# The fused sweep axis must have produced gemm cells in the baseline,
# including the mixed-precision f32 fused cell.
grep -q '"verify_mode": "fused"' "$tmp/BENCH_serve.json"
grep -q '"dtype": "f32"' "$tmp/BENCH_serve.json"
kill -INT "$abftd_pid"
wait "$abftd_pid"

# QoS chaos gate: one race-built daemon with per-tenant quotas (20 req/s,
# burst 10), a protected tenant inside its quota against a speculative
# flood at 5x the bucket rate, with fault injection still on. The run
# fails unless the protected tenant completed >= 95% of what it sent, the
# flood saw at least one typed throttle/shed rejection, and — abftload's
# standing taxonomy gate — zero answers fell outside
# corrected/restarted/aborted.
"$tmp/abftd" -addr 127.0.0.1:18471 -tenant-rate 20 -tenant-burst 10 &
qos_pid=$!
"$tmp/abftload" -addr http://127.0.0.1:18471 -wait 10s \
	-rates 25 -kernels gemm -duration 3s -n 48 \
	-fault-fraction 0.25 -fault-kind chip-failure -seed 29 \
	-tenants "gold=protected@10,flood=speculative@100" \
	-tenant-min-complete "gold=0.95" -tenant-min-shed "flood=1"
kill -INT "$qos_pid"
wait "$qos_pid"

# Cluster smoke gate: three abftd workers behind abftgate, a seeded
# fault-injected sweep driven through the gateway, and one worker
# SIGKILLed mid-sweep. The gate requires zero wrong answers (abftload's
# taxonomy check), at least 95% of sent requests completed (the gateway's
# failover absorbed the kill), and a clean SIGINT drain of the gateway
# and the surviving workers.
go build -race -o "$tmp/abftgate" ./cmd/abftgate
"$tmp/abftd" -addr 127.0.0.1:18431 &
n1=$!
"$tmp/abftd" -addr 127.0.0.1:18432 &
n2=$!
"$tmp/abftd" -addr 127.0.0.1:18433 &
n3=$!
"$tmp/abftgate" -addr 127.0.0.1:18430 \
	-nodes "http://127.0.0.1:18431,http://127.0.0.1:18432,http://127.0.0.1:18433" \
	-probe-interval 150ms -breaker-cooldown 500ms -seed 11 &
gate=$!
"$tmp/abftload" -addr http://127.0.0.1:18430 -wait 10s \
	-rates 30 -kernels gemm,cholesky -strategies "w_ck,p_ck+p_sd" \
	-duration 4s -n 48 -fault-fraction 0.25 -fault-kind chip-failure \
	-seed 11 -retry-429 2 -min-complete 0.95 &
load=$!
sleep 6
kill -KILL "$n2"
wait "$load"
kill -INT "$gate"
wait "$gate"
kill -INT "$n1" "$n3"
wait "$n1"
wait "$n3"
wait "$n2" || true

# Kill-mid-job chaos gate: three workers behind the gateway with sharding
# on, one large GEMM job submitted through the async jobs API, and one
# worker SIGKILLed at the first poll showing the job running with blocks
# outstanding. The gate requires the job to finish done with the
# bit-exact reference digest (-job-verify recomputes the product
# client-side), recovery purely by checksum-block reconstruction
# (reconstructions >= 1), and zero block recomputation (abftload exits
# nonzero on recomputes > 0).
#
# The victim is the third worker: the shard plan is deterministic for a
# fixed job seed and node order, and under seed 13 the third node holds
# the 2x2 grid's data-only slot — two data blocks in different grid
# columns, serialized by -block-concurrency 1 — so an early strike
# always leaves at least one data block to reconstruct (a victim owning
# completed blocks plus only checksum blocks would recover with
# reconstructions=0, which this gate must distinguish from a recompute).
# Striking at the first running poll, not after a completed block, keeps
# the race window closed on loaded hosts: a starved poller that waits
# for "1 done" can observe it only after the victim already finished
# everything it owned.
"$tmp/abftd" -addr 127.0.0.1:18441 -block-concurrency 1 &
j1=$!
"$tmp/abftd" -addr 127.0.0.1:18442 -block-concurrency 1 &
j2=$!
"$tmp/abftd" -addr 127.0.0.1:18443 -block-concurrency 1 &
j3=$!
"$tmp/abftgate" -addr 127.0.0.1:18440 \
	-nodes "http://127.0.0.1:18441,http://127.0.0.1:18442,http://127.0.0.1:18443" \
	-shard-threshold 64 -shard-block 256 \
	-probe-interval 150ms -breaker-cooldown 500ms -seed 13 &
jgate=$!
"$tmp/abftload" -addr http://127.0.0.1:18440 -wait 10s \
	-jobs 1 -job-n 512 -job-verify -job-timeout 120s -seed 13 \
	-job-kill-pid "$j3"

# Cross-check the same invariants from the gateway's own counters
# (expvar renders compact JSON): reconstructions >= 1, block_recomputes
# == 0.
vars=$(curl -s http://127.0.0.1:18440/debug/vars)
echo "$vars" | grep -q '"block_recomputes":0'
if echo "$vars" | grep -q '"reconstructions":0'; then
	echo "gateway metrics report zero reconstructions" >&2
	exit 1
fi

kill -INT "$jgate"
wait "$jgate"
kill -INT "$j1" "$j2"
wait "$j1"
wait "$j2"
wait "$j3" || true

# SIGKILL-mid-CG chaos gate: two workers behind the gateway with tight
# checkpoint streaming, and abftload's migrate-vs-cold-restart experiment
# (-recover-out). abftload first runs an undisturbed CG long job to price
# a full restart, then re-runs the same solve and SIGKILLs whichever
# worker is executing it once the gateway has accepted a checkpoint. It
# exits nonzero unless the job migrated (migrations >= 1), resumed from a
# step > 0 (a cold restart on the replacement is a failure), converged
# corrected (zero wrong answers), and the gateway-measured fault-to-
# resumed latency beat the cold baseline's wall time — the comparison is
# written to BENCH_recover.json. -self-url is what workers dial to stream
# checkpoints back, so it must be the gateway's loopback address.
"$tmp/abftd" -addr 127.0.0.1:18451 &
c1=$!
"$tmp/abftd" -addr 127.0.0.1:18452 &
c2=$!
"$tmp/abftgate" -addr 127.0.0.1:18450 \
	-nodes "http://127.0.0.1:18451,http://127.0.0.1:18452" \
	-self-url http://127.0.0.1:18450 -checkpoint-every 2 \
	-probe-interval 150ms -breaker-cooldown 500ms -seed 17 &
cgate=$!
"$tmp/abftload" -addr http://127.0.0.1:18450 -wait 10s \
	-job-kernel cg -job-nx 64 -job-ny 64 -job-timeout 120s -seed 17 \
	-job-kill-nodes "127.0.0.1:18451=$c1,127.0.0.1:18452=$c2" \
	-recover-checkpoint-every 2 -recover-out "$tmp/BENCH_recover.json"
test -s "$tmp/BENCH_recover.json"
grep -q '"bench": "recover"' "$tmp/BENCH_recover.json"
grep -q '"outcome": "corrected"' "$tmp/BENCH_recover.json"

# Cross-check from the gateway's own counters: at least one migration and
# one stored checkpoint, a push-detected node death, and no job the
# cluster lost.
cvars=$(curl -s http://127.0.0.1:18450/debug/vars)
if echo "$cvars" | grep -q '"migrations":0[,}]'; then
	echo "gateway metrics report zero migrations" >&2
	exit 1
fi
if echo "$cvars" | grep -q '"checkpoints_stored":0[,}]'; then
	echo "gateway metrics report zero stored checkpoints" >&2
	exit 1
fi
echo "$cvars" | grep -q '"jobs_failed":0[,}]'

kill -INT "$cgate"
wait "$cgate"
# One worker was SIGKILLed by abftload; drain whichever survived.
kill -INT "$c1" 2>/dev/null || true
kill -INT "$c2" 2>/dev/null || true
wait "$c1" || true
wait "$c2" || true

# Lying-node vote gate: three workers behind the gateway, the third one
# Byzantine (-byzantine-lie 1.0: every integrity-tier answer is a
# well-formed, internally consistent, WRONG product). A 64-request seeded
# integrity=vote sweep must deliver zero answers from the liar
# (-forbid-node makes abftload exit nonzero on any), reach quorum on every
# election (two honest replicas outvote one liar, so quorum_fail stays 0
# even while the liar's breaker cycles), and charge the liar's suspect
# tally until its breaker trips on lost elections alone — the Byzantine
# signal transport-level breakers cannot see.
"$tmp/abftd" -addr 127.0.0.1:18461 &
v1=$!
"$tmp/abftd" -addr 127.0.0.1:18462 &
v2=$!
"$tmp/abftd" -addr 127.0.0.1:18463 -byzantine-lie 1.0 -byzantine-seed 99 &
v3=$!
"$tmp/abftgate" -addr 127.0.0.1:18460 \
	-nodes "http://127.0.0.1:18461,http://127.0.0.1:18462,http://127.0.0.1:18463" \
	-vote-replicas 3 -suspect-trip 3 \
	-probe-interval 150ms -breaker-cooldown 500ms -seed 19 &
vgate=$!
"$tmp/abftload" -addr http://127.0.0.1:18460 -wait 10s \
	-kernels gemm -integrity vote -requests 64 -rates 40 -n 48 \
	-seed 19 -retry-429 2 -forbid-node 127.0.0.1:18463

# Cross-check from the gateway's own counters: elections happened, every
# one reached quorum, and the liar (and only the liar) accumulated
# suspects and a suspect-trip. The global suspect_trips key collides with
# the per-node one under grep, so the per-node assertions go through jq.
vvars=$(curl -s http://127.0.0.1:18460/debug/vars)
echo "$vvars" | grep -q '"quorum_fail":0[,}]'
if echo "$vvars" | grep -q '"votes_total":0[,}]'; then
	echo "gateway metrics report zero vote elections" >&2
	exit 1
fi
if echo "$vvars" | grep -q '"suspects_total":0[,}]'; then
	echo "gateway metrics report zero suspects" >&2
	exit 1
fi
test "$(echo "$vvars" | jq '.cluster.nodes["127.0.0.1:18463"].suspects')" -ge 3
test "$(echo "$vvars" | jq '.cluster.nodes["127.0.0.1:18463"].suspect_trips')" -ge 1
test "$(echo "$vvars" | jq '.cluster.nodes["127.0.0.1:18461"].suspects')" -eq 0
test "$(echo "$vvars" | jq '.cluster.nodes["127.0.0.1:18462"].suspects')" -eq 0

# Verify-vote phase against the same pool: the DCRFT-style mode must bank
# cheap O(n^2) verification passes (verify_vote_cheap_hits > 0) and still
# never deliver the liar's product — elections where the liar is primary
# end in a typed abort, which abftload counts as a classified outcome.
"$tmp/abftload" -addr http://127.0.0.1:18460 -wait 10s \
	-kernels gemm -integrity verify-vote -requests 32 -rates 40 -n 48 \
	-seed 23 -retry-429 2 -forbid-node 127.0.0.1:18463
wvars=$(curl -s http://127.0.0.1:18460/debug/vars)
if echo "$wvars" | grep -q '"verify_vote_cheap_hits":0[,}]'; then
	echo "gateway metrics report zero cheap verification hits" >&2
	exit 1
fi

kill -INT "$vgate"
wait "$vgate"
kill -INT "$v1" "$v2" "$v3"
wait "$v1"
wait "$v2"
wait "$v3"
