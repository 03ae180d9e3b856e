#!/usr/bin/env bash
# CI gate: vet, build, the full test suite under the race detector, and a
# doubled run of the chaos suite.
#
# The race run is the point of this script — the engine's parallel fetch
# pool, the answer cache, and the profile registry are all exercised by
# dedicated concurrency tests (race_test.go, determinism_test.go,
# internal/anscache) that only bite under -race.
#
# The chaos suite (chaos_test.go) arms internal/faultinject and hammers
# the engine with 32 goroutines while errors, panics, and latency fire at
# the injection sites; -count=2 reruns it to catch state leaking between
# runs (a fault plan left armed, a poisoned cache). The full-suite pass
# above runs it with -short (scaled-down iteration counts) to keep tier-1
# wall clock flat; the dedicated pass below runs it at full strength.
#
# The crash-torture pass (persist_crash_test.go) kills the WAL at every
# byte offset and bit-flips both durability files; the -short run above
# strides through offsets, this dedicated pass covers every single one
# under -race. The fuzz smoke then runs the durability fuzz targets
# (snapshot decoder, WAL replayer, delta decoder, index-snapshot decoder)
# for 10s each on top of the checked-in corpus — long enough to catch a
# regression in the decoders' bounds checks, short enough for CI.
#
# The incremental-checkpoint torture pass (persist_delta_crash_test.go,
# internal/wal delta_test.go) recovers the same scripted workload from
# every checkpoint-chain depth byte-identically, damages every byte of
# the base snapshot and every delta in the chain (committed deltas must
# hard-fail with an attributed CorruptionError — their covering logs are
# GC'd, so dropping one would lose data), and damages every byte of the
# persisted inverted index (which must NEVER fail an open: stale or
# corrupt index files silently fall back to a rebuild). It runs under
# -race with its own timeout because checkpoints now run concurrently
# with mutations — the serialize/fsync phase happens off the engine
# lock against captured copy-on-write state.
#
# The replication convergence suite (replication_test.go, internal/repl)
# severs the primary→follower stream at swept byte offsets, injects
# send/recv/corruption faults around every live mutation, and storms a
# replicated pair — all under -race, because the follower applies the
# stream on one goroutine while queries read on others. The repl fuzz
# smoke feeds the follower's frame decoder raw adversarial bytes for 10s;
# its checked-in corpus includes MsgAck frames, so the primary's ack
# decode path is fuzzed alongside the follower's stream decoder.
#
# The quorum torture suite (quorum_replication_test.go) exercises
# synchronous replication's durability contract: it kills the primary
# after every quorum-acked mutation and promotes the durable follower,
# asserting the promoted copy equals the exact acked prefix (every acked
# write present, no unacked write surfaced); it also truncates the dead
# primary's WAL at swept byte strides, injects faults on the ack
# send/recv and follower-fsync sites mid-commit, and drives the
# ErrQuorumLost and sticky degraded-async fallback paths. It gets its own
# -race step with a per-step timeout because a quorum bug's natural
# failure mode is a writer blocked forever on an ack that never comes.
#
# The failover torture suite (failover_test.go, internal/repl
# failover_test.go) kills the primary after every acked mutation and
# promotes the follower IN PLACE via Engine.Promote, asserting the new
# primary serves exactly the acked prefix at the bumped epoch, that a
# live-deposed or resurrected old primary answers every mutation kind
# with the typed ErrFenced, and that the deposed directory rejoins as a
# follower through a forced snapshot bootstrap that truncates its
# diverged WAL suffix. It runs under -race with its own timeout for the
# same reason the quorum step does: promotion races Close and the
# supervisor's election loop, and a fencing bug's natural failure mode
# is a hang or a silent split brain, not a clean assertion.
#
# The sharding suite (shard_test.go, internal/shard) holds sharded
# answers byte-identical to the single engine across datasets,
# partitioners, shard counts, and pool sizes; kills and reopens every
# shard directory mid-storm; and storms the coordinator from 24
# goroutines under rotating scatter/gather/apply faults — all under
# -race, because the gather path merges per-shard goroutine results
# while mutations route concurrently. The quick sharded bench run at
# the end re-checks answer parity through the bench harness itself.
#
# The bench smoke step compiles and runs every benchmark exactly once
# (-benchtime=1x) with no tests (-run=NONE). It does not measure anything;
# it keeps the benchmark code itself from rotting — a benchmark that no
# longer compiles or fatals on its first iteration fails CI here instead
# of on the next perf investigation.
#
# The perfbench step vets and tests the repository benchmark. perfbench/
# is its own Go module (it replaces precis with ../), so the root
# `go test ./...` never builds it: without this step a change to a wal,
# repl or engine signature could break the benchmark unseen. Its smoke
# test drives every workload briefly, traced and untraced (~25 s).
#
# Every go test step carries an explicit -timeout so a deadlocked suite
# (the usual failure mode of replication and chaos bugs) kills the step
# instead of hanging the CI job until the outer scheduler reaps it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (-short chaos)"
go test -race -count=1 -short -timeout=10m ./...

echo "== chaos suite -race -count=2 (full strength)"
go test -race -count=2 -timeout=10m -run 'TestChaos' .

echo "== crash torture -race (full strength: every WAL byte offset)"
go test -race -count=1 -timeout=10m -run 'TestCrashTorture' .

echo "== incremental checkpoint torture -race (chain depths, every chain/index byte)"
go test -race -count=1 -timeout=15m -run 'TestDeltaChain|TestPersistedIndex' .
go test -race -count=1 -timeout=10m -run 'TestDelta|TestStore|TestApplyDelta|TestIndexSnapshot' ./internal/wal ./internal/invidx

echo "== replication convergence -race (full strength: swept link cuts)"
go test -race -count=1 -timeout=10m -run 'TestRepl|TestChaosReplicatedStorm' .
go test -race -count=1 -timeout=10m ./internal/repl

echo "== quorum torture -race (primary kills after every acked write, ack faults)"
go test -race -count=1 -timeout=10m -run 'TestQuorum|TestFollowerResume' .

echo "== failover torture -race (kill/promote after every acked write, fencing)"
go test -race -count=1 -timeout=10m -run 'TestFailover|TestPromote|TestDeposed|TestAutoFailover' .

echo "== sharding -race (byte-parity sweep, crash recovery, faulted storm)"
go test -race -count=1 -timeout=10m -run 'TestSharded' .
go test -race -count=1 -timeout=5m ./internal/shard

echo "== fuzz smoke (10s per durability target)"
go test -timeout=5m -run=NONE -fuzz='FuzzSnapshotDecode' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzWALReplay' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzDeltaDecode' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzIndexSnapshotDecode' -fuzztime=10s ./internal/invidx
go test -timeout=5m -run=NONE -fuzz='FuzzReplFrameDecode' -fuzztime=10s ./internal/repl

echo "== bench smoke (compile + one iteration)"
go test -timeout=10m -run=NONE -bench=. -benchtime=1x ./...

echo "== sharded bench smoke (quick parity-checked runs)"
go run ./cmd/precis-bench -quick -shards -rebuild

echo "== perfbench module (vet + smoke of every workload)"
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off && go vet ./... && go test -count=1 -timeout=10m ./...)

echo "CI OK"
