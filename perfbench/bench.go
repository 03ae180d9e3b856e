package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/web"
)

// workload is one traffic mix. Every workload runs against the same
// durable, cached, instrumented engine behind the precis-server handler;
// the fields say which clients drive it. BENCHMARK.json and README.md
// record why each workload exists.
type workload struct {
	name string
	// fsync is the WAL policy of the engine (and follower). Per-commit
	// fsync is not used: on a virtual machine that shares its disk, fsync
	// latency swings 20-50% between runs with the neighbours' load, which
	// would drown every engine change in device noise.
	fsync precis.FsyncPolicy
	// readers closed-loop clients GET /api/search; heavy selects the
	// query-heavy request stream, otherwise the query-hot-rw vocabulary.
	readers int
	heavy   bool
	// writers closed-loop clients, or one open-loop client at writeRate
	// mutations per second.
	writers   int
	writeRate float64
	// followers durable followers each group commit waits for.
	followers int
	// checkpointEvery makes the benchmark call Engine.Checkpoint on this
	// tick, with the background triggers off and the chain compacted every
	// compactEvery checkpoints (PersistConfig.CompactEvery); zero keeps
	// precis-server's defaults.
	checkpointEvery time.Duration
	compactEvery    int
}

// cycle is the length of one checkpoint cycle, from one compaction to the
// next; zero when the run never compacts on a schedule.
func (w *workload) cycle() time.Duration {
	return time.Duration(w.compactEvery) * w.checkpointEvery
}

var workloads = []*workload{
	// Big answers to thousands of distinct keys: db_gen, sqlx and translate.
	{name: "query-heavy", readers: 2, heavy: true, fsync: precis.FsyncInterval},
	// Small, mostly repeated answers beside a steady writer that purges the
	// cache: index lookup, cache, web encoding and the engine lock.
	{name: "query-hot-rw", readers: 1, writeRate: 50, fsync: precis.FsyncInterval},
	// Storage apply, index maintenance, WAL and checkpoints, reads idle.
	{name: "write-durable", writers: 2, fsync: precis.FsyncInterval, checkpointEvery: time.Second, compactEvery: 4},
	// The write-durable stream plus a synchronous follower. Compaction is
	// measured on write-durable; here it would only add a CPU-bound stall
	// on both nodes to every quorum wait, so the chain grows by deltas for
	// the whole run. Under fsync=interval a commit would wait for the
	// primary's 50 ms flush tick before it could even be streamed, so both
	// nodes run fsync=never and the quorum wait is the round trip itself.
	{name: "write-quorum", writers: 2, followers: 1, fsync: precis.FsyncNever, checkpointEvery: time.Second, compactEvery: 64},
}

// windows bounds the windows a phase is cut into: on the load phase of a
// workload that compacts within the run, no window is shorter than a
// checkpoint cycle, so on a run of whole cycles each window holds one
// compaction.
func (w *workload) windows(load bool, seconds float64) int {
	cycle := w.cycle().Seconds()
	if !load || cycle == 0 || cycle > seconds {
		return maxWindows
	}
	return min(maxWindows, int(seconds/cycle))
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Fixed sizes of the parts of a run that are not timed by --seconds.
const (
	setupReps    = 3     // set-ups per run; setup_s is their median
	recoveryReps = 5     // crash-copy reopens per run; recovery_s is their median
	readProbeN   = 6000  // distinct served queries around a write workload's load
	writeProbeN  = 80000 // mutations after a query-heavy run: about a second, under the 4 MiB checkpoint trigger
	heavyCheckN  = 48    // query-heavy answers compared with the reference engine
	hotCheckN    = 512   // query-hot-rw answers compared with a recomputation
)

type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch, trace dumps and saved results
	films   int
}

type metric struct {
	name, unit string
	value      float64
	note       string // sample count and percentile, for the human listing
}

type report struct {
	attempted, failed int
	errors            []string // failed operations
	problems          []string // wrong outputs
	metrics           []metric
	lines             []string
}

func (rp *report) add(name, unit string, v float64, note string) {
	rp.metrics = append(rp.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// counters are the engine's own counters at one instant; a window's work
// is the difference of two snapshots.
type counters struct {
	walBytes, walRecords, fsyncs uint64
	fsyncSecs, querySecs         float64
	cache                        precis.CacheStats
	persist                      precis.PersistStats
	replSent                     uint64
}

func snapshot(r *rig) counters {
	fs, qs := r.reg.Histogram(precis.MetricWALFsyncSeconds), r.reg.Histogram(precis.MetricQuerySeconds)
	c := counters{
		walBytes:   r.reg.Counter(precis.MetricWALBytes).Load(),
		walRecords: r.reg.Counter(precis.MetricWALRecords).Load(),
		fsyncs:     fs.Count(), fsyncSecs: fs.SumSeconds(),
		querySecs: qs.SumSeconds(),
		cache:     r.eng.CacheStats(),
		persist:   r.eng.PersistStats(),
	}
	if p := r.eng.ReplStats().Primary; p != nil {
		c.replSent = p.SentBytes
	}
	return c
}

// run sets the workload up setupReps times, drives the last set-up for
// cfg.seconds, runs the probes that give every end-to-end metric a value,
// checks the outputs and reports.
func run(cfg config) (*report, error) {
	w := cfg.w
	runDir := filepath.Join(cfg.work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	in, err := newInputs(cfg.films, cfg.seed, max(w.writers, 1))
	if err != nil {
		return nil, err
	}

	var setups []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(runDir, "rig-"+strconv.Itoa(i))
		settle()
		start := time.Now()
		if r, err = setupRig(w, dir, cfg.films); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			r.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer r.close()

	writes0 := w.writers > 0 || w.writeRate > 0
	d := &driver{w: w, r: r, in: in, stable: !writes0}
	if cfg.trace {
		d.tr = newTracer()
		if d.rd, err = newRedriver(r.eng); err != nil {
			return nil, err
		}
		if d.mir, err = newMirror(cfg.films, runDir, w.fsync); err != nil {
			return nil, err
		}
		defer d.mir.side.Close()
		d.gated = w.readers > 0 && writes0
	}

	before := snapshot(r)
	ckpt := ckptStats{indexSeen: map[string]bool{}}
	indexBytes(r.primaryDir(), ckpt.indexSeen)
	// reads and writes are the phases the query and commit metrics come
	// from: the load itself, or the probes where the load has none.
	var phases, reads, writes []*phaseResult
	// A follower catches up before anything is timed, here and after the
	// load.
	var problems []string
	converge := func() {
		if r.follower != nil {
			if err := r.converge(10 * time.Second); err != nil {
				problems = append(problems, err.Error())
			}
		}
	}
	converge()
	// The read probe runs in two halves, before and after the load, so a
	// burst of CPU steal on the host spoils at most part of it.
	probe := probeQueries(in.hot)
	readProbe := func(qs []query) {
		d.stable = true
		settle()
		ph := d.readProbe(qs)
		phases, reads = append(phases, ph), append(reads, ph)
		d.stable = !writes0
	}
	if w.readers == 0 {
		readProbe(probe[:len(probe)/2])
	}
	settle()
	main := d.load(cfg.seconds, cfg.seed, &ckpt)
	phases = append(phases, main)
	converge()
	if w.readers == 0 {
		readProbe(probe[len(probe)/2:])
	} else {
		reads = []*phaseResult{main}
	}
	if writes0 {
		writes = []*phaseResult{main}
	} else {
		settle()
		ph := d.writeProbe(writeProbeN)
		phases, writes = append(phases, ph), []*phaseResult{ph}
	}
	after := snapshot(r)
	ckpt.indexB += indexBytes(r.primaryDir(), ckpt.indexSeen)
	heap := heapMB()

	rp := &report{problems: append(problems, ckpt.problems...)}
	var userBytes int64
	for _, ph := range phases {
		for _, c := range append(append([]*clientResult(nil), ph.reads...), ph.writes...) {
			rp.attempted += c.attempted
			rp.failed += c.failed
			userBytes += c.userBytes
			rp.errors = append(rp.errors, c.errors...)
			rp.problems = append(rp.problems, c.problems...)
		}
	}

	// Output checks.
	if w.heavy {
		rp.problems = append(rp.problems, checkHeavy(cfg, main.reads)...)
	} else if w.readers > 0 {
		rp.problems = append(rp.problems, checkServed(r, main.reads, cfg.seed)...)
	}
	rec, err := r.recoverCopies(w, recoveryReps)
	if err != nil {
		rp.problems = append(rp.problems, err.Error())
	}

	qs := phaseSummary(reads, readsOf, w.windows(reads[0] == main, cfg.seconds))
	cs := phaseSummary(writes, writesOf, w.windows(writes[0] == main, cfg.seconds))
	diskBytes := float64(after.walBytes-before.walBytes) + ckptBytes(before, after, ckpt)
	rp.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rp.add("heap_mb", "MB", heap, "heap in use after the load and a GC")
	rp.add("ok_ratio", "ratio", ratio(float64(rp.attempted-rp.failed), float64(rp.attempted)),
		fmt.Sprintf("%d of %d operations succeeded", rp.attempted-rp.failed, rp.attempted))
	rp.add("query_p50_ms", "ms", qs.p50, qs.note(reads[0] != main))
	rp.add("query_p99_ms", "ms", qs.tail, fmt.Sprintf("p%.4g, %s", qs.tailPct, qs.note(reads[0] != main)))
	rp.add("query_throughput_qps", "1/s", qs.rate, qs.note(reads[0] != main))
	rp.add("commit_p50_ms", "ms", cs.p50, cs.note(writes[0] != main))
	rp.add("commit_p99_ms", "ms", cs.tail, fmt.Sprintf("p%.4g, %s", cs.tailPct, cs.note(writes[0] != main)))
	rp.add("commit_throughput_ops", "1/s", cs.rate, cs.note(writes[0] != main))
	rp.add("recovery_s", "s", median(rec.seconds), fmt.Sprintf("median of %d reopens", len(rec.seconds)))
	rp.add("disk_bytes_per_user_byte", "ratio", ratio(diskBytes, float64(userBytes)),
		fmt.Sprintf("%.0f bytes written for %d payload bytes", diskBytes, userBytes))

	if cfg.trace {
		layers(rp, d, cfg, phases, reads, writes, before, after, ckpt, rec, userBytes)
	}
	return rp, nil
}

// probeQueries is the read probe of the write workloads: the same
// readProbeN distinct hot-rw queries on every seed, each of which misses
// the cache.
func probeQueries(hot []query) []query {
	perm := rand.New(rand.NewSource(datasetSeed)).Perm(len(hot))
	out := make([]query, 0, readProbeN)
	for _, i := range perm[:min(readProbeN, len(perm))] {
		out = append(out, hot[i])
	}
	return out
}

// checkHeavy compares a seeded sample of the served query-heavy answers
// with a single-threaded, uncached reference engine built from the same
// dataset.
func checkHeavy(cfg config, reads []*clientResult) []string {
	served := map[string][32]byte{}
	var problems []string
	for _, c := range reads {
		for q, sum := range c.answers {
			if prev, ok := served[q]; ok && prev != sum {
				problems = append(problems, fmt.Sprintf("clients got different answers to %q", q))
			}
			served[q] = sum
		}
	}
	db, g, err := buildDataset(cfg.films)
	if err != nil {
		return []string{err.Error()}
	}
	ref, err := precis.New(db, g)
	if err != nil {
		return []string{err.Error()}
	}
	for _, def := range dataset.StandardMacros() {
		if err := ref.DefineMacro(def); err != nil {
			return []string{err.Error()}
		}
	}
	h := web.NewServerWithConfig(ref, web.Config{}).Handler()
	rec := &recorder{}
	for _, q := range sample(served, heavyCheckN, cfg.seed) {
		u := query{q: q, w: heavyW, card: heavyCard}.url() + "&workers=-1"
		code, body, err := rec.serve(h, u)
		if err != nil || code != 200 {
			problems = append(problems, fmt.Sprintf("reference GET %s: status %d %v", u, code, err))
		} else if answerDigest(body) != served[q] {
			problems = append(problems, fmt.Sprintf("served answer to %q differs from the reference engine", q))
		}
	}
	return problems
}

// checkServed serves a seeded sample of the distinct query-hot-rw queries
// once with the cache as the run left it, then again with the cache off,
// and requires identical answers: cached answers must never be stale.
func checkServed(r *rig, reads []*clientResult, seed int64) []string {
	distinct := map[string][32]byte{}
	for _, c := range reads {
		for q := range c.answers {
			distinct[q] = [32]byte{}
		}
	}
	qs := sample(distinct, hotCheckN, seed)
	rec := &recorder{}
	sums := make([][32]byte, len(qs))
	var problems []string
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			r.eng.DisableCache()
		}
		for i, q := range qs {
			code, body, err := rec.serve(r.handler, query{q: q}.url())
			if err != nil || code != 200 {
				problems = append(problems, fmt.Sprintf("check GET %q: status %d %v", q, code, err))
				continue
			}
			if sum := answerDigest(body); pass == 0 {
				sums[i] = sum
			} else if sum != sums[i] {
				problems = append(problems, fmt.Sprintf("served answer to %q differs from an uncached recomputation", q))
			}
		}
	}
	r.eng.EnableCache(precis.CacheConfig{MaxEntries: cacheEntries, TTL: cacheTTL})
	return problems
}

// sample picks up to n keys of m in a seeded order.
func sample[V any](m map[string]V, n int, seed int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed+29)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys[:min(n, len(keys))]
}

func readsOf(ph *phaseResult) []*clientResult  { return ph.reads }
func writesOf(ph *phaseResult) []*clientResult { return ph.writes }

// latencies gathers the samples of the chosen clients of phases.
func latencies(phases []*phaseResult, of func(*phaseResult) []*clientResult) []float64 {
	var out []float64
	for _, ph := range phases {
		for _, c := range of(ph) {
			out = append(out, c.lat...)
		}
	}
	return out
}

// ckptBytes is what checkpoints wrote in the window: delta and full
// snapshot files plus the inverted-index files compactions persist.
func ckptBytes(before, after counters, ckpt ckptStats) float64 {
	return float64(after.persist.DeltaBytesWritten-before.persist.DeltaBytesWritten) +
		float64(after.persist.FullBytesWritten-before.persist.FullBytesWritten) + float64(ckpt.indexB)
}

// settle runs before every timed part of a run: a collected heap, so
// earlier garbage does not bill it, and no dirty page cache left for the
// kernel to write back under it (set-up writes tens of megabytes of
// snapshots that would otherwise be flushed in the middle of the load,
// slowing every fsync).
func settle() {
	runtime.GC()
	syscall.Sync()
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
