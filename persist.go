package precis

// Durable persistence: Open mounts a data directory holding a checksummed
// checkpoint chain (a full binary snapshot plus zero or more incremental
// deltas) and an append-only WAL (internal/wal), recovers whatever a
// previous process left — loading the chain, replaying the log, truncating
// a torn tail, hard-failing on real corruption — and from then on logs
// every engine mutation write-ahead-style. Checkpoint (manual,
// size-triggered, or time-triggered) runs in two phases: a brief rotation
// plus dirty capture under the mutation lock (O(changed tuples), not
// O(database)), then the serialization and fsync entirely off-lock —
// usually as a small delta extending the chain, periodically (CompactEvery
// / CompactBytes) as a full compaction that also persists the inverted
// index beside the snapshot so the next open can load it instead of
// rebuilding. Engines built with New stay purely in-memory: the query hot
// path never touches any of this (the only cost is a nil check on the
// mutation paths), so cached-query allocation counts are unchanged.

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"precis/internal/invidx"
	"precis/internal/obs"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/wal"
)

// ErrNotPersistent is returned by Checkpoint on an engine built without a
// data directory.
var ErrNotPersistent = errors.New("precis: engine has no persistence layer")

// FsyncPolicy re-exports the WAL durability policies.
type FsyncPolicy = wal.FsyncPolicy

// The WAL fsync policies: FsyncAlways makes every returned mutation
// durable (group-committed), FsyncInterval flushes on a timer, FsyncNever
// leaves flushing to the OS.
const (
	FsyncAlways   = wal.FsyncAlways
	FsyncInterval = wal.FsyncInterval
	FsyncNever    = wal.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// DefaultCheckpointBytes triggers a checkpoint when the WAL reaches this
// size and PersistConfig.CheckpointBytes is zero.
const DefaultCheckpointBytes = 4 << 20

// DefaultCompactEvery caps the checkpoint chain at this many elements (one
// full snapshot plus deltas) when PersistConfig.CompactEvery is zero; the
// checkpoint that would exceed it compacts the chain instead.
const DefaultCompactEvery = 8

// DefaultCompactBytes compacts the chain when its delta files total this
// many bytes and PersistConfig.CompactBytes is zero.
const DefaultCompactBytes = 64 << 20

// PersistConfig tunes the persistence layer.
type PersistConfig struct {
	// Dir is the data directory. Empty disables persistence entirely (Open
	// degenerates to New).
	Dir string
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval paces FsyncInterval flushing (0: wal.DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CheckpointBytes checkpoints when the WAL reaches this size. Zero
	// means DefaultCheckpointBytes; negative disables the size trigger.
	CheckpointBytes int64
	// CheckpointEvery checkpoints on a timer; 0 disables the time trigger.
	CheckpointEvery time.Duration
	// CompactEvery caps the checkpoint chain length (full snapshot + deltas):
	// the checkpoint that would push the chain past it writes a full
	// compaction instead of a delta. Zero means DefaultCompactEvery; negative
	// disables delta checkpointing entirely (every checkpoint is full).
	CompactEvery int
	// CompactBytes compacts the chain when its delta files total this many
	// bytes, whatever the chain length. Zero means DefaultCompactBytes;
	// negative disables the byte trigger.
	CompactBytes int64
	// Logger receives recovery and checkpoint notes; nil uses log.Default().
	Logger *log.Logger
}

// persistState is the engine's persistence plumbing; nil on in-memory
// engines.
type persistState struct {
	store     *wal.Store
	cfg       PersistConfig
	logger    *log.Logger
	recovered wal.Recovered

	// indexLoaded records whether recovery loaded the persisted inverted
	// index (true) or rebuilt it from the tuples (false). Set once at open.
	indexLoaded bool

	// closed is guarded by the engine mutex.
	closed bool

	// ckptMu serializes whole checkpoints: the store's Begin/Complete
	// protocol assumes one in flight, and Close takes it before the final
	// full checkpoint. Always acquired before the engine mutex.
	ckptMu sync.Mutex
	// lastPauseNS is the mutation-lock hold time of the last checkpoint's
	// begin-and-capture phase, in nanoseconds.
	lastPauseNS atomic.Int64
	// pauseHist, when instrumented, observes that pause per checkpoint.
	pauseHist atomic.Pointer[obs.Histogram]

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// compactionDue decides delta versus full for the checkpoint begun on top
// of prevChain: full when the chain would outgrow CompactEvery or its
// delta files outgrow CompactBytes.
func (p *persistState) compactionDue(prevChain []uint64) bool {
	every := p.cfg.CompactEvery
	if every == 0 {
		every = DefaultCompactEvery
	}
	if every < 0 {
		return true
	}
	if len(prevChain) >= every {
		return true
	}
	bytes := p.cfg.CompactBytes
	if bytes == 0 {
		bytes = DefaultCompactBytes
	}
	return bytes > 0 && p.store.ChainDeltaBytes() >= bytes
}

// indexRecovery implements wal.RecoveryObserver: it loads the persisted
// inverted-index snapshot for the base generation and keeps it current
// through delta application and WAL replay, so the engine can skip the
// from-scratch rebuild. Any defect in the file — absence, corruption,
// version skew (format or tokenizer), a stale generation stamp — silently
// falls back to the rebuild; a persisted index is an optimization, never a
// requirement.
type indexRecovery struct {
	dir    string
	logger *log.Logger
	ix     *invidx.Index
	loaded bool
}

func (r *indexRecovery) RecoveryBase(gen uint64, db *storage.Database) {
	path := filepath.Join(r.dir, wal.IndexSnapshotName(gen))
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			r.logger.Printf("precis: cannot read persisted index %s (%v); rebuilding", path, err)
		}
		return
	}
	ix, fileGen, err := invidx.DecodeSnapshot(raw, db)
	if err != nil {
		r.logger.Printf("precis: persisted index %s unusable (%v); rebuilding", path, err)
		return
	}
	if fileGen != gen {
		r.logger.Printf("precis: persisted index %s stamped for generation %d, want %d; rebuilding", path, fileGen, gen)
		return
	}
	r.ix = ix
	r.loaded = true
}

func (r *indexRecovery) RecoveryApply(relation string, old, new *storage.Tuple) {
	if r.ix == nil {
		return
	}
	if old != nil {
		r.ix.RemoveTuple(relation, *old)
	}
	if new != nil {
		r.ix.AddTuple(relation, *new)
	}
}

// RecoveryStats reports what Open reconstructed from disk.
type RecoveryStats struct {
	// SnapshotLoaded is false on a fresh directory.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotPath is the snapshot file recovery started from.
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// ChainDepth is the checkpoint chain length recovery loaded (1 = full
	// snapshot only; each delta adds one). Zero on a fresh directory.
	ChainDepth int `json:"chain_depth,omitempty"`
	// DeltasApplied counts delta checkpoints applied on top of the base
	// snapshot.
	DeltasApplied int `json:"deltas_applied,omitempty"`
	// IndexLoaded is true when the inverted index was loaded from its
	// persisted snapshot instead of rebuilt from the tuples.
	IndexLoaded bool `json:"index_loaded"`
	// WALRecordsReplayed counts log records applied on top of the snapshot.
	WALRecordsReplayed int `json:"wal_records_replayed"`
	// TornBytesTruncated counts torn-tail bytes cut from the log (work the
	// crash lost mid-write; never a committed record).
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
	// DurationMS is the wall-clock recovery time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
}

// PersistStats reports the persistence layer's live counters.
type PersistStats struct {
	Enabled        bool          `json:"enabled"`
	Dir            string        `json:"dir,omitempty"`
	Fsync          string        `json:"fsync,omitempty"`
	Generation     uint64        `json:"generation,omitempty"`
	WALBytes       int64         `json:"wal_bytes,omitempty"`
	WALRecords     int64         `json:"wal_records,omitempty"`
	Checkpoints    uint64        `json:"checkpoints,omitempty"`
	LastCheckpoint time.Time     `json:"last_checkpoint,omitempty"`
	// ChainDepth is the live checkpoint chain length (1 = just the full
	// base snapshot). On a sharded engine, the deepest shard chain.
	ChainDepth int `json:"chain_depth,omitempty"`
	// LastCheckpointPauseMS is how long the last checkpoint held the
	// mutation lock (rotation + dirty capture), in milliseconds. On a
	// sharded engine, the largest shard pause.
	LastCheckpointPauseMS float64 `json:"last_checkpoint_pause_ms,omitempty"`
	// DeltaBytesWritten / FullBytesWritten are cumulative checkpoint bytes
	// by kind since open.
	DeltaBytesWritten int64         `json:"delta_bytes_written,omitempty"`
	FullBytesWritten  int64         `json:"full_bytes_written,omitempty"`
	Recovery          RecoveryStats `json:"recovery"`
}

// Open is New plus durability. With an empty cfg.Dir it is exactly New.
// Otherwise it mounts the data directory:
//
//   - an empty directory is seeded with a generation-1 snapshot of db (plus
//     the graph-independent engine extras), and db becomes the live state;
//   - a populated directory is recovered instead: the newest valid snapshot
//     is loaded, its WAL replayed on top (a torn final record is truncated
//     with a logged warning; a checksum failure anywhere else aborts with a
//     file/offset/record diagnostic), join indexes and the inverted index
//     are rebuilt, and referential integrity is re-verified. The caller's
//     db is then only a seed and is discarded.
//
// Every subsequent mutation (Insert, Update, Delete, AddSynonym,
// DefineMacro) is logged to the WAL under cfg.Fsync before the mutation is
// considered complete; if the log write fails the in-memory change is
// rolled back and the error returned, so memory and disk cannot diverge.
// Callers own the returned engine's lifecycle: Close checkpoints and
// releases the directory.
func Open(db *storage.Database, g *schemagraph.Graph, cfg PersistConfig) (*Engine, error) {
	return openEngine(db, g, cfg, true)
}

// openEngine is Open with integrity verification switchable: a shard of a
// partitioned database legitimately holds foreign-key values whose target
// tuples live on other shards, so per-shard recovery (NewSharded) skips
// the check — the dataset is only whole at the coordinator.
func openEngine(db *storage.Database, g *schemagraph.Graph, cfg PersistConfig, verifyIntegrity bool) (*Engine, error) {
	if cfg.Dir == "" {
		return New(db, g)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	ir := &indexRecovery{dir: cfg.Dir, logger: logger}
	store, rec, err := wal.Open(cfg.Dir, wal.Config{
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
		Logger:        logger,
		Observer:      ir,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Engine, error) {
		_ = store.Close()
		return nil, err
	}
	fresh := rec.Data == nil
	if !fresh {
		db = rec.Data.DB
		if err := db.CreateJoinIndexes(); err != nil {
			return fail(fmt.Errorf("precis: rebuilding join indexes after recovery: %w", err))
		}
		if verifyIntegrity {
			if violations := db.CheckIntegrity(); len(violations) > 0 {
				return fail(fmt.Errorf("precis: recovered database violates referential integrity (%d violation(s), first: %s)",
					len(violations), violations[0]))
			}
		}
	}
	var eng *Engine
	if !fresh && ir.loaded {
		// The persisted index matched the base snapshot and tracked every
		// delta and WAL record through the observer: adopt it instead of
		// re-tokenizing the whole database.
		eng, err = newWithIndex(db, g, ir.ix)
	} else {
		eng, err = New(db, g)
	}
	if err != nil {
		return fail(err)
	}
	if fresh {
		if err := store.Initialize(&wal.SnapshotData{DB: db}); err != nil {
			return fail(err)
		}
		logger.Printf("precis: persistence initialized in %s (generation 1, %d tuples, fsync=%s)",
			cfg.Dir, db.TotalTuples(), cfg.Fsync)
	} else {
		for _, p := range rec.Data.Synonyms {
			eng.index.AddSynonym(p[0], p[1])
		}
		for _, def := range rec.Data.Macros {
			if err := eng.renderer.DefineMacro(def); err != nil {
				return fail(fmt.Errorf("precis: replaying persisted macro: %w", err))
			}
			eng.trackMacroLocked(def)
		}
		indexHow := "rebuilt"
		if ir.loaded {
			indexHow = "loaded"
		}
		logger.Printf("precis: recovered %s: generation %d (chain depth %d, %d delta(s)), %d tuples, %d relations, %d WAL record(s) replayed, %d torn byte(s) truncated, index %s, in %v",
			cfg.Dir, rec.Gen, rec.ChainDepth, rec.DeltasApplied, db.TotalTuples(), db.NumRelations(), rec.WALRecords, rec.TornBytes, indexHow, rec.Duration.Round(time.Microsecond))
	}
	if by := store.FencedBy(); by != 0 {
		// The directory belonged to a deposed primary: the fence is durable
		// and survives restarts, so this engine refuses mutations from its
		// first instruction. Rejoining the cluster as a follower
		// (OpenFollower on the same directory) is the only way out.
		eng.fencedBy = by
	}
	p := &persistState{store: store, cfg: cfg, logger: logger, recovered: *rec, indexLoaded: ir.loaded}
	eng.persist = p
	p.startCheckpointer(eng)
	return eng, nil
}

// snapshotDataLocked assembles the snapshot payload; callers hold e.mu.
func (e *Engine) snapshotDataLocked() *wal.SnapshotData {
	return &wal.SnapshotData{
		DB:       e.db,
		Synonyms: e.index.Synonyms(),
		Macros:   append([]string(nil), e.macroDefs...),
	}
}

// trackMacroLocked remembers a macro definition for future snapshots,
// deduplicating exact repeats; callers hold e.mu (or own the engine
// exclusively, as Open does).
func (e *Engine) trackMacroLocked(def string) {
	if e.macroSeen == nil {
		e.macroSeen = make(map[string]bool)
	}
	if e.macroSeen[def] {
		return
	}
	e.macroSeen[def] = true
	e.macroDefs = append(e.macroDefs, def)
}

// appendWALLocked logs one mutation record; callers hold e.mu. A nil
// persist layer appends nowhere and succeeds — the in-memory engine's
// mutations stay infallible beyond their own validation.
func (e *Engine) appendWALLocked(rec wal.Record) error {
	if e.persist == nil {
		return nil
	}
	if e.persist.closed {
		return fmt.Errorf("precis: engine is closed")
	}
	if err := e.persist.store.Append(rec); err != nil {
		return fmt.Errorf("precis: persist %s: %w", rec.Op, err)
	}
	return nil
}

// Sync forces every appended WAL record to disk regardless of the fsync
// policy — the benchmark and pre-crash hooks use it to draw a durable
// line. On an in-memory engine it is a no-op.
func (e *Engine) Sync() error {
	if e.shards != nil {
		return e.shards.each(func(_ int, sh *Engine) error { return sh.Sync() })
	}
	if e.persist == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.persist.closed {
		return nil
	}
	return e.persist.store.Sync()
}

// Checkpoint makes the engine's current state the new recovery baseline:
// it rotates the WAL and captures the dirty state under the mutation lock
// — a pause proportional to the number of tuples changed since the last
// checkpoint, not to the database — then serializes and fsyncs entirely
// off-lock while mutations and queries proceed. Most checkpoints write an
// incremental delta extending the checkpoint chain; when the chain outgrows
// CompactEvery or CompactBytes the state is instead synthesized from disk
// into a fresh full snapshot, persisted together with an inverted-index
// snapshot the next open can load instead of rebuilding. Returns
// ErrNotPersistent on an in-memory engine.
func (e *Engine) Checkpoint() error {
	if e.shards != nil {
		return e.shards.each(func(_ int, sh *Engine) error { return sh.Checkpoint() })
	}
	p := e.persist
	if p == nil {
		return ErrNotPersistent
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()

	// Phase 1 — under the mutation lock, O(dirty): rotate the log and
	// capture the changed tuples as copy-on-write references (mutations
	// allocate fresh value slices, so the captured tuples are stable).
	e.mu.Lock()
	if p.closed {
		e.mu.Unlock()
		return fmt.Errorf("precis: engine is closed")
	}
	if !e.db.DirtyTrackingEnabled() {
		// Defensive: persistent engines always track dirt, but without it a
		// synthesized compaction would miss the untracked changes. Fall back
		// to the monolithic full checkpoint under the lock.
		defer e.mu.Unlock()
		return p.store.Checkpoint(e.snapshotDataLocked(), nil)
	}
	pauseStart := time.Now()
	h, err := p.store.BeginCheckpoint()
	if err != nil {
		if errors.Is(err, wal.ErrUnsyncedLog) {
			// The active writer is poisoned by an earlier fsync failure:
			// heal via the monolithic full checkpoint, which supersedes the
			// unsyncable log before abandoning it.
			defer e.mu.Unlock()
			return p.store.Checkpoint(e.snapshotDataLocked(), nil)
		}
		e.mu.Unlock()
		return err
	}
	ds := e.db.CaptureDirty()
	d := &wal.DeltaData{
		NextTupleID: e.db.NextTupleID(),
		Synonyms:    e.index.Synonyms(),
		Macros:      append([]string(nil), e.macroDefs...),
		FKs:         e.db.ForeignKeys(),
		Relations:   ds.Relations,
	}
	pause := time.Since(pauseStart)
	e.mu.Unlock()

	p.lastPauseNS.Store(pause.Nanoseconds())
	if hist := p.pauseHist.Load(); hist != nil {
		hist.ObserveNanos(pause.Nanoseconds())
	}

	// Phase 2 — off the lock. On failure the rotation stands (recovery
	// replays the extra log generation seamlessly) and the dirty set is
	// merged back so the next checkpoint's delta still covers everything
	// since the last durable one.
	restore := func() {
		e.mu.Lock()
		e.db.MergeDirty(ds)
		e.mu.Unlock()
		h.Abort()
	}
	if !p.compactionDue(h.PrevChain()) {
		if err := p.store.CompleteDelta(h, d); err != nil {
			restore()
			return fmt.Errorf("precis: delta checkpoint: %w", err)
		}
		return nil
	}
	// Compaction: synthesize the rotation-point state purely from disk plus
	// the captured delta, and persist the inverted index beside it.
	data, err := p.store.Synthesize(h, d)
	if err == nil {
		ix := invidx.NewParallel(data.DB, runtime.GOMAXPROCS(0))
		err = p.store.CompleteFull(h, data, ix.EncodeSnapshot(h.Gen()))
	}
	if err != nil {
		restore()
		return fmt.Errorf("precis: checkpoint: %w", err)
	}
	return nil
}

// Close shuts the persistence layer down: it stops the background
// checkpointer, runs a final checkpoint, and closes the WAL. On an
// in-memory engine it is a no-op. The engine refuses further mutations and
// checkpoints afterwards; queries keep working (the in-memory state stays
// valid).
//
// On a replicated engine, replication stops first: a primary severs its
// follower links before the final checkpoint rotates the WAL away; a
// follower stops its transport and keeps serving its last applied state.
func (e *Engine) Close() error {
	if e.shards != nil {
		// Close every shard even if one fails; the first error wins.
		return e.shards.each(func(_ int, sh *Engine) error { return sh.Close() })
	}
	// Stop the failover supervisor before taking the lifecycle lock: its
	// promotion callback takes lifeMu, and Stop waits for it to finish.
	e.mu.Lock()
	fo := e.failover
	e.failover = nil
	e.mu.Unlock()
	if fo != nil {
		fo.Stop()
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	e.mu.Lock()
	rp := e.replPrimary
	e.replPrimary = nil
	r := e.replica
	e.mu.Unlock()
	if rp != nil {
		// Remove the quorum gate before closing the primary: a mutation
		// mid-wait must not block shutdown, and the final checkpoint below
		// must not wait on acks from links we are about to sever.
		if e.persist != nil {
			e.persist.store.SetCommitGate(nil)
		}
		_ = rp.Close()
	}
	if r != nil {
		r.stop()
	}
	p := e.persist
	if p == nil {
		return nil
	}
	p.stopCheckpointer()
	// Same order as Checkpoint: ckptMu before the engine mutex. Once both
	// are held no rotation can race, so the final generation is knowable in
	// advance and the live index can be persisted stamped with it.
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var firstErr error
	var indexRaw []byte
	if e.index != nil {
		indexRaw = e.index.EncodeSnapshot(p.store.Generation() + 1)
	}
	if err := p.store.Checkpoint(e.snapshotDataLocked(), indexRaw); err != nil {
		firstErr = fmt.Errorf("precis: final checkpoint: %w", err)
		// The checkpoint failed but the WAL still holds every mutation:
		// force it to disk so nothing is lost even on this path.
		if err := p.store.Sync(); err != nil {
			p.logger.Printf("precis: close: WAL sync also failed: %v", err)
		}
	}
	if err := p.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// PersistStats snapshots the persistence counters. Enabled is false (and
// everything else zero) on an in-memory engine.
func (e *Engine) PersistStats() PersistStats {
	if e.shards != nil {
		return e.shards.persistStats()
	}
	p := e.persist
	if p == nil {
		return PersistStats{}
	}
	st := p.store.Stats()
	return PersistStats{
		Enabled:               true,
		Dir:                   st.Dir,
		Fsync:                 st.Fsync,
		Generation:            st.Generation,
		WALBytes:              st.WALBytes,
		WALRecords:            st.WALRecords,
		Checkpoints:           st.Checkpoints,
		LastCheckpoint:        st.LastCkpt,
		ChainDepth:            st.ChainDepth,
		LastCheckpointPauseMS: float64(p.lastPauseNS.Load()) / 1e6,
		DeltaBytesWritten:     st.DeltaBytes,
		FullBytesWritten:      st.FullBytes,
		Recovery: RecoveryStats{
			SnapshotLoaded:     p.recovered.Data != nil,
			SnapshotPath:       p.recovered.SnapshotPath,
			ChainDepth:         p.recovered.ChainDepth,
			DeltasApplied:      p.recovered.DeltasApplied,
			IndexLoaded:        p.indexLoaded,
			WALRecordsReplayed: p.recovered.WALRecords,
			TornBytesTruncated: p.recovered.TornBytes,
			DurationMS:         float64(p.recovered.Duration.Nanoseconds()) / 1e6,
		},
	}
}

// startCheckpointer launches the background size/time checkpoint triggers.
func (p *persistState) startCheckpointer(e *Engine) {
	sizeTrigger := p.cfg.CheckpointBytes
	if sizeTrigger == 0 {
		sizeTrigger = DefaultCheckpointBytes
	}
	if sizeTrigger < 0 && p.cfg.CheckpointEvery <= 0 {
		return // checkpoints are manual only
	}
	poll := time.Second
	if p.cfg.CheckpointEvery > 0 && p.cfg.CheckpointEvery/4 < poll {
		poll = p.cfg.CheckpointEvery / 4
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(poll)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				due := sizeTrigger > 0 && p.store.LogSize() >= sizeTrigger
				if !due && p.cfg.CheckpointEvery > 0 {
					due = time.Since(p.store.Stats().LastCkpt) >= p.cfg.CheckpointEvery
				}
				if !due {
					continue
				}
				if err := e.Checkpoint(); err != nil {
					if errors.Is(err, ErrNotPersistent) {
						return
					}
					p.logger.Printf("precis: background checkpoint failed: %v", err)
				}
			}
		}
	}()
}

// stopCheckpointer halts the background trigger goroutine, if any.
func (p *persistState) stopCheckpointer() {
	p.stopOnce.Do(func() {
		if p.stop != nil {
			close(p.stop)
			<-p.done
		}
	})
}

// Persistence metric names.
const (
	MetricWALBytes          = "precis_wal_appended_bytes_total"
	MetricWALRecords        = "precis_wal_appended_records_total"
	MetricWALFsyncs         = "precis_wal_fsyncs_total"
	MetricWALFsyncSeconds   = "precis_wal_fsync_seconds"
	MetricWALSizeBytes      = "precis_wal_size_bytes"
	MetricCheckpoints       = "precis_checkpoints_total"
	MetricCheckpointSeconds = "precis_checkpoint_seconds"
	MetricCheckpointPause   = "precis_checkpoint_pause_seconds"
	MetricWALDeltaCkpts     = "precis_wal_delta_checkpoints_total"
	MetricWALDeltaBytes     = "precis_wal_delta_bytes_total"
	MetricChainDepth        = "precis_persist_chain_depth"
	MetricPersistGeneration = "precis_persist_generation"
	MetricRecoveryReplayed  = "precis_recovery_wal_records_replayed"
	MetricRecoveryTorn      = "precis_recovery_torn_bytes_truncated"
	MetricRecoverySeconds   = "precis_recovery_seconds"
	MetricRecoveryIndexLoad = "precis_recovery_index_loaded"
)

// instrumentPersist registers the persistence instruments; called from
// Engine.Instrument when a persistence layer is mounted.
func (p *persistState) instrument(reg *obs.Registry) {
	reg.Help(MetricWALBytes, "bytes appended to the write-ahead log (including frame headers)")
	reg.Help(MetricWALRecords, "mutation records appended to the write-ahead log")
	reg.Help(MetricWALFsyncs, "WAL fsync calls (group commits share one)")
	reg.Help(MetricWALFsyncSeconds, "WAL fsync latency in seconds")
	reg.Help(MetricWALSizeBytes, "current size of the active WAL generation")
	reg.Help(MetricCheckpoints, "completed checkpoints (snapshot + WAL rotation + GC)")
	reg.Help(MetricCheckpointSeconds, "end-to-end checkpoint latency in seconds")
	reg.Help(MetricCheckpointPause, "mutation-lock pause per checkpoint (rotation + dirty capture) in seconds")
	reg.Help(MetricWALDeltaCkpts, "checkpoints completed as incremental deltas")
	reg.Help(MetricWALDeltaBytes, "bytes written as delta checkpoints")
	reg.Help(MetricChainDepth, "live checkpoint chain length (1 = full snapshot only)")
	reg.Help(MetricPersistGeneration, "active snapshot generation")
	reg.Help(MetricRecoveryReplayed, "WAL records replayed by the last recovery")
	reg.Help(MetricRecoveryTorn, "torn-tail bytes truncated by the last recovery")
	reg.Help(MetricRecoverySeconds, "wall-clock duration of the last recovery")
	reg.Help(MetricRecoveryIndexLoad, "1 when the last recovery loaded the persisted inverted index, 0 when it rebuilt")
	p.store.SetMetrics(&wal.Metrics{
		AppendedBytes:    reg.Counter(MetricWALBytes),
		AppendedRecords:  reg.Counter(MetricWALRecords),
		Fsyncs:           reg.Counter(MetricWALFsyncs),
		FsyncSeconds:     reg.Histogram(MetricWALFsyncSeconds),
		Checkpoints:      reg.Counter(MetricCheckpoints),
		CheckpointSecs:   reg.Histogram(MetricCheckpointSeconds),
		DeltaCheckpoints: reg.Counter(MetricWALDeltaCkpts),
		DeltaBytes:       reg.Counter(MetricWALDeltaBytes),
	})
	p.pauseHist.Store(reg.Histogram(MetricCheckpointPause))
	reg.GaugeFunc(MetricWALSizeBytes, func() float64 { return float64(p.store.LogSize()) })
	reg.GaugeFunc(MetricChainDepth, func() float64 { return float64(p.store.ChainDepth()) })
	reg.GaugeFunc(MetricPersistGeneration, func() float64 { return float64(p.store.Generation()) })
	reg.GaugeFunc(MetricRecoveryReplayed, func() float64 { return float64(p.recovered.WALRecords) })
	reg.GaugeFunc(MetricRecoveryTorn, func() float64 { return float64(p.recovered.TornBytes) })
	reg.GaugeFunc(MetricRecoverySeconds, func() float64 { return p.recovered.Duration.Seconds() })
	reg.GaugeFunc(MetricRecoveryIndexLoad, func() float64 {
		if p.indexLoaded {
			return 1
		}
		return 0
	})
}
