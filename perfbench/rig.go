package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"precis"
	"precis/internal/dataset"
	"precis/internal/obs"
	"precis/internal/repl"
	"precis/internal/schemagraph"
	"precis/internal/storage"
	"precis/internal/web"
)

var quiet = log.New(io.Discard, "", 0)

// Served configuration, as precis-server runs by default.
const (
	cacheEntries = 256
	cacheTTL     = 10 * time.Minute
)

// rig is one set-up system under test: a durable engine behind the
// precis-server HTTP handler, plus a durable synchronous follower when the
// workload replicates.
type rig struct {
	dir      string
	graph    *schemagraph.Graph
	eng      *precis.Engine
	handler  http.Handler
	reg      *obs.Registry
	follower *precis.Engine
}

// persistConfig is the engine's durability configuration: the workload's
// fsync policy and precis-server's default checkpoint triggers, except
// that workloads with a checkpoint tick turn the background triggers off
// and checkpoint on the benchmark's own schedule.
func (w *workload) persistConfig(dir string) precis.PersistConfig {
	cfg := precis.PersistConfig{Dir: dir, Fsync: w.fsync, Logger: quiet}
	if w.checkpointEvery > 0 {
		cfg.CheckpointBytes = -1
		cfg.CompactEvery = w.compactEvery
	}
	return cfg
}

// setupRig builds the system the way precis-server does: generate the
// dataset, open the durable engine, define the standard narrative macros,
// enable the answer cache, mount the web handler (which instruments the
// engine) and, for replicated workloads, start the primary and bootstrap a
// durable follower over loopback TCP.
func setupRig(w *workload, dir string, films int) (*rig, error) {
	db, g, err := buildDataset(films)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	eng, err := precis.Open(db, g, w.persistConfig(filepath.Join(dir, "primary")))
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, graph: g, eng: eng}
	for _, def := range dataset.StandardMacros() {
		if err := eng.DefineMacro(def); err != nil {
			r.close()
			return nil, err
		}
	}
	eng.EnableCache(precis.CacheConfig{MaxEntries: cacheEntries, TTL: cacheTTL})
	r.handler = web.NewServerWithConfig(eng, web.Config{}).Handler()
	r.reg = eng.Registry()
	if w.followers > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		if _, err := eng.StartReplication(ln, repl.PrimaryConfig{SyncReplicas: w.followers, Logger: quiet}); err != nil {
			ln.Close()
			r.close()
			return nil, err
		}
		r.follower, err = precis.OpenFollower(g, precis.ReplicaConfig{
			Addr:   ln.Addr().String(),
			Dir:    filepath.Join(dir, "follower"),
			Fsync:  w.fsync,
			Logger: quiet,
		})
		if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) primaryDir() string { return filepath.Join(r.dir, "primary") }

func (r *rig) close() {
	if r.follower != nil {
		_ = r.follower.Close()
	}
	_ = r.eng.Close()
}

// digest fingerprints a database: every relation by name, every tuple by
// ID with its typed values. Equal digests mean equal contents and IDs.
func digest(db *storage.Database) [32]byte {
	h := sha256.New()
	for _, name := range db.RelationNames() {
		tuples := db.Relation(name).Tuples()
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].ID < tuples[j].ID })
		fmt.Fprintf(h, "%s\n", name)
		for _, t := range tuples {
			h.Write(strconv.AppendInt(nil, int64(t.ID), 10))
			for _, v := range t.Values {
				h.Write([]byte{0})
				h.Write([]byte(v.SQL()))
			}
			h.Write([]byte{'\n'})
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// copyDir copies a data directory file by file, as a crash would leave
// it: no close, no final checkpoint.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// recovery is what reopening a crash copy showed.
type recovery struct {
	seconds  []float64
	replayed int
	indexed  bool
}

// recoverCopies syncs the live engine, copies its directory crash-style
// and times precis.Open on reps fresh copies of it. The first recovered
// database must equal the live one at the copy point.
func (r *rig) recoverCopies(w *workload, reps int) (recovery, error) {
	var rec recovery
	if err := r.eng.Sync(); err != nil {
		return rec, err
	}
	live := digest(r.eng.Database())
	crash := filepath.Join(r.dir, "crash")
	if err := copyDir(r.primaryDir(), crash); err != nil {
		return rec, err
	}
	for i := 0; i < reps; i++ {
		dir := filepath.Join(r.dir, "recover-"+strconv.Itoa(i))
		if err := copyDir(crash, dir); err != nil {
			return rec, err
		}
		settle()
		start := time.Now()
		eng, err := precis.Open(nil, r.graph, w.persistConfig(dir))
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return rec, fmt.Errorf("recovering crash copy: %w", err)
		}
		rec.seconds = append(rec.seconds, elapsed)
		if i == 0 {
			st := eng.PersistStats().Recovery
			rec.replayed, rec.indexed = st.WALRecordsReplayed, st.IndexLoaded
			if digest(eng.Database()) != live {
				eng.Close()
				return rec, fmt.Errorf("recovered database differs from the live database at the copy point")
			}
		}
		if err := eng.Close(); err != nil {
			return rec, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return rec, err
		}
	}
	return rec, os.RemoveAll(crash)
}

// converge waits for the follower to apply everything the primary holds
// and checks that both databases are equal.
func (r *rig) converge(timeout time.Duration) error {
	want := digest(r.eng.Database())
	deadline := time.Now().Add(timeout)
	for {
		if fs := r.follower.ReplStats().Follower; fs != nil && fs.LagRecords == 0 {
			if digest(r.follower.Database()) == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge to the primary within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// indexBytes sums the sizes of the persisted inverted-index files in dir
// that are not yet in seen, recording them there. Checkpoints write each
// index file once, under a new generation name.
func indexBytes(dir string, seen map[string]bool) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "index-*.pidx"))
	var n int64
	for _, m := range matches {
		if seen[m] {
			continue
		}
		if st, err := os.Stat(m); err == nil {
			seen[m] = true
			n += st.Size()
		}
	}
	return n
}
