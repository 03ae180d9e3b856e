package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"precis"
	"precis/internal/core"
	"precis/internal/dataset"
	"precis/internal/invidx"
	"precis/internal/nlg"
	"precis/internal/sqlx"
	"precis/internal/storage"
	"precis/internal/wal"
)

// redriver re-runs a served query's four pipeline stages itself, with a
// span around each call into invidx, core, sqlx and nlg, exactly as
// Engine.QueryContext chains them. Its narrative must equal the served
// one byte for byte, or the trace would describe a different program.
type redriver struct {
	eng      *precis.Engine
	renderer *nlg.Renderer
}

func newRedriver(eng *precis.Engine) (*redriver, error) {
	r := nlg.NewRenderer()
	for _, def := range dataset.StandardMacros() {
		if err := r.DefineMacro(def); err != nil {
			return nil, err
		}
	}
	return &redriver{eng: eng, renderer: r}, nil
}

// readStats are the per-request counts the traced read path records.
type readStats struct {
	postings, joins, tuples, stmts, examined, narrative int
}

// tracedFetcher is the sqlx engine the generator fetches through, with a
// span around every statement. The generator calls ExecStmt from its
// worker pool, so the counter is atomic and the tracer locks.
type tracedFetcher struct {
	*sqlx.Engine
	tr          *tracer
	req, parent uint64
	stmts       atomic.Int64
}

func (f *tracedFetcher) ExecStmt(st sqlx.Stmt) (*sqlx.Result, error) {
	s := f.tr.begin("sqlx.ExecStmt", f.req, f.parent)
	res, err := f.Engine.ExecStmt(st)
	f.tr.end(s)
	f.stmts.Add(1)
	return res, err
}

// run re-drives q under the caller's guarantee that no mutation runs
// concurrently, and returns the narrative it produced.
func (d *redriver) run(tr *tracer, req, parent uint64, q query) (string, readStats, error) {
	var st readStats
	degree := core.MinPathWeight(0.8)
	if q.w > 0 {
		degree = core.MinPathWeight(q.w)
	}
	card := core.MaxTuplesPerRelation(10)
	if q.card > 0 {
		card = core.MaxTuplesPerRelation(q.card)
	}
	terms := precis.ParseQuery(q.q)
	ix, g, db := d.eng.Index(), d.eng.Graph(), d.eng.Database()

	s := tr.begin("invidx.LookupExpanded", req, parent)
	perTerm := make([][]invidx.Occurrence, len(terms))
	for i, t := range terms {
		perTerm[i] = ix.LookupExpanded(t)
	}
	tr.end(s)
	seeds := map[string][]storage.TupleID{}
	var seedRels []string
	var allOccs []invidx.Occurrence
	for _, occs := range perTerm {
		allOccs = append(allOccs, occs...)
		for _, o := range occs {
			st.postings += len(o.TupleIDs)
			if _, ok := seeds[o.Relation]; !ok {
				seedRels = append(seedRels, o.Relation)
			}
			seeds[o.Relation] = unionIDs(seeds[o.Relation], o.TupleIDs)
		}
	}
	if len(seedRels) == 0 {
		return "", st, fmt.Errorf("re-driven query %q matched nothing", q.q)
	}
	sort.Strings(seedRels)

	s = tr.begin("core.GenerateSchema", req, parent)
	rs, err := core.GenerateSchema(g, seedRels, degree)
	if err == nil {
		rs.CopyAnnotations(g)
	}
	tr.end(s)
	if err != nil {
		return "", st, err
	}

	s = tr.begin("core.GenerateDatabaseOpts", req, parent)
	f := &tracedFetcher{Engine: sqlx.NewEngine(db), tr: tr, req: req, parent: s.ID}
	rd, err := core.GenerateDatabaseOpts(f, rs, seeds, card, core.StrategyAuto,
		core.DBGenOptions{Workers: core.NormalizeWorkers(0), Context: context.Background()})
	tr.end(s)
	if err != nil {
		return "", st, err
	}
	st.joins, st.tuples, st.stmts = rd.Stats.JoinsExecuted, rd.Stats.TotalTuples, int(f.stmts.Load())
	st.examined = rd.Stats.SQL.Scanned + rd.Stats.SQL.TupleReads

	s = tr.begin("nlg.Narrative", req, parent)
	narrative, err := d.renderer.Narrative(rd, allOccs)
	tr.end(s)
	st.narrative = len(narrative)
	return narrative, st, err
}

// unionIDs merges ids into dst keeping it sorted and duplicate-free, as the
// engine folds a term's occurrences into its seed set.
func unionIDs(dst, ids []storage.TupleID) []storage.TupleID {
	present := make(map[storage.TupleID]bool, len(dst))
	for _, id := range dst {
		present[id] = true
	}
	for _, id := range ids {
		if !present[id] {
			dst = append(dst, id)
			present[id] = true
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// mirror replays the accepted write stream against layers the benchmark
// can time on their own: storage.Database and invidx.Index on a private
// copy of the dataset, and a side wal.Store with the engine's fsync
// policy. Mirror calls run after the engine call returns, so they never
// delay a commit; inserts use the engine's tuple ID (InsertWithID), which
// keeps the copy identical while writers interleave.
type mirror struct {
	mu   sync.Mutex
	db   *storage.Database
	ix   *invidx.Index
	side *wal.Store
}

func newMirror(films int, dir string, fsync wal.FsyncPolicy) (*mirror, error) {
	db, _, err := buildDataset(films)
	if err != nil {
		return nil, err
	}
	side, _, err := wal.Open(filepath.Join(dir, "side-wal"), wal.Config{Fsync: fsync, Logger: quiet})
	if err != nil {
		return nil, err
	}
	empty := storage.NewDatabase("side")
	if err := dataset.MoviesSchema(empty); err != nil {
		side.Close()
		return nil, err
	}
	if err := side.Initialize(&wal.SnapshotData{DB: empty}); err != nil {
		side.Close()
		return nil, err
	}
	return &mirror{db: db, ix: invidx.New(db), side: side}, nil
}

func (m *mirror) apply(tr *tracer, req, parent uint64, mu mutation, id storage.TupleID) error {
	m.mu.Lock()
	rel := m.db.Relation(mu.rel)
	var err error
	switch mu.op {
	case wal.OpInsert:
		s := tr.begin("storage.Insert", req, parent)
		err = m.db.InsertWithID(mu.rel, id, mu.vals...)
		tr.end(s)
		if t, ok := rel.Get(id); ok && err == nil {
			s = tr.begin("invidx.AddTuple", req, parent)
			m.ix.AddTuple(mu.rel, t)
			tr.end(s)
		}
	case wal.OpUpdate:
		old, _ := rel.Get(id)
		s := tr.begin("storage.Update", req, parent)
		err = m.db.Update(mu.rel, id, mu.vals)
		tr.end(s)
		if t, ok := rel.Get(id); ok && err == nil {
			s = tr.begin("invidx.RemoveTuple", req, parent)
			m.ix.RemoveTuple(mu.rel, old)
			tr.end(s)
			s = tr.begin("invidx.AddTuple", req, parent)
			m.ix.AddTuple(mu.rel, t)
			tr.end(s)
		}
	case wal.OpDelete:
		old, _ := rel.Get(id)
		s := tr.begin("invidx.RemoveTuple", req, parent)
		m.ix.RemoveTuple(mu.rel, old)
		tr.end(s)
		s = tr.begin("storage.Delete", req, parent)
		_, err = m.db.Delete(mu.rel, id)
		tr.end(s)
	}
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mirror %s %s %d: %w", mu.op, mu.rel, id, err)
	}
	s := tr.begin("wal.Store.Append", req, parent)
	err = m.side.Append(wal.Record{Op: mu.op, Rel: mu.rel, ID: id, Values: mu.vals})
	tr.end(s)
	return err
}
