package main

import (
	"fmt"
	"math/rand"

	"precis"
	"precis/internal/storage"
	"precis/internal/wal"
)

// mutation is one write the benchmark sends through Engine.Insert, Update
// or Delete (there is no HTTP mutation endpoint).
type mutation struct {
	op   wal.Op // OpInsert, OpUpdate or OpDelete
	rel  string
	id   storage.TupleID // target of an update or delete
	vals []storage.Value
}

func (m *mutation) apply(eng *precis.Engine) (storage.TupleID, error) {
	switch m.op {
	case wal.OpInsert:
		return eng.Insert(m.rel, m.vals...)
	case wal.OpUpdate:
		return m.id, eng.Update(m.rel, m.id, m.vals)
	default:
		ok, err := eng.Delete(m.rel, m.id)
		if err == nil && !ok {
			err = fmt.Errorf("delete %s %d: no such tuple", m.rel, m.id)
		}
		return m.id, err
	}
}

// payloadBytes is the logical size of the mutation, the denominator of
// disk_bytes_per_user_byte: the relation name, 8 bytes for a target tuple
// ID, the length of every string value and 8 bytes for every number.
func (m *mutation) payloadBytes() int {
	n := len(m.rel)
	if m.op != wal.OpInsert {
		n += 8
	}
	for _, v := range m.vals {
		if v.Kind() == storage.KindString {
			n += len(v.AsString())
		} else {
			n += 8
		}
	}
	return n
}

// writeInputs are the dataset facts every writer draws foreign keys and
// values from.
type writeInputs struct {
	mids, aids, dids        []int64
	maxMid                  int64
	genres, roles, prefixes []string
}

// owned is the set of tuples of one relation that one writer may update or
// delete. Writers own disjoint tuples, so concurrent writers never race on
// a tuple and every update or delete targets a live tuple.
type owned struct {
	ids  []storage.TupleID
	pos  map[storage.TupleID]int
	vals map[storage.TupleID][]storage.Value
}

func newOwned() *owned {
	return &owned{pos: map[storage.TupleID]int{}, vals: map[storage.TupleID][]storage.Value{}}
}

func (o *owned) put(id storage.TupleID, vals []storage.Value) {
	if _, ok := o.pos[id]; !ok {
		o.pos[id] = len(o.ids)
		o.ids = append(o.ids, id)
	}
	o.vals[id] = vals
}

func (o *owned) remove(id storage.TupleID) {
	i, ok := o.pos[id]
	if !ok {
		return
	}
	last := o.ids[len(o.ids)-1]
	o.ids[i] = last
	o.pos[last] = i
	o.ids = o.ids[:len(o.ids)-1]
	delete(o.pos, id)
	delete(o.vals, id)
}

func (o *owned) pick(r *rand.Rand) (storage.TupleID, []storage.Value, bool) {
	if len(o.ids) == 0 {
		return 0, nil, false
	}
	id := o.ids[r.Intn(len(o.ids))]
	return id, o.vals[id], true
}

// poolSize bounds how many existing tuples per relation a writer starts
// out owning.
const poolSize = 2048

// writer generates one client's seeded, foreign-key-valid mutation
// stream: inserts into CAST, GENRE and MOVIE, updates of owned tuples of
// those relations, and deletes of owned CAST and GENRE tuples and of the
// movies this writer inserted. New CAST and GENRE tuples reference only
// original movies, so an inserted movie never gains children and deleting
// it keeps the database referentially intact (recovery verifies this).
type writer struct {
	r         *rand.Rand
	in        *writeInputs
	pools     map[string]*owned
	newMovies *owned
	nextMid   int64
	midStride int64
}

func newWriter(db *storage.Database, in *writeInputs, w, writers int, seed int64) *writer {
	wr := &writer{
		r:         rand.New(rand.NewSource(seed*7919 + int64(w) + 1)),
		in:        in,
		pools:     map[string]*owned{},
		newMovies: newOwned(),
		nextMid:   in.maxMid + 1 + int64(w),
		midStride: int64(writers),
	}
	for _, rel := range []string{"CAST", "GENRE", "MOVIE"} {
		var mine []storage.Tuple
		db.Relation(rel).Scan(func(t storage.Tuple) bool {
			if int(t.ID)%writers == w {
				mine = append(mine, t)
			}
			return true
		})
		wr.r.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		if len(mine) > poolSize {
			mine = mine[:poolSize]
		}
		p := newOwned()
		for _, t := range mine {
			p.put(t.ID, append([]storage.Value(nil), t.Values...))
		}
		wr.pools[rel] = p
	}
	return wr
}

func (w *writer) any64(xs []int64) storage.Value { return storage.Int(xs[w.r.Intn(len(xs))]) }

func (w *writer) anyString(xs []string) storage.Value {
	return storage.String(xs[w.r.Intn(len(xs))])
}

// next draws the writer's next mutation: 35% inserts, 30% updates and 35%
// deletes, balanced per relation so the database keeps its size however
// many mutations a run makes; an empty pool falls back to an insert.
func (w *writer) next() mutation {
	k := w.r.Intn(100)
	switch {
	case k < 15:
		return mutation{op: wal.OpInsert, rel: "CAST", vals: []storage.Value{
			w.any64(w.in.mids), w.any64(w.in.aids), w.anyString(w.in.roles)}}
	case k < 27:
		return mutation{op: wal.OpInsert, rel: "GENRE", vals: []storage.Value{
			w.any64(w.in.mids), w.anyString(w.in.genres)}}
	case k < 35:
		return w.insertMovie()
	case k < 47:
		return w.update("CAST", 2, w.anyString(w.in.roles))
	case k < 56:
		return w.update("GENRE", 1, w.anyString(w.in.genres))
	case k < 65:
		return w.update("MOVIE", 2, storage.Int(int64(1950+w.r.Intn(56))))
	case k < 80:
		return w.remove("CAST", w.pools["CAST"])
	case k < 92:
		return w.remove("GENRE", w.pools["GENRE"])
	default:
		return w.remove("MOVIE", w.newMovies)
	}
}

func (w *writer) insertMovie() mutation {
	mid := w.nextMid
	w.nextMid += w.midStride
	title := fmt.Sprintf("%s %d", w.in.prefixes[w.r.Intn(len(w.in.prefixes))], mid)
	return mutation{op: wal.OpInsert, rel: "MOVIE", vals: []storage.Value{
		storage.Int(mid), storage.String(title), storage.Int(int64(1950 + w.r.Intn(56))), w.any64(w.in.dids)}}
}

// update rewrites column col of an owned tuple, keeping keys and foreign
// keys intact.
func (w *writer) update(rel string, col int, v storage.Value) mutation {
	id, old, ok := w.pools[rel].pick(w.r)
	if !ok {
		return w.insertMovie()
	}
	vals := append([]storage.Value(nil), old...)
	vals[col] = v
	return mutation{op: wal.OpUpdate, rel: rel, id: id, vals: vals}
}

func (w *writer) remove(rel string, from *owned) mutation {
	id, _, ok := from.pick(w.r)
	if !ok {
		return w.insertMovie()
	}
	return mutation{op: wal.OpDelete, rel: rel, id: id}
}

// done records a mutation the engine accepted, so later updates and
// deletes target the writer's current tuples.
func (w *writer) done(m mutation, id storage.TupleID) {
	switch m.op {
	case wal.OpInsert, wal.OpUpdate:
		w.pools[m.rel].put(id, m.vals)
		if m.op == wal.OpInsert && m.rel == "MOVIE" {
			w.newMovies.put(id, m.vals)
		}
	case wal.OpDelete:
		w.pools[m.rel].remove(id)
		if m.rel == "MOVIE" {
			w.newMovies.remove(id)
		}
	}
}
