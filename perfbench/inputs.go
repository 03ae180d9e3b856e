package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"precis/internal/dataset"
	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// datasetSeed fixes the synthetic movie database: every workload and every
// --seed runs over the same data (precis-server's default -seed), and the
// workload seed varies only the traffic drawn from it.
const datasetSeed = 1

// buildDataset generates the synthetic movie database exactly as
// precis-server -db synthetic -films N does, with its annotated graph.
func buildDataset(films int) (*storage.Database, *schemagraph.Graph, error) {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Films = films
	cfg.Seed = datasetSeed
	db, err := dataset.SyntheticMovies(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		return nil, nil, err
	}
	if err := dataset.AnnotateNarrative(g); err != nil {
		return nil, nil, err
	}
	return db, g, nil
}

// query is one served search: free-form terms plus the optional w and card
// URL parameters (zero leaves the server default: w >= 0.8, 10 tuples per
// relation).
type query struct {
	q    string
	w    float64
	card int
}

func (q query) url() string {
	u := "/api/search?q=" + url.QueryEscape(q.q)
	if q.w > 0 {
		u += "&w=" + strconv.FormatFloat(q.w, 'g', -1, 64)
	}
	if q.card > 0 {
		u += "&card=" + strconv.Itoa(q.card)
	}
	return u
}

// inputs is everything the traffic generators draw from, read once from a
// freshly generated copy of the dataset. The engine never sees this copy.
type inputs struct {
	people  weighted  // quoted person names, weighted by filmography
	hot     []query   // hot-rw vocabulary in popularity rank order
	writers []*writer // one mutation stream per writer client
}

// heavyW and heavyCard are the query-heavy request parameters: nearly the
// whole schema graph and up to 150 tuples per relation, so answers run to
// hundreds of tuples and translate, db_gen and sqlx dominate.
const (
	heavyW    = 0.05
	heavyCard = 150
)

// hotVocabulary is the number of distinct query-hot-rw queries; they are
// drawn Zipf(hotZipfS) by rank, so the hot head fits in the 256-entry cache.
const (
	hotVocabulary = 8192
	hotZipfS      = 1.3
)

// newInputs generates a private copy of the dataset and derives every
// workload's traffic from it.
func newInputs(films int, seed int64, writers int) (*inputs, error) {
	db, _, err := buildDataset(films)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	wi := &writeInputs{}
	col := func(rel, name string) (int, error) {
		i := db.Relation(rel).Schema().ColumnIndex(name)
		if i < 0 {
			return 0, fmt.Errorf("dataset has no column %s.%s", rel, name)
		}
		return i, nil
	}
	midC, _ := col("MOVIE", "mid")
	titleC, _ := col("MOVIE", "title")
	yearC, _ := col("MOVIE", "year")
	didC, err := col("MOVIE", "did")
	if err != nil {
		return nil, err
	}
	aidC, err := col("CAST", "aid")
	if err != nil {
		return nil, err
	}
	roleC, _ := col("CAST", "role")
	genreC, err := col("GENRE", "genre")
	if err != nil {
		return nil, err
	}

	filmography := map[string]int{} // person id key -> films
	prefixes, years, titleWords := map[string]bool{}, map[string]bool{}, map[string]bool{}
	db.Relation("MOVIE").Scan(func(t storage.Tuple) bool {
		filmography["D"+t.Values[didC].String()]++
		title := strings.Fields(t.Values[titleC].AsString())
		if len(title) >= 2 {
			prefixes[title[0]+" "+title[1]] = true
		}
		for _, w := range title {
			titleWords[w] = true
		}
		years[t.Values[yearC].String()] = true
		if mid := t.Values[midC].AsInt(); mid > wi.maxMid {
			wi.maxMid = mid
		}
		wi.mids = append(wi.mids, t.Values[midC].AsInt())
		return true
	})
	roles, genres := map[string]bool{}, map[string]bool{}
	db.Relation("CAST").Scan(func(t storage.Tuple) bool {
		filmography["A"+t.Values[aidC].String()]++
		roles[t.Values[roleC].AsString()] = true
		return true
	})
	db.Relation("GENRE").Scan(func(t storage.Tuple) bool {
		genres[t.Values[genreC].AsString()] = true
		return true
	})
	names := map[string]int{}
	var nameList []string
	addPeople := func(rel, key, prefix string, ids *[]int64) {
		kc := db.Relation(rel).Schema().ColumnIndex(key)
		nc := 1
		db.Relation(rel).Scan(func(t storage.Tuple) bool {
			*ids = append(*ids, t.Values[kc].AsInt())
			name := t.Values[nc].AsString()
			if _, seen := names[name]; !seen {
				nameList = append(nameList, name)
			}
			names[name] += filmography[prefix+t.Values[kc].String()]
			return true
		})
	}
	addPeople("DIRECTOR", "did", "D", &wi.dids)
	addPeople("ACTOR", "aid", "A", &wi.aids)
	sort.Strings(nameList)
	for _, n := range nameList {
		if names[n] > 0 {
			in.people.add(`"`+n+`"`, float64(names[n]))
		}
	}
	if len(in.people.keys) == 0 {
		return nil, fmt.Errorf("dataset has no person with a film")
	}
	wi.genres = sortedKeys(genres)
	wi.roles = sortedKeys(roles)
	wi.prefixes = sortedKeys(prefixes)

	// The vocabulary and its popularity order are part of the workload, not
	// of the seed: every seed draws from the same hot head.
	r := rand.New(rand.NewSource(datasetSeed))
	// Years are integers the index does not hold; a year matches only as
	// the serial number in some title.
	var matching []string
	for _, y := range sortedKeys(years) {
		if titleWords[y] {
			matching = append(matching, y)
		}
	}
	in.hot = hotQueries(r, nameList, wi.prefixes, wi.genres, matching)
	for w := 0; w < writers; w++ {
		in.writers = append(in.writers, newWriter(db, wi, w, writers, seed))
	}
	return in, nil
}

// hotQueries composes the query-hot-rw vocabulary: 1–3 terms drawn from
// person names, title words, genres, years and quoted two-word title
// phrases, in a random popularity order.
func hotQueries(r *rand.Rand, names, prefixes, genres, years []string) []query {
	var words []string
	seen := map[string]bool{}
	for _, p := range prefixes {
		for _, w := range strings.Fields(p) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	term := func() string {
		switch k := r.Intn(100); {
		case k < 40:
			return `"` + names[r.Intn(len(names))] + `"`
		case k < 60:
			return `"` + prefixes[r.Intn(len(prefixes))] + `"`
		case k < 75:
			return words[r.Intn(len(words))]
		case k < 85:
			return genres[r.Intn(len(genres))]
		case len(years) > 0:
			return years[r.Intn(len(years))]
		default: // a small dataset whose title serials stop short of 1950
			return genres[r.Intn(len(genres))]
		}
	}
	var out []query
	distinct := map[string]bool{}
	for tries := 0; len(out) < hotVocabulary && tries < 8*hotVocabulary; tries++ {
		n := 1
		if k := r.Intn(10); k >= 9 {
			n = 3
		} else if k >= 6 {
			n = 2
		}
		terms := make([]string, n)
		for i := range terms {
			terms[i] = term()
		}
		q := strings.Join(terms, " ")
		if !distinct[q] {
			distinct[q] = true
			out = append(out, query{q: q})
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// weighted draws keys with probability proportional to their weight.
type weighted struct {
	keys []string
	cum  []float64
}

func (w *weighted) add(key string, weight float64) {
	total := weight
	if n := len(w.cum); n > 0 {
		total += w.cum[n-1]
	}
	w.keys = append(w.keys, key)
	w.cum = append(w.cum, total)
}

func (w *weighted) pick(r *rand.Rand) string {
	x := r.Float64() * w.cum[len(w.cum)-1]
	return w.keys[sort.SearchFloat64s(w.cum, x)]
}
