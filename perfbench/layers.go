package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// layers adds the per-layer metrics of a traced run. Span-derived times
// are per-request medians; counts are per-request means; shares and ratios
// are sums over the run with their base in the note. A layer idle on this
// workload reports 0.
func layers(rp *report, d *driver, cfg config, phases, reads, writes []*phaseResult,
	before, after counters, ckpt ckptStats, rec recovery, userBytes int64) {
	ix := d.tr.index()
	us := func(name string) []float64 {
		var out []float64
		for _, ns := range ix.perReq(name) {
			out = append(out, float64(ns)/1e3)
		}
		return out
	}
	sumUS := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	var rs []readStats
	var nReads, nWrites int
	var respBytes int64
	var late, ackLag []float64
	for _, ph := range phases {
		for _, c := range ph.reads {
			rs = append(rs, c.reads...)
			nReads += len(c.lat)
			respBytes += c.respBytes
		}
		for _, c := range ph.writes {
			nWrites += len(c.lat)
			late = append(late, c.late...)
		}
		ackLag = append(ackLag, ph.ackLag...)
	}
	mean := func(f func(readStats) int) float64 {
		var s float64
		for _, st := range rs {
			s += float64(f(st))
		}
		return ratio(s, float64(len(rs)))
	}

	serve := us("web.ServeHTTP")
	engineUS := (after.querySecs - before.querySecs) * 1e6
	rp.add("web.overhead_us", "us", ratio(sumUS(serve)-engineUS, float64(len(serve))),
		fmt.Sprintf("ServeHTTP minus Engine.QueryContext, mean of %d requests", len(serve)))
	rp.add("web.response_bytes", "bytes", ratio(float64(respBytes), float64(nReads)), fmt.Sprintf("n=%d", nReads))

	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	rp.add("anscache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)),
		fmt.Sprintf("%d hits of %d cache lookups", hits, hits+misses))
	inval := after.cache.Invalidations - before.cache.Invalidations
	rp.add("anscache.invalidations_per_write", "count", ratio(float64(inval), float64(nWrites)),
		fmt.Sprintf("%d entries purged by %d writes", inval, nWrites))

	lookup, schema, dbgen, translate := us("invidx.LookupExpanded"), us("core.GenerateSchema"),
		us("core.GenerateDatabaseOpts"), us("nlg.Narrative")
	var dbgenSelf []float64
	for _, s := range ix.byName["core.GenerateDatabaseOpts"] {
		dbgenSelf = append(dbgenSelf, float64(ix.selfTime(s))/1e3)
	}
	maintain := mergeReq(ix.perReq("invidx.AddTuple"), ix.perReq("invidx.RemoveTuple"))
	apply := mergeReq(ix.perReq("storage.Insert"), ix.perReq("storage.Update"), ix.perReq("storage.Delete"))
	appendUS := us("wal.Store.Append")
	rp.add("invidx.lookup_us", "us", median(lookup), fmt.Sprintf("n=%d", len(lookup)))
	rp.add("invidx.postings_per_query", "count", mean(func(s readStats) int { return s.postings }), fmt.Sprintf("n=%d", len(rs)))
	rp.add("invidx.maintain_us", "us", median(maintain), fmt.Sprintf("AddTuple/RemoveTuple on the mirror, n=%d", len(maintain)))
	rp.add("core.schema_gen_us", "us", median(schema), fmt.Sprintf("n=%d", len(schema)))
	rp.add("core.db_gen_us", "us", median(dbgen), fmt.Sprintf("n=%d", len(dbgen)))
	rp.add("core.db_gen_self_us", "us", median(dbgenSelf), "db_gen minus its sqlx statements")
	rp.add("core.joins_per_query", "count", mean(func(s readStats) int { return s.joins }), "")
	rp.add("core.result_tuples_per_query", "count", mean(func(s readStats) int { return s.tuples }), "")
	exec := us("sqlx.ExecStmt")
	var tuples, examined float64
	for _, st := range rs {
		tuples += float64(st.tuples)
		examined += float64(st.examined)
	}
	rp.add("sqlx.exec_us", "us", median(exec), "sum of statement spans per query")
	rp.add("sqlx.stmts_per_query", "count", mean(func(s readStats) int { return s.stmts }), "")
	rp.add("sqlx.rows_examined_per_result_tuple", "ratio", ratio(examined, tuples),
		fmt.Sprintf("%.0f rows scanned or read for %.0f result tuples", examined, tuples))
	stages := sumUS(lookup) + sumUS(schema) + sumUS(dbgen) + sumUS(translate)
	rp.add("nlg.translate_us", "us", median(translate), fmt.Sprintf("n=%d", len(translate)))
	rp.add("nlg.translate_share", "ratio", ratio(sumUS(translate), stages),
		fmt.Sprintf("of %.0f us in lookup+schema_gen+db_gen+translate", stages))
	rp.add("nlg.narrative_bytes", "bytes", mean(func(s readStats) int { return s.narrative }), "")

	rp.add("storage.apply_us", "us", median(apply), fmt.Sprintf("Database Insert(WithID)/Update/Delete on the mirror, n=%d", len(apply)))
	records, fsyncs := after.walRecords-before.walRecords, after.fsyncs-before.fsyncs
	rp.add("wal.append_us", "us", median(appendUS), fmt.Sprintf("side store, n=%d", len(appendUS)))
	rp.add("wal.fsync_ms", "ms", ratio((after.fsyncSecs-before.fsyncSecs)*1e3, float64(fsyncs)),
		fmt.Sprintf("mean of %d fsyncs", fsyncs))
	rp.add("wal.commits_per_fsync", "ratio", ratio(float64(records), float64(fsyncs)), fmt.Sprintf("%d records, %d fsyncs", records, fsyncs))
	rp.add("wal.bytes_per_mutation", "bytes", ratio(float64(after.walBytes-before.walBytes), float64(records)), "")
	rp.add("wal.checkpoint_pause_max_ms", "ms", ckpt.pauseMax, "")
	rp.add("wal.checkpoints", "count", float64(after.persist.Checkpoints-before.persist.Checkpoints), "")
	rp.add("wal.checkpoint_bytes_per_user_byte", "ratio", ratio(ckptBytes(before, after, ckpt), float64(userBytes)),
		fmt.Sprintf("over %d payload bytes", userBytes))
	indexed := 0.0
	if rec.indexed {
		indexed = 1
	}
	rp.add("wal.recovery_replayed_records", "count", float64(rec.replayed), "")
	rp.add("wal.recovery_index_loaded", "bool", indexed, "")

	var sent, quorumShare float64
	if d.w.followers > 0 {
		sent = ratio(float64(after.replSent-before.replSent), float64(nWrites))
		var commit float64
		for _, op := range []string{"insert", "update", "delete"} {
			commit += sumUS(us("engine." + op))
		}
		quorumShare = 1 - ratio(sumUS(apply)+sumUS(maintain)+sumUS(appendUS), commit)
	}
	rp.add("repl.sent_bytes_per_mutation", "bytes", sent, "")
	rp.add("repl.ack_lag_records_p99", "count", percentile(ackLag, 99), fmt.Sprintf("n=%d samples", len(ackLag)))
	rp.add("repl.quorum_wait_share", "ratio", quorumShare, "1 - (apply+index+WAL append) / commit")
	rp.add("loadgen.late_p99_ms", "ms", percentile(late, 99), fmt.Sprintf("n=%d", len(late)))

	tq, tc := median(latencies(reads, readsOf)), median(latencies(writes, writesOf))
	rp.add("trace.query_p50_ms", "ms", tq, "query_p50_ms of this traced run")
	rp.add("trace.commit_p50_ms", "ms", tc, "commit_p50_ms of this traced run")
	rp.add("trace.spans", "count", float64(len(d.tr.spans)), "")

	dump := filepath.Join(cfg.work, "trace-"+cfg.w.name+".jsonl.gz")
	if err := d.tr.dump(dump); err != nil {
		rp.problems = append(rp.problems, fmt.Sprintf("writing the trace: %v", err))
	} else {
		rp.lines = append(rp.lines, "trace: "+dump)
	}
	rp.lines = append(rp.lines, overheadLine(cfg, tq, tc))
}

// mergeReq adds per-request sums of several span names and returns them
// in microseconds.
func mergeReq(ms ...map[uint64]int64) []float64 {
	sum := map[uint64]int64{}
	for _, m := range ms {
		for req, ns := range m {
			sum[req] += ns
		}
	}
	out := make([]float64, 0, len(sum))
	for _, ns := range sum {
		out = append(out, float64(ns)/1e3)
	}
	return out
}

// overheadLine compares the traced p50s with the last untraced run of the
// workload saved under cfg.work.
func overheadLine(cfg config, tq, tc float64) string {
	saved, err := loadResult(cfg.work, cfg.w.name)
	if err != nil {
		return fmt.Sprintf("tracing overhead: no untraced %s result saved yet (%v)", cfg.w.name, err)
	}
	var b strings.Builder
	b.WriteString("tracing overhead (traced minus untraced):")
	for _, m := range []struct {
		name   string
		traced float64
	}{{"query_p50_ms", tq}, {"commit_p50_ms", tc}} {
		u := saved[m.name]
		fmt.Fprintf(&b, " %s %+.4f ms (%.4f vs %.4f);", m.name, m.traced-u, m.traced, u)
	}
	return b.String()
}
