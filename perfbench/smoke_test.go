package main

import "testing"

// Every workload runs end to end at a tiny size, traced and untraced:
// outputs check out, nothing fails, and every metric the result line
// promises is present, with every end-to-end metric non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the engine")
	}
	endToEnd := []string{"setup_s", "heap_mb", "ok_ratio", "query_p50_ms", "query_p99_ms",
		"query_throughput_qps", "commit_p50_ms", "commit_p99_ms", "commit_throughput_ops",
		"recovery_s", "disk_bytes_per_user_byte"}
	perLayer := []string{"web.overhead_us", "anscache.hit_ratio", "invidx.lookup_us",
		"core.db_gen_self_us", "sqlx.stmts_per_query", "nlg.translate_share",
		"storage.apply_us", "wal.commits_per_fsync", "wal.recovery_index_loaded",
		"repl.quorum_wait_share", "loadgen.late_p99_ms", "trace.spans"}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rp, err := run(config{w: w, seed: 7, seconds: 0.3, trace: traced, work: t.TempDir(), films: 300})
				if err != nil {
					t.Fatal(err)
				}
				res := rp.result()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%q errors=%q",
						res.Correct, res.Failed, res.Attempted, rp.problems, rp.errors)
				}
				for _, m := range endToEnd {
					if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %+v (present %v), want > 0", m, v, ok)
					}
				}
				if traced {
					for _, m := range perLayer {
						if _, ok := res.Metrics[m]; !ok {
							t.Errorf("per-layer metric %s missing", m)
						}
					}
					if got := res.Metrics["repl.quorum_wait_share"].Value; (w.followers > 0) != (got > 0) {
						t.Errorf("repl.quorum_wait_share = %v with %d followers", got, w.followers)
					}
				}
			})
		}
	}
}
