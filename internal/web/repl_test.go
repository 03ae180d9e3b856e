package web

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"precis"
	"precis/internal/repl"
	"precis/internal/storage"
)

type replStatsJSON struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	FencedBy uint64 `json:"fenced_by"`
	Primary  *struct {
		Followers      int    `json:"followers"`
		SyncReplicas   int    `json:"sync_replicas"`
		Degraded       bool   `json:"degraded"`
		QuorumWaits    uint64 `json:"quorum_waits"`
		QuorumTimeouts uint64 `json:"quorum_timeouts"`
		Links          []struct {
			Remote        string  `json:"remote"`
			AckGen        uint64  `json:"ack_gen"`
			AckLagRecords int64   `json:"ack_lag_records"`
			SecsSinceAck  float64 `json:"secs_since_ack"`
		} `json:"links,omitempty"`
	} `json:"primary,omitempty"`
	Follower *struct {
		Addr           string `json:"addr"`
		Connected      bool   `json:"connected"`
		AppliedGen     uint64 `json:"applied_gen"`
		AppliedRecords uint64 `json:"applied_records"`
		LagRecords     int64  `json:"lag_records"`
	} `json:"follower,omitempty"`
}

func getRepl(t *testing.T, url string) replStatsJSON {
	t.Helper()
	code, body := get(t, url+"/api/repl")
	if code != http.StatusOK {
		t.Fatalf("repl code=%d body=%s", code, body)
	}
	var out replStatsJSON
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("repl JSON: %v\n%s", err, body)
	}
	return out
}

// TestAPIReplNone: a plain engine reports role "none" with neither side
// populated — the probe is safe to scrape on any deployment.
func TestAPIReplNone(t *testing.T) {
	ts := testServer(t)
	out := getRepl(t, ts.URL)
	if out.Role != "none" || out.Primary != nil || out.Follower != nil {
		t.Errorf("plain engine reports replication: %+v", out)
	}
}

// TestAPIReplRoles: a streaming primary and a connected follower each
// report their role, the primary counts its follower, and the follower
// exposes its applied position.
func TestAPIReplRoles(t *testing.T) {
	db, g := exampleEngineParts(t)
	primary, err := precis.Open(db, g, quietPersist(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.StartReplication(ln, repl.PrimaryConfig{Logger: quietPersist("").Logger}); err != nil {
		t.Fatal(err)
	}

	_, fg := exampleEngineParts(t)
	follower, err := precis.OpenFollower(fg, precis.ReplicaConfig{
		Addr:   ln.Addr().String(),
		Logger: quietPersist("").Logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })

	pts := httptest.NewServer(NewServer(primary).Handler())
	t.Cleanup(pts.Close)
	fts := httptest.NewServer(NewServer(follower).Handler())
	t.Cleanup(fts.Close)

	deadline := time.Now().Add(10 * time.Second)
	for {
		p, f := getRepl(t, pts.URL), getRepl(t, fts.URL)
		if p.Role == "primary" && p.Primary != nil && p.Primary.Followers == 1 &&
			f.Role == "follower" && f.Follower != nil && f.Follower.Connected &&
			f.Follower.AppliedGen > 0 && f.Follower.LagRecords == 0 {
			if f.Follower.Addr != ln.Addr().String() {
				t.Fatalf("follower reports wrong primary addr %q", f.Follower.Addr)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("roles never settled: primary=%+v follower=%+v", p, f)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postPromote hits POST /api/promote and returns the status code and body.
func postPromote(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/api/promote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestAPIPromote drives the operator failover endpoint: promoting a
// durable follower returns the new epoch and flips what /api/repl
// reports, while a non-follower answers 409 and a diskless follower 412
// (its state is not a durable prefix).
func TestAPIPromote(t *testing.T) {
	db, g := exampleEngineParts(t)
	primary, err := precis.Open(db, g, quietPersist(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.StartReplication(ln, repl.PrimaryConfig{Logger: quietPersist("").Logger}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(NewServer(primary).Handler())
	t.Cleanup(pts.Close)
	if code, body := postPromote(t, pts.URL, ""); code != http.StatusConflict {
		t.Fatalf("promote on a primary: code=%d body=%s (want 409)", code, body)
	}

	_, dg := exampleEngineParts(t)
	diskless, err := precis.OpenFollower(dg, precis.ReplicaConfig{
		Addr:   ln.Addr().String(),
		Logger: quietPersist("").Logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = diskless.Close() })
	dts := httptest.NewServer(NewServer(diskless).Handler())
	t.Cleanup(dts.Close)
	if code, body := postPromote(t, dts.URL, ""); code != http.StatusPreconditionFailed {
		t.Fatalf("promote on a diskless follower: code=%d body=%s (want 412)", code, body)
	}

	_, fg := exampleEngineParts(t)
	follower, err := precis.OpenFollower(fg, precis.ReplicaConfig{
		Addr:   ln.Addr().String(),
		Dir:    t.TempDir(),
		Logger: quietPersist("").Logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })
	fts := httptest.NewServer(NewServer(follower).Handler())
	t.Cleanup(fts.Close)
	if out := getRepl(t, fts.URL); out.Role != "follower" || out.Epoch != 1 {
		t.Fatalf("durable follower before promote: %+v", out)
	}

	code, body := postPromote(t, fts.URL, "{}")
	if code != http.StatusOK {
		t.Fatalf("promote: code=%d body=%s", code, body)
	}
	var res struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("promote JSON: %v\n%s", err, body)
	}
	if !res.Promoted || res.Epoch != 2 {
		t.Fatalf("promote response: %+v", res)
	}
	if out := getRepl(t, fts.URL); out.Role == "follower" || out.Role == "promoting" || out.Epoch != 2 || out.FencedBy != 0 {
		t.Fatalf("promoted engine over /api/repl: %+v", out)
	}
	// The promoted engine is writable through the same handle.
	if _, err := follower.Insert("GENRE", storage.Int(1), storage.String("post-promote")); err != nil {
		t.Fatalf("insert on promoted engine: %v", err)
	}
	// Promote is not repeatable: the engine is no longer a follower.
	if code, body := postPromote(t, fts.URL, ""); code != http.StatusConflict {
		t.Fatalf("second promote: code=%d body=%s (want 409)", code, body)
	}
}

// TestAPIReplDegraded: a sync primary that loses its quorum with
// DegradeToAsync surfaces the sticky degraded flag, the quorum counters,
// and — once a follower attaches — the per-link ack positions, all through
// /api/repl.
func TestAPIReplDegraded(t *testing.T) {
	db, g := exampleEngineParts(t)
	primary, err := precis.Open(db, g, quietPersist(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.StartReplication(ln, repl.PrimaryConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		SyncReplicas:   1,
		AckTimeout:     30 * time.Millisecond,
		DegradeToAsync: true,
		Logger:         quietPersist("").Logger,
	}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(NewServer(primary).Handler())
	t.Cleanup(pts.Close)

	// No follower: the write degrades and the flag shows on the wire.
	if _, err := primary.Insert("GENRE", storage.Int(1), storage.String("degraded-probe")); err != nil {
		t.Fatalf("degraded insert: %v", err)
	}
	out := getRepl(t, pts.URL)
	if out.Primary == nil || !out.Primary.Degraded || out.Primary.SyncReplicas != 1 ||
		out.Primary.QuorumWaits == 0 || out.Primary.QuorumTimeouts == 0 {
		t.Fatalf("degraded primary over /api/repl: %+v", out.Primary)
	}

	// A follower attaches and acks: the flag heals and the link's ack
	// position appears with zero lag.
	_, fg := exampleEngineParts(t)
	follower, err := precis.OpenFollower(fg, precis.ReplicaConfig{
		Addr:   ln.Addr().String(),
		Logger: quietPersist("").Logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for {
		out = getRepl(t, pts.URL)
		p := out.Primary
		if p != nil && !p.Degraded && len(p.Links) == 1 &&
			p.Links[0].AckGen > 0 &&
			p.Links[0].AckLagRecords == 0 && p.Links[0].SecsSinceAck >= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded flag never healed over /api/repl: %+v", p)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplAckLagMetricAgrees: precis_repl_ack_lag_records on /metrics is
// the largest AckLagRecords among the primary's links. One follower acks
// everything it applies; a second link never acks, so its lag is the whole
// generation and the gauge must report that worst link, not the caught-up
// one.
func TestReplAckLagMetricAgrees(t *testing.T) {
	db, g := exampleEngineParts(t)
	primary, err := precis.Open(db, g, quietPersist(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.StartReplication(ln, repl.PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietPersist("").Logger}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(NewServer(primary).Handler())
	t.Cleanup(pts.Close)

	_, fg := exampleEngineParts(t)
	follower, err := precis.OpenFollower(fg, precis.ReplicaConfig{Addr: ln.Addr().String(), Logger: quietPersist("").Logger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })
	silent := repl.New(repl.Config{Addr: ln.Addr().String(), Logger: quietPersist("").Logger}, repl.Callbacks{
		Position: func() (uint64, uint64) { return 0, 0 },
		Snapshot: func(uint64, []byte) error { return nil },
		Record:   func(uint64, uint64, []byte) error { return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); silent.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	for i := 0; i < 5; i++ {
		if _, err := primary.Insert("GENRE", storage.Int(1), storage.String(fmt.Sprintf("lag-probe-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var worst, best int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		worst, best = -1, -1
		links := primary.ReplStats().Primary.Links
		for _, l := range links {
			if worst < 0 || l.AckLagRecords > worst {
				worst = l.AckLagRecords
			}
			if best < 0 || l.AckLagRecords < best {
				best = l.AckLagRecords
			}
		}
		if len(links) == 2 && best == 0 && worst >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("links never settled (one caught up, one silent): %+v", links)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, metricsBody := get(t, pts.URL+"/metrics")
	if got := parseExposition(t, metricsBody)[precis.MetricReplAckLagRecords]; got != float64(worst) {
		t.Errorf("%s = %v, want the worst link's AckLagRecords %d", precis.MetricReplAckLagRecords, got, worst)
	}
}
