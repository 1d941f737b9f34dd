package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"doppelganger/internal/server"
)

// fakeSweepd answers /v1/jobs like sweepd: a deterministic payload per
// cell, its FNV-64a sum, and cached on every submission after the first.
// fault, when set, may rewrite the reply for one key.
type fakeSweepd struct {
	mu    sync.Mutex
	seen  map[string]bool
	fault func(key string, w http.ResponseWriter, res *server.Result) bool
}

func (f *fakeSweepd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var c server.Cell
	if err := json.NewDecoder(r.Body).Decode(&c); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := c.Key()
	payload := []byte(fmt.Sprintf(`{"key":%q,"kind":%q}`, key, c.Kind))
	f.mu.Lock()
	res := server.Result{Key: key, Payload: payload, Sum: fnv64a(payload), Cached: f.seen[key]}
	f.seen[key] = true
	f.mu.Unlock()
	if f.fault != nil && f.fault(key, w, &res) {
		return
	}
	json.NewEncoder(w).Encode(res)
}

func runFake(t *testing.T, fault func(string, http.ResponseWriter, *server.Result) bool) streamResult {
	t.Helper()
	ts := httptest.NewServer(&fakeSweepd{seen: map[string]bool{}, fault: fault})
	defer ts.Close()
	c := newClient(ts.URL, 2)
	defer c.http.CloseIdleConnections()
	tr := newTracer("test")
	res := c.runStream(generateStream(5, 2, streamRepeats), tr, 0)
	if want := len(errorCellSpace()) + streamRepeats; res.attempted != want || len(tr.Spans()) != want {
		t.Fatalf("attempted %d, spans %d; want %d", res.attempted, len(tr.Spans()), want)
	}
	return res
}

func TestStreamGatePassesAGoodServer(t *testing.T) {
	res := runFake(t, nil)
	if len(res.failures) != 0 {
		t.Fatalf("failures on a correct server: %v", res.failures[:min(3, len(res.failures))])
	}
	if len(res.first) != len(errorCellSpace()) || len(res.repeat) != streamRepeats {
		t.Errorf("%d first and %d repeat latencies", len(res.first), len(res.repeat))
	}
}

func TestStreamGateCatchesBadReplies(t *testing.T) {
	// The target is a cell client 0 both submits and repeats.
	var target string
	for _, sub := range generateStream(5, 2, streamRepeats)[0] {
		if sub.Repeat {
			target = sub.Cell.Key()
			break
		}
	}
	for name, fault := range map[string]func(string, http.ResponseWriter, *server.Result) bool{
		"shed": func(key string, w http.ResponseWriter, _ *server.Result) bool {
			if key != target {
				return false
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return true
		},
		"checksum": func(key string, _ http.ResponseWriter, res *server.Result) bool {
			if key == target {
				res.Sum++
			}
			return false
		},
		"cached-first": func(key string, _ http.ResponseWriter, res *server.Result) bool {
			if key == target {
				res.Cached = true
			}
			return false
		},
		"changed-repeat": func(key string, _ http.ResponseWriter, res *server.Result) bool {
			if key == target && res.Cached {
				res.Payload = []byte(strings.Replace(string(res.Payload), "error", "errox", 1))
				res.Sum = fnv64a(res.Payload)
			}
			return false
		},
	} {
		t.Run(name, func(t *testing.T) {
			res := runFake(t, fault)
			if len(res.failures) == 0 {
				t.Fatal("the gate let a bad reply through")
			}
			for _, f := range res.failures {
				if !strings.Contains(f, target) {
					t.Errorf("failure blames another cell: %s", f)
				}
			}
		})
	}
}
