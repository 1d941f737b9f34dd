package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"doppelganger/internal/server"
)

// sweepdArgs starts a sweepd at the golden scale on an ephemeral loopback
// port. The admission bucket is opened far beyond what a closed loop of a
// few clients can spend, so no request of the stream is ever shed: the
// numbers measure the service path, not the token bucket.
func sweepdArgs(traceDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-scale", scaleArg, "-quiet",
		"-trace-dir", traceDir,
		"-admit-rate", "1e9", "-admit-burst", "1e9",
	}
}

// client talks to one sweep server over HTTP.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

// sweepd is one running sweepd process.
type sweepd struct {
	*client
	cmd     *exec.Cmd
	started time.Time
	ready   time.Duration // process start to the first 200 from /readyz
	stderr  bytes.Buffer
	exited  chan error // receives cmd.Wait's result once
}

// addrWriter watches the process's stdout for the listening line and
// publishes the address once.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if a, ok := strings.CutPrefix(strings.TrimSpace(line), "sweepd: listening on "); ok {
			w.addr <- a
			w.sent = true
			break
		}
	}
	return len(p), nil
}

// startSweepd launches bin and waits until /readyz answers 200.
func startSweepd(bin, dir, traceDir string, clients int) (*sweepd, error) {
	s := &sweepd{cmd: ownedCommand(dir, bin, sweepdArgs(traceDir)...)}
	aw := &addrWriter{addr: make(chan string, 1)}
	s.cmd.Stdout = aw
	s.cmd.Stderr = &s.stderr
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.exited = make(chan error, 1)
	go func() { s.exited <- s.cmd.Wait() }()
	fail := func(err error) (*sweepd, error) {
		s.cmd.Process.Kill()
		<-s.exited
		return nil, fmt.Errorf("sweepd: %w: %s", err, tail(s.stderr.Bytes(), 400))
	}
	deadline := time.After(120 * time.Second)
	select {
	case a := <-aw.addr:
		s.client = newClient("http://"+a, clients)
	case err := <-s.exited:
		s.exited <- err
		return fail(fmt.Errorf("exited before listening: %v", err))
	case <-deadline:
		return fail(errors.New("no listening line within 120s"))
	}
	for {
		resp, err := s.http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return fail(fmt.Errorf("exited before ready: %v", err))
		case <-deadline:
			return fail(errors.New("not ready within 120s"))
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.ready = time.Since(s.started)
	return s, nil
}

// stop drains the server with SIGTERM and returns its own resource usage.
func (s *sweepd) stop() (Usage, error) {
	s.http.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		err = errors.Join(errors.New("sweepd did not exit within 60s of SIGTERM"), <-s.exited)
	}
	u := Usage{Wall: time.Since(s.started)}
	u.CPU, u.PeakMB = usageOf(s.cmd.ProcessState)
	if err != nil {
		return u, fmt.Errorf("sweepd: %w: %s", err, tail(s.stderr.Bytes(), 400))
	}
	return u, nil
}

// stats reads /v1/stats.
func (s *client) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := s.http.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is one answered submission.
type reply struct {
	status  int
	latency time.Duration
	res     server.Result
}

// submit posts one cell and times it from send to the fully read reply.
func (s *client) submit(c server.Cell) (reply, error) {
	body, err := json.Marshal(c)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := s.http.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, latency: time.Since(start)}
	if err != nil {
		return r, err
	}
	if r.status == http.StatusOK {
		err = json.Unmarshal(b, &r.res)
	}
	return r, err
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// streamResult is what one pass of the closed loop measured.
type streamResult struct {
	wall      time.Duration
	first     []float64 // latency ms of first submissions
	repeat    []float64 // latency ms of repeats
	attempted int
	failures  []string
}

// runStream drives each client's sequence closed-loop (one request in
// flight per client) and applies the correctness gate to every reply: 200,
// checksum intact, the payload names the cell, a repeat is served from the
// memo with the first answer's exact bytes, and a first submission computes.
// With a tracer, every submission is a "server.submit" span under parent.
func (s *client) runStream(streams [][]Submission, tr *Tracer, parent int) streamResult {
	var (
		mu  sync.Mutex
		out streamResult
		wg  sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	for _, seq := range streams {
		wg.Add(1)
		go func(seq []Submission) {
			defer wg.Done()
			answers := map[string][]byte{}
			for _, sub := range seq {
				key := sub.Cell.Key()
				id := tr.Begin("server.submit", parent)
				r, err := s.submit(sub.Cell)
				tr.End(id)
				ms := float64(r.latency.Nanoseconds()) / 1e6
				mu.Lock()
				out.attempted++
				if sub.Repeat {
					out.repeat = append(out.repeat, ms)
				} else {
					out.first = append(out.first, ms)
				}
				mu.Unlock()
				switch {
				case err != nil:
					fail("%s: %v", key, err)
					continue
				case r.status != http.StatusOK:
					fail("%s: status %d", key, r.status)
					continue
				case fnv64a(r.res.Payload) != r.res.Sum:
					fail("%s: payload checksum mismatch", key)
					continue
				case r.res.Key != key:
					fail("%s: reply names %q", key, r.res.Key)
					continue
				case r.res.Cached != sub.Repeat:
					fail("%s: cached=%v on a repeat=%v submission", key, r.res.Cached, sub.Repeat)
					continue
				}
				if sub.Repeat {
					if !bytes.Equal(answers[key], r.res.Payload) {
						fail("%s: repeat payload differs from the first answer", key)
					}
				} else {
					answers[key] = append([]byte(nil), r.res.Payload...)
				}
			}
		}(seq)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}
