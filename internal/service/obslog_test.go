package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"antgpu/internal/obslog"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes a shared log
// stream or crash writer sees.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// jsonLines decodes every non-empty line of s as a JSON object.
func jsonLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "===") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line is not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestRequestIDRoundTrip: a client-supplied X-Request-ID is echoed on the
// response header, recorded in the job status, and stamped on every line of
// the job's flight-recorder log; a client that sends none gets a generated
// ID with the same guarantees.
func TestRequestIDRoundTrip(t *testing.T) {
	stream := &syncBuffer{}
	lg := obslog.New(stream, obslog.Options{Flight: obslog.NewFlight(0)})
	s, _ := newTestService(t, 2, 0, Options{Logger: lg})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(requestID string) (string, JobStatus) {
		t.Helper()
		req, _ := http.NewRequest("POST", srv.URL+"/v1/solve",
			strings.NewReader(`{"benchmark":"att48","iterations":3}`))
		if requestID != "" {
			req.Header.Set("X-Request-ID", requestID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /v1/solve: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/solve: status %d", resp.StatusCode)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		return resp.Header.Get("X-Request-ID"), st
	}

	echoed, st := submit("req-roundtrip-1")
	if echoed != "req-roundtrip-1" {
		t.Errorf("X-Request-ID echoed as %q, want req-roundtrip-1", echoed)
	}
	if st.RequestID != "req-roundtrip-1" {
		t.Errorf("JobStatus.RequestID = %q, want req-roundtrip-1", st.RequestID)
	}
	waitState(t, s, st.ID, JobStatus.Terminal)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/log")
	if err != nil {
		t.Fatalf("GET job log: %v", err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read job log: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job log: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("job log Content-Type = %q", ct)
	}
	lines := jsonLines(t, body.String())
	if len(lines) == 0 {
		t.Fatal("job log is empty")
	}
	for _, m := range lines {
		if m["request_id"] != "req-roundtrip-1" {
			t.Fatalf("job log line missing request ID: %v", m)
		}
		if m["job_id"] != st.ID {
			t.Fatalf("job log line carries wrong job ID: %v", m)
		}
	}

	// No header: the service generates one and the same round trip holds.
	echoed, st = submit("")
	if echoed == "" {
		t.Fatal("no X-Request-ID generated on response")
	}
	if st.RequestID != echoed {
		t.Errorf("JobStatus.RequestID = %q, header %q", st.RequestID, echoed)
	}
}

// TestCorrelationEndToEnd is the tentpole acceptance test: one faulted GPU
// solve submitted over HTTP with a known request ID, and every event it
// produced — admission, dispatch, solver lifecycle, faults, retries,
// terminal state, flight-recorder lines — carries that ID.
func TestCorrelationEndToEnd(t *testing.T) {
	const rid = "req-e2e-correlated"
	stream := &syncBuffer{}
	lg := obslog.New(stream, obslog.Options{
		Level:  slog.LevelDebug,
		Flight: obslog.NewFlight(0),
	})
	s, _ := newTestService(t, 1, 0, Options{Logger: lg})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/v1/solve", strings.NewReader(
		`{"benchmark":"att48","iterations":8,"backend":"gpu","fault_spec":"rate=0.02,seed=5"}`))
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/solve: status %d: %+v", resp.StatusCode, st)
	}
	final := waitState(t, s, st.ID, JobStatus.Terminal)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.RequestID != rid {
		t.Fatalf("JobStatus.RequestID = %q, want %q", final.RequestID, rid)
	}

	// Every stream line belonging to this job must carry the request ID;
	// the recovery runtime must have logged fault-family events under it.
	events := map[string]int{}
	for _, m := range jsonLines(t, stream.String()) {
		if m["job_id"] != st.ID {
			continue
		}
		if m["request_id"] != rid {
			t.Fatalf("stream line for job %s lacks request ID %q: %v", st.ID, rid, m)
		}
		events[m["msg"].(string)]++
	}
	for _, want := range []string{
		obslog.EvAdmit, obslog.EvDispatch, obslog.EvSolveStart,
		obslog.EvKernel, obslog.EvFault, obslog.EvRetry,
		obslog.EvSolveEnd, obslog.EvDone,
	} {
		if events[want] == 0 {
			t.Errorf("no %q event logged for the faulted job (saw %v)", want, events)
		}
	}

	// The flight recorder's job ring tells the same story under the same ID.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/log")
	if err != nil {
		t.Fatalf("GET job log: %v", err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	lines := jsonLines(t, body.String())
	if len(lines) == 0 {
		t.Fatal("flight-recorder job log is empty")
	}
	for _, m := range lines {
		if m["request_id"] != rid {
			t.Fatalf("flight line lacks request ID: %v", m)
		}
	}
}

// TestTerminalFailureCrashDump: a job killed mid-run by fault injection
// (permanent device death, failover disabled) fails terminally and the
// service dumps its flight-recorder ring to the crash writer — every line
// carrying the originating request ID.
func TestTerminalFailureCrashDump(t *testing.T) {
	const rid = "req-crash-dump"
	crash := &syncBuffer{}
	lg := obslog.New(nil, obslog.Options{Flight: obslog.NewFlight(0), Crash: crash})
	s, _ := newTestService(t, 1, 0, Options{Logger: lg})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/v1/solve", strings.NewReader(
		`{"benchmark":"att48","iterations":8,"backend":"gpu","fault_spec":"dieat=5,seed=3","no_failover":true}`))
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/solve: status %d: %+v", resp.StatusCode, st)
	}
	final := waitState(t, s, st.ID, JobStatus.Terminal)
	if final.State != StateFailed {
		t.Fatalf("job ended %s, want failed (dieat with no_failover)", final.State)
	}

	// The dump is written by the job goroutine just after the terminal
	// status lands; give it a moment.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(crash.String(), "=== end flight recorder dump ===") {
		if time.Now().After(deadline) {
			t.Fatalf("no flight-recorder dump on terminal failure; crash writer holds:\n%s", crash.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	dump := crash.String()
	if !strings.Contains(dump, "flight recorder dump for "+st.ID) {
		t.Errorf("dump header does not name the job:\n%s", dump)
	}
	lines := jsonLines(t, dump)
	if len(lines) == 0 {
		t.Fatal("crash dump holds no event lines")
	}
	sawFault := false
	for _, m := range lines {
		if m["request_id"] != rid {
			t.Fatalf("crash dump line lacks request ID %q: %v", rid, m)
		}
		if m["event"] == obslog.EvFault {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("crash dump holds no fault event")
	}
}

// TestFaultSpecValidation: the fault-injection request fields are rejected
// outside the fault-tolerant runtime's envelope, and a malformed spec is a
// 400-class error, not a wasted queue slot.
func TestFaultSpecValidation(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	for _, req := range []SubmitRequest{
		{Benchmark: "att48", FaultSpec: "rate=0.1"},                                 // backend cpu
		{Benchmark: "att48", Backend: "gpu", Algorithm: "acs", FaultSpec: "rate=1"}, // not AS
		{Benchmark: "att48", Backend: "gpu", LocalSearch: true, NoFailover: true},   // local search
		{Benchmark: "att48", Backend: "gpu", FaultSpec: "banana"},                   // malformed
	} {
		if _, err := s.Submit(context.Background(), "c", req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
	// The valid envelope is accepted.
	st, err := s.Submit(context.Background(), "c",
		SubmitRequest{Benchmark: "att48", Iterations: 2, Backend: "gpu", FaultSpec: "rate=0.01,seed=1"})
	if err != nil {
		t.Fatalf("valid fault_spec rejected: %v", err)
	}
	waitState(t, s, st.ID, JobStatus.Terminal)
}

// TestStreamKeepAlive: an idle stream emits ping events on the fake clock's
// schedule, and the HTTP adapter renders them as SSE comment lines.
func TestStreamKeepAlive(t *testing.T) {
	tick := make(chan time.Time)
	var mu sync.Mutex
	var asked []time.Duration
	s, _ := newTestService(t, 1, 0, Options{
		KeepAlive: 15 * time.Second,
		after: func(d time.Duration) <-chan time.Time {
			mu.Lock()
			asked = append(asked, d)
			mu.Unlock()
			return tick
		},
	})
	// A hand-built job that never produces events: the stream has only the
	// keep-alive timer to wake on.
	j := &job{wake: make(chan struct{}), cancel: func() {}}
	j.status = JobStatus{ID: "job-idle", State: StateRunning}
	s.mu.Lock()
	s.jobs["job-idle"] = j
	s.order = append(s.order, "job-idle")
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pings := make(chan Event, 4)
	done := make(chan error, 1)
	go func() {
		done <- s.Stream(ctx, "job-idle", func(ev Event) error {
			pings <- ev
			return nil
		})
	}()

	for i := 0; i < 3; i++ {
		tick <- time.Time{}
		select {
		case ev := <-pings:
			if ev.Type != "ping" || ev.Seq != -1 {
				t.Fatalf("keep-alive event = %+v, want Type ping Seq -1", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no ping after keep-alive interval elapsed")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream returned %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) == 0 || asked[0] != 15*time.Second {
		t.Fatalf("keep-alive timer asked for %v, want 15s", asked)
	}
}

// TestKeepAliveSSEComment: over HTTP the ping arrives as an SSE comment
// line, which EventSource clients ignore by design.
func TestKeepAliveSSEComment(t *testing.T) {
	tick := make(chan time.Time, 1)
	s, _ := newTestService(t, 1, 0, Options{
		after: func(d time.Duration) <-chan time.Time { return tick },
	})
	j := &job{wake: make(chan struct{}), cancel: func() {}}
	j.status = JobStatus{ID: "job-idle", State: StateRunning}
	s.mu.Lock()
	s.jobs["job-idle"] = j
	s.order = append(s.order, "job-idle")
	s.mu.Unlock()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	tick <- time.Time{}
	resp, err := http.Get(srv.URL + "/v1/jobs/job-idle/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no ping comment on the SSE stream")
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		if strings.TrimSpace(line) == ": ping" {
			return
		}
	}
}

// TestKeepAliveDefaults: zero selects 15 s, negative disables.
func TestKeepAliveDefaults(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	if s.keep != 15*time.Second {
		t.Errorf("default keep-alive = %v, want 15s", s.keep)
	}
	s, _ = newTestService(t, 1, 0, Options{KeepAlive: -1})
	if s.keep >= 0 {
		t.Errorf("negative keep-alive not preserved: %v", s.keep)
	}
}
