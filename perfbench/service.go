package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"antgpu"
	"antgpu/internal/service"
	"antgpu/internal/tsp"
)

// serviceMix is service-mix and service-miss: the antgpud stack
// (service.New over antgpu.NewPool, served by Service.Handler) self-hosted
// on loopback and driven by a closed loop of clients. Each client uploads a
// TSPLIB instance, follows the job's SSE stream to its terminal event, and
// submits again. The two workloads differ only in how often an upload is
// an instance the pool's derived-data cache has not seen.
type serviceMix struct {
	name        string
	seed        uint64
	clients     int
	uniqueEvery int                   // one job in this many uploads a new instance; 1: every job
	pooled      map[int][]mixInstance // by city count: the instances the other jobs repeat

	pool   *antgpu.Pool
	svc    *service.Service
	srv    *http.Server
	served chan struct{} // closed when the server's Serve returns
	base   string
	http   *http.Client
}

// mixClass is one job shape. The backend is left to the service, which
// picks the CPU colony for the first class and the tensor engine for the
// other two.
type mixClass struct {
	name string
	n    int
	ants int // 0: m = n
}

// The traffic shape is an assumption: there is no recorded antgpud traffic
// to draw it from. The three classes are the smallest jobs that reach each
// of the service's backend picks (cpu at m = n < 96, tensor for ants < n
// and for n >= 96), drawn with equal weight so that no backend dominates;
// acoload's default load, one att48 upload repeated with m = n, is the
// first class alone.
var mixClasses = []mixClass{{"n48-m48", 48, 0}, {"n48-m25", 48, 25}, {"n100-m100", 100, 0}}

const (
	mixIters = 10
	// service-mix repeats mixPooled instances per city count, so hits are
	// spread over several cache entries, and one job in mixUniqueEvery
	// uploads a new instance, so misses are a visible share (12.5%) while
	// hits stay the common case. Both values are assumptions; service-miss
	// makes every upload new, which brackets the cache behaviour.
	mixPooled      = 8
	mixUniqueEvery = 8
	opStride       = 1 << 20
)

// mixInstance is an instance with its TSPLIB text and greedy tour length.
type mixInstance struct {
	input
	nnLen int64
}

// mixJob is one submission.
type mixJob struct {
	class mixClass
	key   string
	inst  mixInstance
	seed  uint64
}

func newServiceMix(seed uint64, clients int) (*serviceMix, error) {
	w := &serviceMix{name: "service-mix", seed: seed, clients: clients, uniqueEvery: mixUniqueEvery,
		pooled: make(map[int][]mixInstance)}
	for _, n := range []int{48, 100} {
		for i := 0; i < mixPooled; i++ {
			inst, err := newMixInstance(seed, fmt.Sprintf("service-mix-n%d", n), i, n)
			if err != nil {
				return nil, err
			}
			w.pooled[n] = append(w.pooled[n], inst)
		}
	}
	return w, nil
}

func newServiceMiss(seed uint64, clients int) (*serviceMix, error) {
	return &serviceMix{name: "service-miss", seed: seed, clients: clients, uniqueEvery: 1}, nil
}

func newMixInstance(seed uint64, stream string, op, n int) (mixInstance, error) {
	inp, err := generate(seed, stream, op, n)
	if err != nil {
		return mixInstance{}, err
	}
	return mixInstance{input: inp, nnLen: inp.in.TourLength(inp.in.NearestNeighbourTour(0))}, nil
}

func (w *serviceMix) spec() spec {
	sp := spec{
		Name: w.name,
		N:    "48 | 48 | 100", M: "48 | 25 | 100", Iterations: mixIters,
		Backend: "auto (service picks cpu | tensor | tensor)", Clients: w.clients, TailPct: 95,
		Variant: "full-probabilistic (SubmitRequest cannot set SolveOptions.Variant, whose zero value this is)",
	}
	if w.uniqueEvery == 1 {
		sp.Why = "as service-mix, but every upload is an instance the service has not seen, so every job " +
			"misses the derived-data cache and derives its data; brackets service-mix's mostly-hit traffic"
		sp.Loop = fmt.Sprintf("closed, %d clients over %d loopback connections; the 3 classes equally weighted "+
			"(assumed); every job uploads a new instance", w.clients, w.clients)
		return sp
	}
	sp.Why = "the only workloads through HTTP, admission, queue wait, backend picking, the derived-data " +
		"cache and SSE; jobs are small, so those layers are a visible share of each"
	sp.Loop = fmt.Sprintf("closed, %d clients over %d loopback connections; the 3 classes equally weighted, "+
		"one job in %d uploads a new instance, the rest repeat %d pooled instances per size (all assumed)",
		w.clients, w.clients, mixUniqueEvery, mixPooled)
	return sp
}

// job picks client c's k-th submission from the seed alone.
func (w *serviceMix) job(c, k int) (mixJob, error) {
	h := mix(w.seed, tag(w.name), uint64(c), uint64(k))
	cl := mixClasses[h%uint64(len(mixClasses))]
	if h>>8%uint64(w.uniqueEvery) == 0 {
		inst, err := newMixInstance(w.seed, fmt.Sprintf("%s-unique-c%d", w.name, c), k, cl.n)
		key := fmt.Sprintf("%s/unique-c%d-%d", cl.name, c, k)
		return mixJob{class: cl, key: key, inst: inst, seed: solverSeed(w.seed, tag(key))}, err
	}
	return w.pooledJob(cl, int(h>>16%mixPooled)), nil
}

func (w *serviceMix) pooledJob(cl mixClass, i int) mixJob {
	key := fmt.Sprintf("%s/pool-%d", cl.name, i)
	return mixJob{class: cl, key: key, inst: w.pooled[cl.n][i], seed: solverSeed(w.seed, tag(key))}
}

// setup starts the service on a loopback port and warms it with as many
// jobs per class as service-mix pools instances: on those pooled
// instances, which fills the pool's derived-data cache, or, for
// service-miss, on instances the loop never uploads.
func (w *serviceMix) setup(ctx context.Context, _ bool) error {
	w.pool = antgpu.NewPool(antgpu.PoolOptions{Workers: w.clients})
	w.svc = service.New(service.Options{Pool: w.pool})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.srv = &http.Server{Handler: w.svc.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	w.base = "http://" + ln.Addr().String()
	w.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
	}}
	for _, cl := range mixClasses {
		var jobs []mixJob
		for i := range w.pooled[cl.n] {
			jobs = append(jobs, w.pooledJob(cl, i))
		}
		for i := 0; w.uniqueEvery == 1 && i < mixPooled; i++ {
			inst, err := newMixInstance(w.seed, w.name+"-warm-"+cl.name, i, cl.n)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/warm-%d", cl.name, i)
			jobs = append(jobs, mixJob{class: cl, key: key, inst: inst, seed: solverSeed(w.seed, tag(key))})
		}
		for _, j := range jobs {
			if rec := w.submit(ctx, j, -1, nil); rec.failed {
				return fmt.Errorf("warm-up: %s", rec.err)
			}
		}
	}
	return nil
}

func (w *serviceMix) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Every job and stream has ended by now; Drain waits for the job
	// goroutines to return and Shutdown for the connections to go idle.
	_ = w.svc.Drain(ctx)
	_ = w.srv.Shutdown(ctx)
	<-w.served
	w.http.CloseIdleConnections()
	w.srv = nil
}

func (w *serviceMix) cacheStats() (int64, int64) { return w.pool.CacheStats() }

func (w *serviceMix) run(ctx context.Context, d time.Duration, tr *tracer) []record {
	per := make([][]record, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k == 0 || time.Since(start) < d; k++ {
				j, err := w.job(c, k)
				if err != nil {
					per[c] = append(per[c], record{op: c*opStride + k, failed: true, err: err.Error()})
					continue
				}
				per[c] = append(per[c], w.submit(ctx, j, c*opStride+k, tr))
			}
		}()
	}
	wg.Wait()
	var recs []record
	for _, r := range per {
		recs = append(recs, r...)
	}
	return recs
}

// verify solves a sample of the jobs again directly through the facade,
// with the backend the service picked: per class, the first pooled and
// the first unique job that completed.
func (w *serviceMix) verify(ctx context.Context, _ *tracer, done []record) []record {
	var out []record
	seen := make(map[string]bool)
	for _, r := range done {
		if r.failed {
			continue
		}
		j, err := w.job(r.op/opStride, r.op%opStride)
		if err != nil {
			continue
		}
		sample := fmt.Sprint(j.class.name, strings.Contains(j.key, "/unique"))
		if !seen[sample] {
			seen[sample] = true
			out = append(out, w.direct(ctx, j, r))
		}
	}
	return out
}

// direct is the facade solve a service job should equal.
func (w *serviceMix) direct(ctx context.Context, j mixJob, job record) record {
	rec := job
	rec.wall, rec.counts = 0, nil
	b, err := backendOf(job.backend)
	if err != nil {
		rec.fail("op %d: %v", job.op, err)
		return rec
	}
	in, err := tsp.Parse(bytes.NewReader(j.inst.tsplib))
	if err != nil {
		rec.fail("op %d: %v", job.op, err)
		return rec
	}
	res, err := antgpu.SolveContext(ctx, in, antgpu.SolveOptions{
		Backend:    b,
		Iterations: mixIters,
		Params:     antgpu.Params{Ants: j.class.ants, Seed: j.seed},
	})
	if err != nil {
		rec.fail("op %d: direct solve: %v", job.op, err)
		return rec
	}
	rec.bestLen = res.BestLen
	rec.checkTour(in, res.BestTour, res.BestLen)
	return rec
}

// submit runs one job end to end: POST the upload, follow the event
// stream to the terminal status, and check the result. Its wall runs from
// sending the submit to receiving the terminal event.
func (w *serviceMix) submit(ctx context.Context, j mixJob, op int, tr *tracer) record {
	rec := record{op: op, key: j.key, n: j.class.n, m: j.class.ants, iters: mixIters, nnLen: j.inst.nnLen}
	if rec.m == 0 {
		rec.m = j.class.n
	}
	body, err := json.Marshal(service.SubmitRequest{
		TSPLIB:      string(j.inst.tsplib),
		Iterations:  mixIters,
		Params:      service.SubmitParams{Ants: j.class.ants, Seed: j.seed},
		IncludeTour: true,
	})
	if err != nil {
		rec.fail("encode submit: %v", err)
		return rec
	}
	root := tr.begin(op, 0, "op")
	defer tr.end(root)
	start := time.Now()
	sp := tr.begin(op, root, "service.submit")
	st, status, err := w.post(ctx, body)
	tr.end(sp)
	if err != nil {
		rec.wall = time.Since(start)
		rec.refused = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		rec.fail("op %d: submit: %v", op, err)
		return rec
	}
	id := st.ID
	sp = tr.begin(op, root, "service.stream")
	st, err = w.follow(ctx, id)
	tr.end(sp)
	end := time.Now()
	rec.wall = end.Sub(start)
	if err != nil {
		rec.fail("op %d: %s: %v", op, id, err)
		return rec
	}
	if st.State != service.StateDone || st.Result == nil || st.Started == nil || st.Finished == nil {
		rec.fail("op %d: %s ended %s: %s", op, st.ID, st.State, st.Error)
		return rec
	}
	// The job's own timestamps split the wait on the stream into queue
	// wait, run and delivery of the terminal event.
	tr.interval(op, sp, "service.queue_wait", st.Created, *st.Started)
	tr.interval(op, sp, "service.run", *st.Started, *st.Finished)
	tr.interval(op, sp, "service.deliver", *st.Finished, end)
	rec.counts = map[string]float64{"service.tensor_share": b2f(st.Backend == "tensor")}
	rec.bestLen = st.Result.BestLen
	rec.backend = st.Backend
	rec.checkTour(j.inst.in, st.Result.BestTour, rec.bestLen)
	return rec
}

// post submits a job and returns its queued status, or the HTTP status of
// a refusal.
func (w *serviceMix) post(ctx context.Context, body []byte) (service.JobStatus, int, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return st, resp.StatusCode, json.Unmarshal(data, &st)
}

// follow reads the job's SSE stream up to its terminal status event.
func (w *serviceMix) follow(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("status event: %w", err)
			}
			// The server ends the stream after the terminal event; reading
			// to its end lets the connection be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("event stream ended without a terminal status")
}

// backendOf maps a job's reported backend to the facade's.
func backendOf(name string) (antgpu.Backend, error) {
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q", name)
}
