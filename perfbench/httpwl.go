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
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptmr"
	"adaptmr/internal/analyze"
	"adaptmr/internal/check"
	"adaptmr/internal/cluster"
	"adaptmr/internal/control"
	"adaptmr/internal/core"
	"adaptmr/internal/mapred"
	"adaptmr/internal/server"
)

// autotune-http: an in-process adaptd on loopback driven by closed-loop
// clients. Each client POSTs a streamed /v1/autotune (sort on 2 hosts ×
// 4 VMs), reads the run's SSE stream until the terminal result frame,
// then sends its next request. Requests cycle over a few configurations
// derived from the seed; every tenth request instead repeats the other
// client's in-flight request, so single-flight coalescing occurs.

const (
	httpClients = 2
	// httpWorkers is the daemon's worker count (its default): one per
	// client, so no request waits behind another. With fewer, latency is
	// bimodal (served at once or after a whole other run) and its median
	// moves by ±10% between identical runs.
	httpWorkers = httpClients
	httpConfigs = 6
	// httpRepeatEvery: request k repeats the other client's in-flight
	// request when k % httpRepeatEvery == httpRepeatEvery-1.
	httpRepeatEvery = 10
	// httpSetups is how many times a run boots a server to time set-up.
	httpSetups = 51
	// httpStallLimit bounds how long one request may take before the
	// client gives up and counts it failed.
	httpStallLimit = 60 * time.Second
)

type httpWorkload struct {
	seed int64
	reqs []server.AutotuneRequest // one per configuration, without run_id
}

// newHTTPWorkload derives the request configurations from the seed: a
// cluster seed each and a per-VM input of 251–262 MB, configuration j
// taking 251 + 2j or 252 + 2j. Every seed thus carries nearly the same
// total work, so host-time figures compare across seeds, while the
// simulated outputs still differ between seeds.
func newHTTPWorkload(seed int64) httpWorkload {
	w := httpWorkload{seed: seed}
	for j := 0; j < httpConfigs; j++ {
		w.reqs = append(w.reqs, server.AutotuneRequest{
			Cluster: server.ClusterSpec{Hosts: 2, VMsPerHost: 4, Seed: int64(derive(seed, "cluster", j)>>2) + 1},
			Job:     server.JobSpec{Bench: "sort", InputMB: 251 + 2*int64(j) + int64(derive(seed, "input", j)%2)},
		})
	}
	return w
}

// daemon is one in-process adaptd listening on loopback.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startDaemon boots a server and waits until /readyz answers 200; the
// returned duration is that set-up time.
func startDaemon(client *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(server.Config{Workers: httpWorkers})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("adaptd not ready after 10s (last error %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains the server, closes the listener and waits for Serve to
// return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Shutdown(ctx)
	<-d.done
}

// outcome is one request as its client saw it.
type outcome struct {
	cfg     int
	latency time.Duration // send → terminal result frame
	ttfb    time.Duration // send → first SSE frame
	samples int           // "sample" frames
	result  []byte        // the result frame's data lines joined by "\n"
	err     error
}

// coordinator hands out request numbers and decides repeats.
type coordinator struct {
	mu       sync.Mutex
	next     int
	inflight [httpClients]*pending
}

type pending struct {
	cfg   int
	runID string
}

func (c *coordinator) take(client int, seed int64) *pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.next
	c.next++
	p := &pending{cfg: k % httpConfigs, runID: fmt.Sprintf("s%d-r%d", seed, k)}
	if other := c.inflight[1-client]; other != nil && k%httpRepeatEvery == httpRepeatEvery-1 {
		p = other
	}
	c.inflight[client] = p
	return p
}

func (c *coordinator) release(client int) {
	c.mu.Lock()
	c.inflight[client] = nil
	c.mu.Unlock()
}

// do sends one streamed autotune request and follows its stream.
func (w httpWorkload) do(client *http.Client, base string, p *pending) outcome {
	out := outcome{cfg: p.cfg}
	req := w.reqs[p.cfg]
	req.RunID = p.runID
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	type posted struct {
		status int
		body   []byte
		err    error
	}
	postc := make(chan posted, 1)
	go func() {
		resp, err := client.Post(base+"/v1/autotune", "application/json", bytes.NewReader(body))
		if err != nil {
			postc <- posted{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		postc <- posted{status: resp.StatusCode, body: b, err: err}
	}()
	out.err = w.follow(client, base, p.runID, t0, &out)
	pr := <-postc
	switch {
	case out.err != nil:
	case pr.err != nil:
		out.err = fmt.Errorf("POST %s: %w", p.runID, pr.err)
	case pr.status != http.StatusOK:
		out.err = fmt.Errorf("POST %s: status %d: %s", p.runID, pr.status, bytes.TrimSpace(pr.body))
	case !bytes.Equal(bytes.TrimRight(pr.body, "\n"), out.result):
		out.err = fmt.Errorf("%s: SSE result frame differs from the POST body", p.runID)
	}
	return out
}

// follow subscribes to the run's stream (retrying while the POST has not
// registered it yet) and reads frames until the terminal one.
func (w httpWorkload) follow(client *http.Client, base, runID string, t0 time.Time, out *outcome) error {
	var resp *http.Response
	for {
		var err error
		resp, err = client.Get(base + "/v1/stream?id=" + runID)
		if err != nil {
			return fmt.Errorf("stream %s: %w", runID, err)
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || time.Since(t0) > httpStallLimit {
			return fmt.Errorf("stream %s: status %d", runID, resp.StatusCode)
		}
		time.Sleep(200 * time.Microsecond)
	}
	defer resp.Body.Close()
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var event string
	var data []string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("stream %s ended without a result frame", runID)
			}
			return fmt.Errorf("stream %s: %w", runID, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):])
		case line == "":
			if event == "" {
				continue
			}
			if out.ttfb == 0 {
				out.ttfb = time.Since(t0)
			}
			payload := strings.Join(data, "\n")
			switch event {
			case "sample":
				out.samples++
			case "result":
				out.latency = time.Since(t0)
				out.result = []byte(payload)
				return nil
			case "error":
				return fmt.Errorf("stream %s: error frame: %s", runID, payload)
			}
			event, data = "", data[:0]
		}
	}
}

// load is one closed-loop measurement against a running daemon.
type load struct {
	outcomes []outcome
	elapsed  time.Duration
	allocs   uint64
	metrics  map[string]float64 // the daemon's /metrics after the load

	setups []time.Duration // daemon set-up times
	refs   [][]byte        // non-streamed body of every configuration
	// speed times the reference kernel before and after the load, while
	// the machine carries no benchmark work.
	speed speed
}

func (w httpWorkload) load(client *http.Client, d *daemon, deadline time.Time) (*load, error) {
	co := &coordinator{}
	results := make([][]outcome, httpClients)
	a0 := mallocs()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p := co.take(c, w.seed)
				results[c] = append(results[c], w.do(client, d.base, p))
				co.release(c)
			}
		}(c)
	}
	wg.Wait()
	l := &load{elapsed: time.Since(t0), allocs: mallocs() - a0}
	for _, r := range results {
		l.outcomes = append(l.outcomes, r...)
	}
	m, err := scrape(client, d.base)
	l.metrics = m
	return l, err
}

// scrape reads the daemon's Prometheus text exposition into a map.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// references fetches the non-streamed body of every configuration.
func (w httpWorkload) references(client *http.Client, base string) ([][]byte, error) {
	refs := make([][]byte, len(w.reqs))
	for j, req := range w.reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(base+"/v1/autotune", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("non-streamed autotune for configuration %d: status %d", j, resp.StatusCode)
		}
		refs[j] = bytes.TrimRight(b, "\n")
	}
	return refs, nil
}

// kernelSamples is how many reference-kernel timings a session takes
// before and after its load.
const kernelSamples = 11

// session boots the daemon httpSetups times (timing each set-up), keeps
// the last one for a load until deadline, then fetches the reference
// bodies and checks every outcome against them.
func (w httpWorkload) session(deadline time.Time, t *tally) (*load, error) {
	var sp speed
	for i := 0; i < kernelSamples; i++ {
		sp.sample()
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * httpClients},
		Timeout:   httpStallLimit,
	}
	defer client.CloseIdleConnections()
	var setups []time.Duration
	var d *daemon
	for i := 0; i < httpSetups; i++ {
		dd, setup, err := startDaemon(client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < httpSetups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()
	l, err := w.load(client, d, deadline)
	if err != nil {
		return nil, err
	}
	l.setups, l.speed = setups, sp
	for i := 0; i < kernelSamples; i++ {
		l.speed.sample()
	}
	refs, err := w.references(client, d.base)
	if err != nil {
		return nil, err
	}
	l.refs = refs
	for i, o := range l.outcomes {
		switch {
		case o.err != nil:
			t.fail("request %d: %v", i, o.err)
		case !bytes.Equal(o.result, refs[o.cfg]):
			t.fail("request %d: SSE result frame differs from the non-streamed body of configuration %d", i, o.cfg)
		default:
			t.ok()
		}
	}
	return l, nil
}

// latencies returns the successful requests' latencies in seconds.
func (l *load) latencies() (lat, ttfb []float64) {
	for _, o := range l.outcomes {
		if o.err == nil {
			lat = append(lat, o.latency.Seconds())
			ttfb = append(ttfb, o.ttfb.Seconds())
		}
	}
	return lat, ttfb
}

// executed is how many runs the daemon executed: coalesced requests
// shared their leader's run.
func (l *load) executed() float64 {
	return float64(len(l.outcomes)) - l.metrics["server_coalesced_total"]
}

// autotuneBody is the part of the /v1/autotune response the benchmark
// reads.
type autotuneBody struct {
	Switches   int                `json:"switches"`
	Windows    int                `json:"windows"`
	Decisions  []control.Decision `json:"decisions"`
	DurationNS int64              `json:"duration_ns"`
	DurationS  float64            `json:"duration_s"`
}

func runHTTP(o options, t *tally, ms *metricSet) ([]string, error) {
	w := newHTTPWorkload(o.seed)
	start := time.Now()
	if !o.trace {
		l, err := w.session(o.deadline(start), t)
		if err != nil {
			return nil, err
		}
		refs, f := l.refs, l.speed.factor()
		lat, _ := l.latencies()
		if len(lat) == 0 {
			return nil, fmt.Errorf("no request succeeded")
		}
		// Per-configuration event counts come from in-process replicas of
		// the daemon's runs; each replica must agree with the daemon body.
		// The simulated figures cover one request of every configuration.
		cfgEvents := make([]float64, httpConfigs)
		var simEvents, makespan float64
		for j := range cfgEvents {
			u, _, err := w.replica(j, false)
			t.check(agrees(u, err, refs[j]))
			cfgEvents[j] = float64(u.events)
			simEvents += float64(u.events)
			makespan += u.makespan / httpConfigs
		}
		var events float64
		for _, oc := range l.outcomes {
			events += cfgEvents[oc.cfg]
		}
		events *= l.executed() / float64(len(l.outcomes))
		ms.set("wall_s", "s", f*median(lat))
		ms.set("events_per_sec", "1/s", events/l.elapsed.Seconds()/f)
		ms.set("allocs_per_event", "count", float64(l.allocs)/max(events, 1))
		ms.set("max_rss_mb", "MB", maxRSSMB())
		ms.set("setup_s", "s", f*median(secs(l.setups)))
		ms.set("sim_events", "count", simEvents)
		ms.set("makespan_s", "s", makespan)
		ms.set("req_p50_ms", "ms", f*1000*median(lat))
		ms.set("req_p90_ms", "ms", f*1000*quantile(lat, 0.9))
		ms.set("req_per_s", "1/s", float64(len(lat))/l.elapsed.Seconds()/f)
		return []string{
			fmt.Sprintf("samples: %d requests from %d closed-loop clients (p90 has %d beyond it), %.0f coalesced",
				len(lat), httpClients, len(lat)/10, l.metrics["server_coalesced_total"]),
			l.speed.note(),
		}, nil
	}
	return w.traceRun(o, start, t, ms)
}

// traceRun is the --trace 1 run: a profiled load gives the server and
// controller figures, then the configuration-0 job is replayed in process
// exactly as the daemon runs it — once untraced and once traced per
// round — and its trace feeds the layer replays.
func (w httpWorkload) traceRun(o options, start time.Time, t *tally, ms *metricSet) ([]string, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	clk := readCPUClock()
	l, err := w.session(start.Add(time.Duration(profileShare*float64(budget))), t)
	gc := readCPUClock().gcFrac(clk)
	self, perr := stop()
	if err != nil {
		return nil, err
	}
	t.check(perr)
	refs := l.refs
	var ref autotuneBody
	if err := json.Unmarshal(refs[0], &ref); err != nil {
		return nil, err
	}
	lr := &layerRun{gcFrac: gc, makespan: ref.DurationS, speed: l.speed, selfCPU: self, profiledUnits: l.executed()}
	var walls, twalls []float64
	for i := 0; i < tracedUnits; i++ {
		for _, tracing := range []bool{false, true} {
			u, tr, err := w.replica(0, tracing)
			err = agrees(u, err, refs[0])
			if err == nil && tracing {
				err = auditTraced(u, tr, u)
			}
			t.check(err)
			if err != nil {
				continue
			}
			if !tracing {
				walls = append(walls, u.wall.Seconds())
			} else {
				twalls = append(twalls, u.wall.Seconds())
				if lr.tr == nil {
					lr.tr = tr
				}
			}
		}
	}
	if lr.tr == nil || len(walls) == 0 {
		return nil, fmt.Errorf("no replica run completed")
	}
	lr.untracedWall, lr.tracedWall = median(walls), median(twalls)
	lr.times = replayRounds(lr.tr.tr, o.deadline(start), t, &lr.speed)

	held := 0
	for _, d := range ref.Decisions {
		if !d.Issued {
			held++
		}
	}
	var samples []float64
	for _, oc := range l.outcomes {
		if oc.err == nil && oc.cfg == 0 {
			samples = append(samples, float64(oc.samples))
		}
	}
	_, ttfb := l.latencies()
	lr.control = controlStats{windows: float64(ref.Windows), switches: float64(ref.Switches),
		held: float64(held), samples: median(samples)}
	lr.server = serverStats{
		ttfbMS:        1000 * median(ttfb),
		coalescedFrac: l.metrics["server_coalesced_total"] / max(l.metrics["server_requests_autotune"], 1),
		rejected:      l.metrics["server_queue_rejected_total"],
		droppedFrames: l.metrics["server_streams_dropped_frames"],
	}
	return lr.perLayer(ms), nil
}

// agrees checks a replica unit against the daemon's body for the same
// configuration.
func agrees(u unit, err error, body []byte) error {
	if err != nil {
		return fmt.Errorf("in-process replica: %w", err)
	}
	var ref autotuneBody
	if err := json.Unmarshal(body, &ref); err != nil {
		return err
	}
	if want := fmt.Sprintf("%d/%d/%d", ref.DurationNS, ref.Switches, ref.Windows); string(u.output) != want {
		return fmt.Errorf("in-process replica (%s) disagrees with the daemon body (%s)", u.output, want)
	}
	return nil
}

// replica runs configuration j's job the way the daemon's autotune
// handler does — a fresh core.Runner whose evaluation gets a sampler and
// an online controller — optionally traced. Its output is
// "<duration ns>/<switches>/<windows>", comparable with the daemon body.
func (w httpWorkload) replica(j int, tracing bool) (u unit, tr *traced, err error) {
	defer recovered(&err, "autotune replica")
	req := w.reqs[j]
	cfg := adaptmr.DefaultClusterConfig()
	cfg.Hosts, cfg.VMsPerHost, cfg.Seed = req.Cluster.Hosts, req.Cluster.VMsPerHost, req.Cluster.Seed
	var set *check.Set
	if tracing {
		set = check.NewSet()
		cfg.Check = set
	}
	pol := adaptmr.DefaultOnlinePolicy()
	run := core.NewRunner(cfg, adaptmr.SortBenchmark(req.Job.InputMB<<20).Job)
	run.Parallelism = 1
	var ctrl *control.Controller
	var rec *recorder
	var cl *cluster.Cluster
	a0 := mallocs()
	t0 := time.Now()
	run.OnEvaluation = func(_ core.Plan, c *cluster.Cluster) {
		cl = c
		smp := analyze.NewSampler()
		smp.AttachCluster(c)
		ctrl = control.New(pol)
		ctrl.Attach(c, smp)
		if tracing {
			rec = attach(c)
		}
		u.setup = time.Since(t0)
	}
	res, err := run.Run(core.Uniform(core.TwoPhases, pol.StartPair))
	u.wall = time.Since(t0)
	u.allocs = mallocs() - a0
	if err != nil {
		return u, nil, err
	}
	u.events = int64(cl.Eng.EventsFired())
	u.makespan = res.Duration.Seconds()
	u.output = []byte(fmt.Sprintf("%d/%d/%d", int64(res.Duration), ctrl.Switches(), ctrl.Windows()))
	if !tracing {
		return u, nil, nil
	}
	set.Finalize()
	return u, &traced{
		tr:       rec.finish(),
		checkErr: set.Err(),
		mapS:     res.Job.PhaseDuration(mapred.PhaseMap).Seconds(),
		shuffleS: res.Job.PhaseDuration(mapred.PhaseShuffle).Seconds(),
		reduceS:  res.Job.PhaseDuration(mapred.PhaseReduce).Seconds(),
	}, nil
}
