package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/serve"
)

// Pool shape of both serve workloads.
const (
	serveRuntimes  = 2
	residentSpaces = 4
	// window is how many jobs each serve-affinity client keeps
	// outstanding, so that queues form behind the runtimes.
	window = 4
)

// The client's select in affinitySession.runBlock spells out one case
// per slot; this fails to compile if window stops being 4.
var _ = [1]struct{}{}[window-4]

// serveProbes is what the traced pass's decorators around the
// injectable parts of serve.Config observe. The untraced pass installs
// none of them and runs the service exactly as coolserve builds it.
type serveProbes struct {
	tr *tracer
	// submitSpan names the client-side span the admission and routing
	// spans hang under: the Submit call in process, the POST over HTTP.
	submitSpan string

	mu       sync.Mutex
	last     map[string]int // key -> entry that last served it
	keyed    int64          // keyed jobs whose key had been served before
	home     int64          // of those, jobs routed to that entry again
	runtimes map[*cool.Runtime]bool
	native   nativeCounters
}

type tracedAdmission struct {
	serve.Admission
	p *serveProbes
}

func (a tracedAdmission) Admit(j *serve.Job, stats []serve.EntryStat) error {
	t0 := a.p.tr.now()
	err := a.Admission.Admit(j, stats)
	a.p.tr.add(j.ID, "serve.admission.admit", a.p.submitSpan, t0, a.p.tr.now())
	return err
}

type tracedRouter struct {
	serve.Router
	p *serveProbes
}

func (r tracedRouter) Pick(j *serve.Job, stats []serve.EntryStat) int {
	t0 := r.p.tr.now()
	idx := r.Router.Pick(j, stats)
	r.p.tr.add(j.ID, "serve.router.pick", r.p.submitSpan, t0, r.p.tr.now())
	if key := j.Req.Key; key != "" && idx >= 0 && idx < len(stats) {
		r.p.mu.Lock()
		if last, ok := r.p.last[key]; ok {
			r.p.keyed++
			if last == stats[idx].ID {
				r.p.home++
			}
		}
		r.p.last[key] = stats[idx].ID
		r.p.mu.Unlock()
	}
	return idx
}

// runner re-spells serve.CatalogRunner with a span around each call
// into the residency cache and the apps layer, and keeps the job's
// runtime report, which the serving API does not return.
func (p *serveProbes) runner(rt *cool.Runtime, j *serve.Job, res *serve.Residency) (string, error) {
	const parent = "serve.pool.run"
	timed := func(name string, f func()) {
		t0 := p.tr.now()
		f()
		p.tr.add(j.ID, name, parent, t0, p.tr.now())
	}
	var prep any
	if res != nil && apps.CatalogHasPrepare(j.Req.App) {
		var ok bool
		timed("serve.residency.lookup", func() { prep, ok = res.Lookup(j) })
		if !ok {
			var err error
			timed("apps.prepare", func() { prep, err = apps.PrepareCatalog(j.Req.App, j.Req.Size) })
			if err != nil {
				return "", err
			}
			if prep != nil {
				timed("serve.residency.store", func() { res.Store(j, prep) })
			}
		}
	}
	var r apps.Result
	var err error
	timed("apps.run_prepared", func() { r, err = apps.RunCatalogPrepared(rt, j.Req.App, j.Req.Size, prep) })
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.runtimes[rt] = true
	p.native.add(r.Report)
	p.mu.Unlock()
	return r.Verify, nil
}

// newService builds the two-runtime pool both serve workloads use. With
// a tracer it installs the decorators and the tracer's clock.
func newService(procs int, tr *tracer, submitSpan string) (*serve.Service, *serveProbes, error) {
	cfg := serve.Config{Runtimes: serveRuntimes, Procs: procs, ResidentSpaces: residentSpaces}
	var p *serveProbes
	if tr != nil {
		router, err := serve.NewRouter("space-affinity", procs)
		if err != nil {
			return nil, nil, err
		}
		admission, err := serve.NewAdmission("always", serve.AdmissionConfig{})
		if err != nil {
			return nil, nil, err
		}
		p = &serveProbes{tr: tr, submitSpan: submitSpan, last: make(map[string]int), runtimes: make(map[*cool.Runtime]bool)}
		cfg.Router = tracedRouter{router, p}
		cfg.Admission = tracedAdmission{admission, p}
		cfg.Runner = p.runner
		cfg.Now = tr.now
	}
	svc, err := serve.NewService(cfg)
	return svc, p, err
}

// serveSession is the state the two serve workloads share.
type serveSession struct {
	clients int // client goroutines, or connections
	procs   int // workers of each runtime in the pool
	svc     *serve.Service
	probes  *serveProbes // nil in the untraced pass
	tr      *tracer
}

// finished checks a terminal snapshot and records the job. It returns
// when verification ended.
func (s *serveSession) finished(j job, sn serve.Snapshot, issued time.Time, rec *recorder) time.Time {
	if s.tr != nil {
		rec.snapshot(sn)
		s.tr.add(sn.ID, "serve.pool.queue_wait", rootSpan, sn.SubmitNS, sn.StartNS)
		s.tr.add(sn.ID, "serve.pool.run", rootSpan, sn.StartNS, sn.DoneNS)
	}
	if sn.State != "done" {
		rec.fail(fmt.Errorf("%s %s: state %s: %s", sn.ID, j.kind(), sn.State, sn.Error))
		return time.Now()
	}
	return rec.done(j, sn.Verify, issued)
}

func (s *serveSession) layers(m map[string]float64) {
	rep := s.svc.Report()
	var hits, misses, completed int64
	for _, e := range rep.Runtimes {
		hits += e.PrepHits
		misses += e.PrepMisses
		completed += e.Completed
	}
	m["serve.residency.hit_share"] = ratio(float64(hits), float64(hits+misses))
	m["serve.rejected"] = float64(rep.Rejected)
	m["serve.lost"] = float64(rep.Submitted - rep.Rejected - completed)
	if p := s.probes; p != nil {
		m["serve.router.home_share"] = ratio(float64(p.home), float64(p.keyed))
		m["serve.pool.rebuilds"] = float64(len(p.runtimes) - serveRuntimes)
		p.native.layers(m, s.procs)
	}
}

// poolLayers derives the pool's queueing numbers from the snapshots of
// the traced pass.
func poolLayers(snaps []serve.Snapshot, m map[string]float64) {
	if len(snaps) == 0 {
		return
	}
	var wait, run []float64
	byEntry := make(map[int][]serve.Snapshot)
	for _, sn := range snaps {
		wait = append(wait, float64(sn.StartNS-sn.SubmitNS)/1e6)
		run = append(run, float64(sn.DoneNS-sn.StartNS)/1e6)
		byEntry[sn.Runtime] = append(byEntry[sn.Runtime], sn)
	}
	// The reset gap is the time an entry with work waiting spends
	// between two jobs: previous done to next start, counted only when
	// the next job had been submitted before the previous one finished.
	var gaps []float64
	for _, list := range byEntry {
		sort.Slice(list, func(i, k int) bool { return list[i].StartNS < list[k].StartNS })
		for i := 1; i < len(list); i++ {
			if prev, next := list[i-1], list[i]; next.SubmitNS < prev.DoneNS {
				gaps = append(gaps, float64(next.StartNS-prev.DoneNS)/1e3)
			}
		}
	}
	m["serve.pool.queue_wait_ms"] = percentile(wait, 50)
	m["serve.pool.queue_wait_p95_ms"] = percentile(wait, 95)
	m["serve.pool.run_ms"] = percentile(run, 50)
	m["serve.pool.reset_gap_us"] = percentile(gaps, 50)
}

// --- serve-affinity --------------------------------------------------

type affinitySession struct{ serveSession }

// affinityProcs is the worker count of serve-affinity's runtimes. It
// is 1 because pancho, the only catalog app with an analyze phase for
// residency to keep, fails about once in 3000 runs on a native runtime
// with more than one worker (README.md, Findings); with one worker it
// did not fail in 32000. Its tasks are coarse, so the workload is about
// the serve layer either way.
const affinityProcs = 1

func openAffinity(clients int, tr *tracer) (session, error) {
	svc, probes, err := newService(affinityProcs, tr, "serve.submit")
	if err != nil {
		return nil, err
	}
	return &affinitySession{serveSession{clients: clients, procs: affinityProcs, svc: svc, probes: probes, tr: tr}}, nil
}

func (s *affinitySession) close() { s.svc.Drain() }

// inflight is one outstanding job of a serve-affinity client.
type inflight struct {
	j      job
	sj     *serve.Job
	issued time.Time
}

// runBlock drives the service in process with s.clients clients, each
// keeping window jobs outstanding and reacting to whichever finishes
// first.
func (s *affinitySession) runBlock(ctx context.Context, jobs []job, rec *recorder) {
	cur := cursor{jobs: jobs}
	var wg sync.WaitGroup
	// submit issues jobs from the shared cursor until one is queued.
	submit := func() *inflight {
		for {
			j, ok := cur.take(ctx)
			if !ok {
				return nil
			}
			issued := time.Now()
			sj, err := s.svc.Submit(serve.Request{App: j.App, Size: j.Size, Key: j.Key})
			if err != nil {
				rec.fail(fmt.Errorf("submit %s: %w", j.kind(), err))
				continue
			}
			s.tr.add(sj.ID, "serve.submit", rootSpan, s.tr.at(issued), s.tr.at(time.Now()))
			return &inflight{j, sj, issued}
		}
	}
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slots [window]*inflight
			var done [window]<-chan struct{}
			for {
				active := 0
				for i := range slots {
					if slots[i] == nil {
						if slots[i] = submit(); slots[i] != nil {
							done[i] = slots[i].sj.Done()
						}
					}
					if slots[i] != nil {
						active++
					}
				}
				if active == 0 {
					return
				}
				i := -1
				select {
				case <-done[0]:
					i = 0
				case <-done[1]:
					i = 1
				case <-done[2]:
					i = 2
				case <-done[3]:
					i = 3
				case <-ctx.Done():
					for range active {
						rec.fail(errDeadline)
					}
					return
				}
				woke := time.Now()
				in := slots[i]
				slots[i], done[i] = nil, nil
				sn := in.sj.Snapshot()
				end := s.finished(in.j, sn, in.issued, rec)
				if s.tr != nil {
					s.tr.add(sn.ID, "client.wake", rootSpan, sn.DoneNS, s.tr.at(woke))
					s.tr.add(sn.ID, "client.verify", rootSpan, s.tr.at(woke), s.tr.at(end))
					s.tr.add(sn.ID, rootSpan, "", s.tr.at(in.issued), s.tr.at(end))
				}
			}
		}()
	}
	wg.Wait()
}

// --- serve-http-keyless ----------------------------------------------

type httpSession struct {
	serveSession
	url    string
	srv    *http.Server
	served chan error
	conns  []*http.Client
}

func openHTTP(procs int, tr *tracer) (session, error) {
	svc, probes, err := newService(procs, tr, "serve.http.post")
	if err != nil {
		return nil, err
	}
	s := &httpSession{serveSession: serveSession{clients: procs, procs: procs, svc: svc, probes: probes, tr: tr}}
	if err := s.listen(serve.Handler(svc), procs); err != nil {
		svc.Drain()
		return nil, err
	}
	return s, nil
}

// listen serves h on a loopback port of the kernel's choosing, inside
// this process, and gives each of n clients its own keep-alive
// connection.
func (s *httpSession) listen(h http.Handler, n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback listener: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for c := 0; c < n; c++ {
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return nil
}

func (s *httpSession) close() {
	for _, c := range s.conns {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	s.srv.Close() // closes the listener and every connection; Serve then returns
	<-s.served
	s.svc.Drain()
}

// call makes one request and decodes the job snapshot in the reply.
func call(c *http.Client, method, url string, body []byte, wantStatus int) (serve.Snapshot, error) {
	var sn serve.Snapshot
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return sn, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return sn, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // to the end, so the connection is reused
	if err != nil {
		return sn, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != wantStatus {
		return sn, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &sn); err != nil {
		return sn, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return sn, nil
}

// runBlock drives the service over HTTP with s.clients connections, one
// job outstanding on each: POST, wait, GET, check.
func (s *httpSession) runBlock(ctx context.Context, jobs []job, rec *recorder) {
	runClients(ctx, s.clients, jobs, func(c int, j job) {
		body, err := json.Marshal(serve.Request{App: j.App, Size: j.Size, Key: j.Key})
		if err != nil {
			rec.fail(err)
			return
		}
		issued := time.Now()
		posted, err := call(s.conns[c], http.MethodPost, s.url+"/jobs", body, http.StatusAccepted)
		if err != nil {
			rec.fail(err)
			return
		}
		accepted := time.Now()
		// The HTTP API has no blocking wait, and polling it would
		// measure the poll interval: wait on the in-process job.
		sj, ok := s.svc.Job(posted.ID)
		if !ok {
			rec.fail(fmt.Errorf("%s accepted over HTTP but unknown to the service", posted.ID))
			return
		}
		select {
		case <-sj.Done():
		case <-ctx.Done():
			rec.fail(errDeadline)
			return
		}
		woke := time.Now()
		sn, err := call(s.conns[c], http.MethodGet, s.url+"/jobs/"+posted.ID, nil, http.StatusOK)
		if err != nil {
			rec.fail(err)
			return
		}
		fetched := time.Now()
		end := s.finished(j, sn, issued, rec)
		if s.tr != nil {
			s.tr.add(sn.ID, "serve.http.post", rootSpan, s.tr.at(issued), s.tr.at(accepted))
			s.tr.add(sn.ID, "client.wake", rootSpan, sn.DoneNS, s.tr.at(woke))
			s.tr.add(sn.ID, "serve.http.get", rootSpan, s.tr.at(woke), s.tr.at(fetched))
			s.tr.add(sn.ID, "client.verify", rootSpan, s.tr.at(fetched), s.tr.at(end))
			s.tr.add(sn.ID, rootSpan, "", s.tr.at(issued), s.tr.at(end))
		}
	})
}
