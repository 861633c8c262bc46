package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

func TestHTTPServeLifecycle(t *testing.T) {
	svc, err := NewService(Config{Runtimes: 2, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()
	defer svc.Drain()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	// Submit.
	resp, body := post("/jobs", `{"app":"gauss","size":"small","key":"t1/g"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.App != "gauss" {
		t.Fatalf("submit snapshot %+v", snap)
	}

	// Poll status to done.
	deadline := time.Now().Add(30 * time.Second)
	for snap.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", snap.State)
		}
		r, err := http.Get(ts.URL + "/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status: %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		time.Sleep(time.Millisecond)
	}
	if snap.Verify == "" || snap.Runtime < 0 {
		t.Fatalf("done snapshot %+v", snap)
	}

	// Unknown job is 404; a bad body, or one naming a field Request
	// lacks (priority, deadline_ns), is 400.
	if r, _ := http.Get(ts.URL + "/jobs/job-999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", r.StatusCode)
	}
	for _, bad := range []string{"{", `{"app":"gauss","priority":3}`, `{"app":"gauss","deadline_ns":1000}`} {
		if resp, body := post("/jobs", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: %d %s", bad, resp.StatusCode, body)
		}
	}

	// Report.
	r, err := http.Get(ts.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if rep.Router == "" || len(rep.Runtimes) != 2 || rep.Submitted < 1 {
		t.Fatalf("report %+v", rep)
	}

	// Drain, then submissions are 503.
	if resp, _ := post("/drain", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", `{"app":"gauss"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d", resp.StatusCode)
	}
}

// TestJobTableIsBounded streams 100 000 jobs through a service whose
// runner does nothing: the job table never holds more than the queued
// and running jobs plus retainedJobs ended ones, the job that ended last
// is still served, and the first job, evicted long ago, answers 404.
func TestJobTableIsBounded(t *testing.T) {
	noop := func(*cool.Runtime, *Job, *Residency) (string, error) { return "noop", nil }
	svc, err := NewService(Config{Runtimes: 2, Procs: 1, Runner: noop})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	h := Handler(svc)
	get := func(id string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
		return rec.Code
	}

	const jobs, batch = 100_000, 1000
	var first, last *Job
	pending := make([]*Job, 0, batch)
	for i := range jobs {
		j, err := svc.Submit(Request{App: "noop"})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = j
		}
		last = j
		pending = append(pending, j)
		if len(pending) < batch && i < jobs-1 {
			continue
		}
		for _, j := range pending {
			if !j.Wait(30 * time.Second) {
				t.Fatalf("%s did not finish", j.ID)
			}
		}
		pending = pending[:0]
		svc.mu.Lock()
		held := len(svc.jobs)
		svc.mu.Unlock()
		if held > retainedJobs+batch {
			t.Fatalf("after %d jobs the table holds %d, more than %d ended and %d live", i+1, held, retainedJobs, batch)
		}
	}
	// The runner's loop retires a job just after Wait returns; give the
	// last one that moment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.mu.Lock()
		held := len(svc.jobs)
		svc.mu.Unlock()
		if held == retainedJobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the table holds %d jobs once all have ended, want %d", held, retainedJobs)
		}
		time.Sleep(time.Millisecond)
	}
	if code := get(last.ID); code != http.StatusOK {
		t.Errorf("GET the job that ended last (%s): %d, want 200", last.ID, code)
	}
	if code := get(first.ID); code != http.StatusNotFound {
		t.Errorf("GET an evicted job (%s): %d, want 404", first.ID, code)
	}
}

// TestSubmitBodyIsOneBoundedObject: POST /jobs takes exactly one Request
// of at most 64 KiB. A second value after it is 400, a body over the
// bound is 413, and neither submits a job.
func TestSubmitBodyIsOneBoundedObject(t *testing.T) {
	noop := func(*cool.Runtime, *Job, *Residency) (string, error) { return "noop", nil }
	svc, err := NewService(Config{Runtimes: 1, Procs: 1, Runner: noop})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	h := Handler(svc)
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec.Code
	}
	if code := post(`{"app":"gauss"}` + " \n\t"); code != http.StatusAccepted {
		t.Fatalf("one object and trailing whitespace: %d, want 202", code)
	}
	before := svc.Report().Submitted
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"two objects", `{"app":"gauss"}{"app":"ocean"}`, http.StatusBadRequest},
		{"trailing garbage", `{"app":"gauss"} x`, http.StatusBadRequest},
		{"8 MiB key", `{"app":"gauss","key":"` + strings.Repeat("k", 8<<20) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		if code := post(c.body); code != c.want {
			t.Errorf("%s: %d, want %d", c.name, code, c.want)
		}
	}
	if after := svc.Report().Submitted; after != before {
		t.Fatalf("refused bodies submitted %d jobs", after-before)
	}
}
