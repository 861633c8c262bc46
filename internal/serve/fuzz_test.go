package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	cool "github.com/coolrts/cool"
)

// FuzzSubmitJSON posts arbitrary bodies to POST /jobs on a service whose
// runner does nothing. Whatever the body, the answer is 202 (queued),
// 400 (not a submission), 413 (too large), 429 (refused) or 503
// (draining), never a panic or another 5xx.
func FuzzSubmitJSON(f *testing.F) {
	for _, body := range []string{
		`{"app":"gauss"}`,
		`{"app":"pancho","size":"large","key":"tenant-1"}`,
		`{"app":"ocean","size":"huge"}`,
		`{"app":""}`,
		`{"app":"gauss","priority":9}`,
		`[]`,
		`{"app":"gauss"}{"app":"ocean"}`,
		``,
	} {
		f.Add([]byte(body))
	}
	noop := func(*cool.Runtime, *Job, *Residency) (string, error) { return "noop", nil }
	svc, err := NewService(Config{Runtimes: 1, Procs: 1, Runner: noop})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Drain)
	h := Handler(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /jobs %q: status %d (%s)", body, rec.Code, rec.Body)
		}
	})
}
