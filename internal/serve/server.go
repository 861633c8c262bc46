package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// maxRequestBytes bounds a POST /jobs body. A Request is three short
// strings; a larger body is refused before it is decoded to the end.
const maxRequestBytes = 64 << 10

// Handler exposes the service over HTTP/JSON:
//
//	POST /jobs        submit  (body: Request)   -> 202 Snapshot
//	GET  /jobs/{id}   status                    -> 200 Snapshot, 404 unknown or evicted
//	GET  /report      pool + admission state    -> 200 Report
//	POST /drain       stop admissions, drain    -> 200 Report
//
// Rejections map to HTTP status codes: admission refusals and full
// queues are 429 (back off and retry), draining is 503 (this replica
// is going away), bad submissions are 400 — including a body naming a
// field Request does not have, or holding anything but whitespace after
// the one Request object — and a body over 64 KiB is 413. The service
// keeps the last 4096 jobs that ended (retainedJobs); GET /jobs/{id} of
// a job evicted past them answers 404, as for an ID it never issued.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil {
			if _, err = dec.Token(); err == nil {
				err = errors.New("more than one value")
			} else if err == io.EOF {
				err = nil
			}
		}
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge, "bad request body: "+err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		job, err := s.Submit(req)
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, job.Snapshot())
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case job != nil:
			// Admitted into the table but refused (rate limit, overload,
			// full queue): the snapshot carries the reason.
			writeJSON(w, http.StatusTooManyRequests, job.Snapshot())
		default:
			httpError(w, http.StatusBadRequest, err.Error())
		}
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		writeJSON(w, http.StatusOK, job.Snapshot())
	})

	mux.HandleFunc("GET /report", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Report())
	})

	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		s.Drain()
		writeJSON(w, http.StatusOK, s.Report())
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
