package service

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"

	"fpgadbg/internal/obs"
)

// The HTTP/JSON face of the service, mounted by cmd/fpgadbgd:
//
//	POST /campaigns               submit a Spec, returns the Status
//	GET  /campaigns               list all campaigns
//	GET  /campaigns/{id}          one campaign's status (+result when done)
//	GET  /campaigns/{id}/events   NDJSON progress stream, past + live
//	GET  /campaigns/{id}/trace    finished campaign's StageTrace (JSON)
//	POST /campaigns/{id}/cancel   cancel queued or running campaign
//	GET  /healthz                 liveness + queue depth
//	GET  /metrics                 expvar globals + this service's stats
//	                              and telemetry registry under "fpgadbgd"

// metricsHandler serves the expvar-style JSON document: every process
// global expvar.Do yields (memstats, cmdline, ...) plus this instance's
// stats and telemetry registry snapshot under the "fpgadbgd" key — the
// document dashboards and the CI daemon smoke assert against. The
// per-instance key is assembled here rather than via expvar.Publish —
// Publish is process-global and panics on duplicates, so two services in
// one process (tests, embedded daemons) would both report whichever
// instance registered first.
func metricsHandler(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if kv.Key == "fpgadbgd" {
				return // stale global from older embedders; superseded below
			}
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		b, err := json.Marshal(struct {
			Stats
			Telemetry obs.RegistrySnapshot `json:"telemetry"`
		}{s.Stats(), s.reg.Snapshot()})
		if err != nil {
			b = []byte("null")
		}
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: %s\n}\n", "fpgadbgd", b)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Handler mounts the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		// A campaign spec is a handful of scalars; anything bigger is abuse.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		st, err := s.Status(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		past, live, unsub, err := s.Events(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		defer unsub()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for _, ev := range past {
			enc.Encode(ev) //nolint:errcheck
		}
		if flusher != nil {
			flusher.Flush()
		}
		for {
			select {
			case ev, ok := <-live:
				if !ok {
					return // campaign finished
				}
				if err := enc.Encode(ev); err != nil {
					return // client gone
				}
				if flusher != nil {
					flusher.Flush()
				}
			case <-r.Context().Done():
				return
			}
		}
	})

	mux.HandleFunc("GET /campaigns/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		st, _ := s.Status(r.PathValue("id"))
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":      true,
			"workers": st.Workers,
			"queued":  st.Queued,
			"running": st.Running,
		})
	})

	mux.HandleFunc("GET /metrics", metricsHandler(s))

	return mux
}
