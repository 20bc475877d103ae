package service

import (
	"net/http"

	"dense802154/internal/query"
	"dense802154/internal/scenario"
)

// ---- GET /v1/scenarios ----

type scenarioListResponse struct {
	Scenarios []scenario.Scenario `json:"scenarios"`
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenarioListResponse{Scenarios: scenario.Catalog()})
}

// ---- GET /v1/scenarios/{name} ----

// The GET form serves the committed golden result — the pinned cross-model
// outcome this build ships — without computing anything.
func (s *Server) handleScenarioGolden(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b, ok := scenario.Golden(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario "+name, "name")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// ---- POST /v1/scenarios/{name} ----

type scenarioRunRequest struct {
	// Workers is the requested parallelism (clamped to the server pool;
	// results never depend on it).
	Workers int `json:"workers,omitempty"`
	// Diff additionally scores the fresh run against the committed golden.
	Diff bool `json:"diff,omitempty"`
}

func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := scenario.ByName(name); !ok {
		writeError(w, http.StatusNotFound, "unknown scenario "+name, "name")
		return
	}
	var req scenarioRunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := query.Query{Kind: query.KindScenario, Scenario: name, Diff: req.Diff, Workers: req.Workers}
	if rs, ok := s.runV1(w, r, q, nil, http.StatusInternalServerError); ok {
		writeJSON(w, http.StatusOK, rs.Results[0].Scenario)
	}
}
