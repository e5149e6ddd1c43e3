package httpapi

import (
	"dramtherm/internal/sweep"
)

// searchRequest is the "search" block of POST /v1/sweeps: instead of
// sweeping every spec exhaustively, successive halving runs rounds over
// the same candidates (specs + expanded grid), pruning on cheap
// fidelity rungs before any full-cost simulation.
type searchRequest struct {
	// Rungs is the ascending fidelity ladder; the last entry must be 1.
	// Empty selects the default ladder 0.25, 0.5, 1.
	Rungs []float64 `json:"rungs,omitempty"`
	// Eta is the keep-fraction denominator (default 2).
	Eta float64 `json:"eta,omitempty"`
}

// searchRound is the wire form of one completed round.
type searchRound struct {
	Index      int          `json:"index"`
	Rung       float64      `json:"rung"`
	Candidates int          `json:"candidates"`
	Survivors  int          `json:"survivors"`
	Pruned     int          `json:"pruned"`
	Best       sweep.Spec   `json:"best"`
	Objective  float64      `json:"objective"`
	Specs      []sweep.Spec `json:"specs,omitempty"`      // only with ?specs=1
	Objectives []float64    `json:"objectives,omitempty"` // only with ?specs=1
}

// searchResponse reports one completed adaptive search.
type searchResponse struct {
	Rounds           []searchRound `json:"rounds"`
	Best             sweep.Spec    `json:"best"`
	BestObjective    float64       `json:"best_objective"`
	TotalRuns        int           `json:"total_runs"`
	FullFidelityRuns int           `json:"full_fidelity_runs"`
	Table            tableJSON     `json:"table"`
	Cache            sweep.Stats   `json:"cache"`
	Wall             float64       `json:"wall_seconds"`
}

// searchPayload is what a finished search job stores in the registry.
type searchPayload struct {
	res  *sweep.SearchResult
	wall float64
}

func (s *Server) searchResponseOf(res *sweep.SearchResult, wall float64, perSpec bool) *searchResponse {
	out := &searchResponse{
		Rounds:           make([]searchRound, 0, len(res.Rounds)),
		Best:             res.Best,
		BestObjective:    res.BestObjective,
		TotalRuns:        res.TotalRuns,
		FullFidelityRuns: res.FullFidelityRuns,
		Cache:            s.eng.Stats(),
		Wall:             wall,
	}
	for _, rd := range res.Rounds {
		best := rd.Best()
		jr := searchRound{
			Index:      rd.Index,
			Rung:       rd.Scale,
			Candidates: len(rd.Specs),
			Survivors:  rd.Survivors,
			Pruned:     rd.Pruned,
			Best:       rd.Specs[best],
			Objective:  rd.Objectives[best],
		}
		if perSpec {
			jr.Specs = rd.Specs
			jr.Objectives = rd.Objectives
		}
		out.Rounds = append(out.Rounds, jr)
	}
	tab := res.Table("search")
	out.Table = tableJSON{Header: tab.Header, Rows: tab.Rows}
	return out
}
