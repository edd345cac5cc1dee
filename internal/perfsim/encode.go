package perfsim

import (
	"encoding/json"
	"fmt"
	"io"

	"orwlplace/internal/comm"
)

// jsonWorkload is the on-disk form of a Workload, consumed by
// cmd/simulate: thread descriptions plus the communication matrix as
// rows of bytes-per-iteration.
type jsonWorkload struct {
	Name                   string      `json:"name"`
	Threads                []Thread    `json:"threads"`
	Comm                   [][]float64 `json:"comm"`
	Iterations             int         `json:"iterations"`
	ControlThreads         int         `json:"control_threads,omitempty"`
	ControlEventsPerIter   float64     `json:"control_events_per_iter,omitempty"`
	StartupContextSwitches float64     `json:"startup_context_switches,omitempty"`
	MasterAlloc            bool        `json:"master_alloc,omitempty"`
	Stages                 [][]int     `json:"stages,omitempty"`
}

// ReadJSON decodes a workload in the jsonWorkload schema and validates
// it.
func ReadJSON(in io.Reader) (*Workload, error) {
	var jw jsonWorkload
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jw); err != nil {
		return nil, fmt.Errorf("perfsim: decode workload: %w", err)
	}
	m, err := comm.FromRows(jw.Comm)
	if err != nil {
		return nil, fmt.Errorf("perfsim: workload comm: %w", err)
	}
	w := &Workload{
		Name:                   jw.Name,
		Threads:                jw.Threads,
		Comm:                   m,
		Iterations:             jw.Iterations,
		ControlThreads:         jw.ControlThreads,
		ControlEventsPerIter:   jw.ControlEventsPerIter,
		StartupContextSwitches: jw.StartupContextSwitches,
		MasterAlloc:            jw.MasterAlloc,
		Stages:                 jw.Stages,
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
