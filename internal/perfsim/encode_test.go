package perfsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"orwlplace/internal/comm"
)

func TestWorkloadJSONRoundTrip(t *testing.T) {
	w := computeWorkload(3, comm.Ring(3, 1024, true))
	w.Name = "roundtrip"
	w.ControlThreads = 2
	w.ControlEventsPerIter = 4
	w.MasterAlloc = true
	w.Stages = [][]int{{0}, {1, 2}}
	rows := make([][]float64, w.Comm.Order())
	for i := range rows {
		rows[i] = make([]float64, len(rows))
		w.Comm.ForEachRow(i, func(j int, v float64) { rows[i][j] = v })
	}
	data, err := json.Marshal(jsonWorkload{
		Name: w.Name, Threads: w.Threads, Comm: rows, Iterations: w.Iterations,
		ControlThreads: w.ControlThreads, ControlEventsPerIter: w.ControlEventsPerIter,
		MasterAlloc: w.MasterAlloc, Stages: w.Stages,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || len(got.Threads) != 3 || got.Iterations != w.Iterations {
		t.Errorf("round trip = %+v", got)
	}
	if got.Comm.At(0, 1) != 1024 || got.Comm.At(2, 0) != 1024 {
		t.Error("comm matrix lost")
	}
	if !got.MasterAlloc || got.ControlThreads != 2 || len(got.Stages) != 2 {
		t.Error("flags lost")
	}
	if got.Threads[0].ComputeCycles != w.Threads[0].ComputeCycles {
		t.Error("thread fields lost")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"name":"x","threads":[],"comm":[],"iterations":1}`,
		`{"name":"x","threads":[{}],"comm":[[0],[0]],"iterations":1}`,
		`{"name":"x","threads":[{}],"comm":[[0]],"iterations":0}`,
		`{"name":"x","threads":[{}],"comm":[[0]],"iterations":1,"unknown_field":3}`,
		`{"name":"x","threads":[{}],"comm":[[0,0]],"iterations":1}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestReadJSONMinimalValid(t *testing.T) {
	in := `{"name":"mini","threads":[{"ComputeCycles":1000}],"comm":[[0]],"iterations":5}`
	w, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads[0].ComputeCycles != 1000 || w.Iterations != 5 {
		t.Errorf("parsed = %+v", w)
	}
}
