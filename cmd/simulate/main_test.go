package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadWorkload: -demo and -w each name a workload, and exactly one
// of them must be set; a -w file is read and checked.
func TestLoadWorkload(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		path    string
		demo    bool
		wantErr []string // substrings of the error; nil: no error
	}{
		{"demo", "", true, nil},
		{"demo and a file", "/nonexistent.json", true, []string{"-demo", "-w"}},
		{"demo and a readable file", garbage, true, []string{"-demo", "-w"}},
		{"neither", "", false, []string{"-w", "-demo"}},
		{"missing file", "/nonexistent.json", false, []string{"/nonexistent.json"}},
		{"garbage file", garbage, false, []string{""}},
	}
	for _, c := range cases {
		w, err := loadWorkload(c.path, c.demo)
		if c.wantErr == nil {
			if err != nil || w == nil || len(w.Threads) == 0 {
				t.Errorf("%s: workload %v, err %v, want the demo workload", c.name, w, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: loaded %q, want an error", c.name, w.Name)
			continue
		}
		for _, sub := range c.wantErr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: err %q does not name %q", c.name, err, sub)
			}
		}
	}
}
