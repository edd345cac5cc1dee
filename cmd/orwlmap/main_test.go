package main

import (
	"fmt"
	"testing"
	"time"
)

// TestLoadMatrix: every built-in pattern refuses n < 1 and builds an
// order-n matrix otherwise, n = 1 included. Each call runs under a
// deadline, so a pattern that loops forever fails instead of hanging.
func TestLoadMatrix(t *testing.T) {
	for _, pattern := range []string{"ring", "pipeline", "stencil", "clustered", "uniform", "random"} {
		for _, n := range []int{-1, 0, 1, 7} {
			type result struct {
				order int
				err   error
			}
			done := make(chan result, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- result{err: fmt.Errorf("panic: %v", r)}
					}
				}()
				m, err := loadMatrix("", pattern, n)
				if err != nil {
					done <- result{err: err}
					return
				}
				done <- result{order: m.Order()}
			}()
			select {
			case r := <-done:
				if n < 1 {
					if r.err == nil {
						t.Errorf("%s -n %d: built an order-%d matrix, want a refusal", pattern, n, r.order)
					}
				} else if r.err != nil || r.order != n {
					t.Errorf("%s -n %d: order %d, err %v, want an order-%d matrix", pattern, n, r.order, r.err, n)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s -n %d: loadMatrix did not return", pattern, n)
			}
		}
	}
}
