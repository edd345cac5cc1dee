package orwl

import (
	"orwlplace/internal/comm"
)

// DependencyMatrix derives the task communication matrix from the
// task–location graph, exactly as the runtime does when orwl_schedule
// is called (§IV-A): for every location, every writer exchanges the
// location's size with every reader. The entry (w, r) accumulates the
// volume flowing from writer task w to reader task r.
//
// The matrix is available from the moment all insertions are recorded;
// calling it before the schedule barrier from the schedule hook is the
// intended use.
func (p *Program) DependencyMatrix() *comm.Matrix {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := comm.NewMatrix(p.numTasks)
	type locUse struct {
		writers []int
		readers []int
	}
	uses := make(map[*Location]*locUse)
	for _, rec := range p.inserts {
		u := uses[rec.loc]
		if u == nil {
			u = &locUse{}
			uses[rec.loc] = u
		}
		if rec.mode == Write {
			u.writers = append(u.writers, rec.task)
		} else {
			u.readers = append(u.readers, rec.task)
		}
	}
	for loc, u := range uses {
		size := float64(len(loc.data))
		if size == 0 {
			// Unsized locations still express a dependency; count one
			// unit so connectivity is preserved.
			size = 1
		}
		for _, w := range u.writers {
			for _, r := range u.readers {
				if w != r {
					m.Add(w, r, size)
				}
			}
		}
	}
	return m
}
