package lint

import (
	"fmt"
	"strings"
)

// holdBlockingRule reports operations that can park the goroutine —
// channel sends/receives, default-less selects, net and io stream
// I/O, WaitGroup/Cond Wait, time.Sleep — reached while a mutex is
// held, either directly or through a chain of module-internal calls.
// This generalizes the PR 3 invariant "await sync acks outside
// Engine.mu": a lock held across a blocking operation couples the
// lock's critical section to an unbounded external wait, which is how
// a slow replica stalls every writer on the shard.
//
// Disk I/O (package os and the module's block.Store implementations)
// is deliberately not in the blocking set: synchronous store access
// under the shard lock is the engine's write path, not a hazard.
// Deliberate blocking-under-lock designs (bounded backpressure queues,
// a heal that must exclude pushes) are suppressed with a reasoned
// //lint:ignore hold-blocking.
type holdBlockingRule struct{}

func (holdBlockingRule) Name() string { return "hold-blocking" }

func (holdBlockingRule) Doc() string {
	return "no channel, net I/O, Wait, or Sleep while a mutex is held"
}

func (holdBlockingRule) Check(p *Package, r *Reporter) {} // flow rule; see CheckProgram

func (holdBlockingRule) CheckProgram(prog *Program, r *Reporter) {
	for _, id := range prog.order {
		fi := prog.Funcs[id]
		for _, b := range fi.blocking {
			if len(b.held) == 0 {
				continue
			}
			r.Report(b.pos, "hold-blocking",
				fmt.Sprintf("%s while %s is held", b.what, heldList(b.held)))
		}
		for _, cs := range fi.calls {
			if len(cs.held) == 0 {
				continue
			}
			callee := prog.Funcs[cs.callee]
			if callee == nil || callee.mayBlock == nil {
				continue
			}
			b := callee.mayBlock
			r.Report(cs.pos, "hold-blocking",
				fmt.Sprintf("call to %s may block (%s at %s) while %s is held",
					shortFuncID(cs.callee), b.what, r.Position(b.pos), heldList(cs.held)))
		}
	}
}

func heldList(held []string) string {
	return strings.Join(held, ", ")
}
