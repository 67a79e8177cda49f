package flowsim

import (
	"cmp"
	"math"
	"slices"

	"incastlab/internal/sim"
)

// The network solver's RTO wake queue: a binary min-heap of parked
// records keyed by (wake deadline, stall sequence number). A wake pops
// every due entry and activates the records in stall order, whatever
// their deadlines: the activation order fixes the active list's order,
// and with it every per-step floating-point sum, so results are pinned to
// stall order. A wake costs its due entries, not every parked record.
//
// A record parked again before its earlier entry came due (a drop in the
// step that straddles the old deadline) is queued twice. The old entry,
// popped while the record's deadline lies in the future, is re-filed
// under the record's current deadline with its original sequence number,
// so the record keeps its first stall's place in the order.

// wakeEntry is one parked record: rec wakes at at; seq is its stall's
// position in stall order.
type wakeEntry struct {
	at  sim.Time
	seq uint64
	rec int32
}

func (a wakeEntry) before(b wakeEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// wakeQueue is a binary min-heap of wake entries.
type wakeQueue []wakeEntry

func (q *wakeQueue) push(w wakeEntry) {
	h := append(*q, w)
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if !h[k].before(h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
	*q = h
}

func (q *wakeQueue) pop() wakeEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for k := 0; ; {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[k]) {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	*q = h
	return top
}

// park stalls record i on its RTO until the given deadline.
func (e *netEngine) park(i int32, until sim.Time) {
	e.hot[i].stallT = until
	e.wakes.push(wakeEntry{at: until, seq: e.wakeSeq, rec: i})
	e.wakeSeq++
}

// nextWake is the earliest deadline on the wake queue (MaxInt64 when no
// record is parked).
func (e *netEngine) nextWake() sim.Time {
	if len(e.wakes) == 0 {
		return math.MaxInt64
	}
	return e.wakes[0].at
}

// wakeDue reactivates the parked records whose RTO expired, in stall
// order.
func (e *netEngine) wakeDue() {
	due := e.due[:0]
	for len(e.wakes) > 0 && e.wakes[0].at <= e.now {
		due = append(due, e.wakes.pop())
	}
	slices.SortFunc(due, func(a, b wakeEntry) int { return cmp.Compare(a.seq, b.seq) })
	for _, w := range due {
		i := w.rec
		if t := e.hot[i].stallT; t > e.now {
			// Parked again since this entry was filed: wait for the new
			// deadline in the old entry's place.
			w.at = t
			e.wakes.push(w)
			continue
		}
		e.hot[i].stallT = 0
		if e.hot[i].unsent > volEps || e.residual(i) > volEps {
			e.activate(i)
		}
	}
	e.due = due
}
