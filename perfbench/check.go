package main

// Correctness: the benchmark's own model of P and W, brute-force reverse
// rank answers over it, and the replay that checks the sampled answers of
// a run against the model at the epoch each query ran in.

import (
	"fmt"
	"math"
	"sort"

	"gridrank"
)

// model is the catalog as the script has mutated it.
type model struct {
	P, W [][]float64
}

func newModel(P, W [][]float64) *model {
	return &model{P: append([][]float64(nil), P...), W: append([][]float64(nil), W...)}
}

func (m *model) apply(o op) {
	switch o.kind {
	case opInsProduct:
		m.P = append(m.P, o.vec)
	case opInsPref:
		m.W = append(m.W, o.vec)
	case opDelProduct:
		m.P = append(m.P[:o.ids[0]:o.ids[0]], m.P[o.ids[0]+1:]...)
	case opDelPref:
		m.W = append(m.W[:o.ids[0]:o.ids[0]], m.W[o.ids[0]+1:]...)
	case opDelProducts:
		drop := map[int]bool{}
		for _, id := range o.ids {
			drop[id] = true
		}
		kept := make([][]float64, 0, len(m.P)-len(o.ids))
		for i, p := range m.P {
			if !drop[i] {
				kept = append(kept, p)
			}
		}
		m.P = kept
	}
}

// score is w·p summed in dimension order, the order the library's exact
// scores use, so ties resolve identically.
func score(w, p []float64) float64 {
	var s float64
	for j := range w {
		s += w[j] * p[j]
	}
	return s
}

// rankBelow counts products scoring strictly below q under w, stopping
// once the count reaches limit.
func rankBelow(P [][]float64, w, q []float64, limit int) int {
	fq := score(w, q)
	n := 0
	for _, p := range P {
		if score(w, p) < fq {
			n++
			if n >= limit {
				break
			}
		}
	}
	return n
}

// bruteRTK is every preference ranking q within its top k.
func (m *model) bruteRTK(q []float64, k int) answer {
	a := answer{prefs: []int{}}
	for wi, w := range m.W {
		if rankBelow(m.P, w, q, k) < k {
			a.prefs = append(a.prefs, wi)
		}
	}
	return a
}

// bruteRKR is the k preferences ranking q best, ties toward smaller ids.
func (m *model) bruteRKR(q []float64, k int) answer {
	type match struct{ id, rank int }
	best := make([]match, 0, k)
	for wi, w := range m.W {
		limit := math.MaxInt
		if len(best) == k {
			// A later id enters only with a strictly smaller rank.
			limit = best[k-1].rank
		}
		r := rankBelow(m.P, w, q, limit)
		if r >= limit {
			continue
		}
		pos := sort.Search(len(best), func(i int) bool { return best[i].rank > r })
		if len(best) < k {
			best = append(best, match{})
		}
		copy(best[pos+1:], best[pos:len(best)-1])
		best[pos] = match{wi, r}
	}
	a := answer{prefs: make([]int, len(best)), ranks: make([]int, len(best))}
	for i, b := range best {
		a.prefs[i], a.ranks[i] = b.id, b.rank
	}
	return a
}

func (m *model) brute(q query) answer {
	if q.kind == opRKR {
		return m.bruteRKR(q.q, queryK)
	}
	return m.bruteRTK(q.q, queryK)
}

// sampled is one answer kept for the brute-force replay.
type sampled struct {
	op, item int // item is the batch position, 0 for single queries
	got      answer
}

// replay regenerates the first n operations of the script, applies every
// mutation to a fresh model and brute-forces each sampled answer against
// the model as it stood when its query ran. It returns the indexes of the
// operations whose sampled answers were wrong, and the final model.
func replay(w workload, seed int64, P, W [][]float64, n int, samples []sampled) (map[int]string, *model) {
	wrong := map[int]string{}
	m := newModel(P, W)
	s := newScript(w, seed, P, W)
	next := 0
	for i := 0; i < n; i++ {
		o := s.next()
		for next < len(samples) && samples[next].op == i {
			smp := samples[next]
			next++
			q := o.query
			if o.kind == opBatch {
				q = o.items[smp.item]
			}
			if want := m.brute(q); !want.equal(smp.got) {
				wrong[i] = fmt.Sprintf("%s item %d: got %v/%v, brute force %v/%v", opNames[o.kind], smp.item, smp.got.prefs, smp.got.ranks, want.prefs, want.ranks)
			}
		}
		if o.kind.isMutation() {
			m.apply(o)
		}
	}
	return wrong, m
}

// monitorQueries are the monitors' query points, the same on every
// workload: the first products of churn's hot set. Every rebuilt epoch
// recomputes each monitor in full, and reverse top-k costs grow with the
// answer (a query inside many users' top k costs ~80 ms here against
// ~2 ms for these), so the monitors watch queries whose answers are
// mostly empty and whose events are rare.
func monitorQueries() [][]float64 {
	src := newVecStream(subSeed(datasetSeed, "hot/churn"), true)
	qs := make([][]float64, numMonitors)
	for i := range qs {
		qs[i] = scaled(src.next(), hotScale)
	}
	return qs
}

// monitor is one live reverse top-k subscription and the membership its
// initial answer plus its delivered events add up to.
type monitor struct {
	sub     *gridrank.Subscription
	q       []float64
	members map[int]bool
	events  int
}

func newMonitor(sub *gridrank.Subscription, q []float64) *monitor {
	m := &monitor{sub: sub, q: q, members: map[int]bool{}}
	for _, mem := range sub.Initial() {
		m.members[mem.Pref] = true
	}
	return m
}

// drain applies every event the mutation that installed epoch produced.
// delPref is the deleted preference id of a single preference delete, -1
// otherwise: its leave carries the pre-delete id and every survivor above
// it shifts down by one.
func (m *monitor) drain(epoch uint64, delPref int) error {
	var evs []gridrank.SubEvent
	for done := false; !done; {
		select {
		case ev, ok := <-m.sub.Events():
			if !ok {
				return fmt.Errorf("monitor %d cancelled (lagged=%v)", m.sub.ID(), m.sub.Lagged())
			}
			if ev.Seq != epoch {
				return fmt.Errorf("monitor %d: event at epoch %d after the install of %d", m.sub.ID(), ev.Seq, epoch)
			}
			evs = append(evs, ev)
		default:
			done = true
		}
	}
	m.events += len(evs)
	if delPref >= 0 {
		if m.members[delPref] {
			found := false
			for i, ev := range evs {
				if ev.Type == gridrank.SubLeave && ev.Pref == delPref {
					evs = append(evs[:i], evs[i+1:]...)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("monitor %d: deleted member %d left without an event", m.sub.ID(), delPref)
			}
		}
		shifted := map[int]bool{}
		for p := range m.members {
			switch {
			case p > delPref:
				shifted[p-1] = true
			case p < delPref:
				shifted[p] = true
			}
		}
		m.members = shifted
	}
	for _, ev := range evs {
		switch {
		case ev.Type == gridrank.SubLeave && m.members[ev.Pref]:
			delete(m.members, ev.Pref)
		case ev.Type == gridrank.SubEnter && !m.members[ev.Pref]:
			m.members[ev.Pref] = true
		default:
			return fmt.Errorf("monitor %d: %v for preference %d contradicts its membership", m.sub.ID(), ev.Type, ev.Pref)
		}
	}
	return nil
}

// check compares the replayed membership with brute force on the final
// model.
func (m *monitor) check(final *model) error {
	want := final.bruteRTK(m.q, queryK)
	if len(want.prefs) != len(m.members) {
		return fmt.Errorf("monitor %d: %d members after events, brute force has %d", m.sub.ID(), len(m.members), len(want.prefs))
	}
	for _, p := range want.prefs {
		if !m.members[p] {
			return fmt.Errorf("monitor %d: preference %d missing after events", m.sub.ID(), p)
		}
	}
	return nil
}
