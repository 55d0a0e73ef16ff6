package gridrank

// Flight-recorder wiring: the record helpers called from query.go,
// mutate.go and answers.go, and the public accessors the server
// and the diagnostics tooling read. The recorder itself (internal/
// flight) is an always-on bounded ring of fixed-size digests; every
// helper here is nil-safe so a recorder disabled with a negative
// Options.FlightCapacity costs one nil check per operation.

import (
	"context"
	"errors"
	"time"

	"gridrank/internal/flight"
	"gridrank/internal/stats"
)

// FlightRecords returns the flight recorder's resident digests, newest
// first (nil when the recorder is disabled). The snapshot is a copy;
// holding it retains nothing from the query path.
func (ix *Index) FlightRecords() []flight.Record { return ix.fr.Snapshot() }

// FlightCounts returns the recorder's lifetime totals (zero when
// disabled).
func (ix *Index) FlightCounts() flight.Counts { return ix.fr.Counts() }

// FlightEnabled reports whether the always-on flight recorder is
// attached (it is unless Options.FlightCapacity was negative).
func (ix *Index) FlightEnabled() bool { return ix.fr != nil }

// queryDigest carries the per-query facts the inner query methods hand
// back for flight recording. A plain value — it must never escape to
// the heap, since the query path is pinned at zero allocations.
type queryDigest struct {
	epoch uint64
	// work is the scan's own counter set: every scanned query's Case-1/2/3
	// breakdown, zero on an answer-cache hit and before the scan.
	work             stats.Counters
	traceHi, traceLo uint64
	cacheHit         bool
	sampled          bool
}

// flightOutcome folds an error into the digest's outcome code.
func flightOutcome(err error) flight.Outcome {
	switch {
	case err == nil:
		return flight.OutcomeOK
	case errors.Is(err, context.Canceled):
		return flight.OutcomeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return flight.OutcomeDeadline
	default:
		return flight.OutcomeError
	}
}

// recordQuery writes one query digest. Called exactly once per
// ReverseTopKCtx / ReverseKRanksCtx call, including error returns.
// Case1/2/3 are the scan's own counts, so every scanned query records
// its breakdown — batch items, traced and fanned-out queries alike — and
// a cache hit records zeros.
func (ix *Index) recordQuery(op flight.Op, k int, start time.Time, dig queryDigest, err error) {
	if ix.fr == nil {
		return
	}
	end := time.Now()
	rec := flight.Record{
		Unix:    end.UnixNano(),
		Class:   flight.ClassQuery,
		Op:      op,
		Outcome: flightOutcome(err),
		K:       int32(k),
		Epoch:   dig.epoch,
		DurNs:   end.Sub(start).Nanoseconds(),
		Case1:   dig.work.Case1Filtered,
		Case2:   dig.work.Case2Filtered,
		Case3:   dig.work.Refinements,
		TraceHi: dig.traceHi,
		TraceLo: dig.traceLo,
	}
	if dig.cacheHit {
		rec.Flags |= flight.FlagCacheHit
	}
	if dig.sampled {
		rec.Flags |= flight.FlagSampled
	}
	ix.fr.Record(rec)
}

// mutProbe is the pre-install counter snapshot recordMutation diffs
// against: cache drops and subscription diff evaluations are global
// counters, so the install's own contribution is the delta across its
// publish. Taken under ix.mu, so no other install can move the counters
// in between.
type mutProbe struct {
	cacheDrops   int64
	subDiffEvals int64
	subLagged    int64
}

func (ix *Index) flightProbe() mutProbe {
	r := ix.answers.Load()
	if ix.fr == nil || r == nil {
		return mutProbe{}
	}
	st := r.Stats()
	return mutProbe{
		cacheDrops:   st.Invalidations + st.Flushes,
		subDiffEvals: st.PrefsDiffEvaluated + st.PrefsRebuildEvaluated,
		subLagged:    st.Lagged,
	}
}

// recordMutation writes one epoch-install digest (and, when the install
// cancelled lagged subscribers, one subscription digest). Called under
// ix.mu after the publish, so the counter deltas against pre are
// exactly this install's work. start is the mutation entrypoint time:
// the duration covers validation, epoch construction (derive or
// rebuild) and the publish — entry to published.
func (ix *Index) recordMutation(op flight.Op, start time.Time, seq uint64, derived bool, pre mutProbe) {
	if ix.fr == nil {
		return
	}
	post := ix.flightProbe()
	end := time.Now()
	rec := flight.Record{
		Unix:  end.UnixNano(),
		Class: flight.ClassMutation,
		Op:    op,
		Epoch: seq,
		DurNs: end.Sub(start).Nanoseconds(),
		Aux1:  post.cacheDrops - pre.cacheDrops,
		Aux2:  post.subDiffEvals - pre.subDiffEvals,
	}
	if derived {
		rec.Flags |= flight.FlagDerived
	}
	ix.fr.Record(rec)
	if lagged := post.subLagged - pre.subLagged; lagged > 0 {
		ix.fr.Record(flight.Record{
			Unix:  end.UnixNano(),
			Class: flight.ClassSub,
			Op:    flight.OpSubLagged,
			Epoch: seq,
			Aux2:  lagged,
		})
	}
}

// recordSubEvent writes one subscription lifecycle digest (subscribe /
// unsubscribe). kind is 0 for reverse top-k, 1 for reverse k-ranks.
func (ix *Index) recordSubEvent(op flight.Op, k int, kind int64, id int64) {
	if ix.fr == nil {
		return
	}
	ix.fr.Record(flight.Record{
		Unix:  time.Now().UnixNano(),
		Class: flight.ClassSub,
		Op:    op,
		K:     int32(k),
		Epoch: ix.snap().seq,
		Aux1:  kind,
		Aux2:  id,
	})
}
