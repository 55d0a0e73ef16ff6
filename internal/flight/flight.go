// Package flight is the always-on flight recorder: a bounded,
// lock-free ring of fixed-size digests — one per query, one per
// mutation/epoch install, one per subscription lifecycle event —
// written unconditionally on the hot paths and read only when someone
// asks (the /debug/flight endpoint, the diagnostics bundle, or a
// post-mortem against a loaded index). Unlike the tracer, which
// samples, the recorder never misses an operation: after an incident
// the last N operations are always reconstructable, sampled or not.
//
// # Memory model
//
// The ring is a fixed slice of slots allocated once at construction;
// records are plain value structs copied in and out, so steady-state
// recording performs zero heap allocations. Writers claim a slot by
// incrementing a global cursor (one atomic add), then serialize access
// to that slot with a one-word CAS latch: the slot's version counter is
// even when idle; a writer CASes it odd, copies the record in, and
// releases by storing the next even value. Readers (Snapshot) take the
// same latch and restore the version they found, so they never destroy
// a generation. All transitions are Go atomics, which establish
// happens-before edges — the recorder is race-detector-clean without
// requiring unsampled seqlock reads. Writers never block each other
// except on the same slot, which requires lapping the whole ring;
// recording never blocks a query on reader activity for longer than one
// record copy.
package flight

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Class partitions records by which subsystem produced them.
type Class uint8

const (
	classInvalid Class = iota // zero value marks a claimed-but-unwritten slot
	ClassQuery
	ClassMutation
	ClassSub
)

func (c Class) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassMutation:
		return "mutation"
	case ClassSub:
		return "subscription"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Op identifies the operation a record digests.
type Op uint8

const (
	opInvalid Op = iota
	OpReverseTopK
	OpReverseKRanks
	OpInsertProduct
	OpDeleteProduct
	OpInsertPreference
	OpDeletePreference
	OpInsertProducts
	OpDeleteProducts
	OpInsertPreferences
	OpDeletePreferences
	OpSubscribe
	OpUnsubscribe
	OpSubLagged
)

func (o Op) String() string {
	switch o {
	case OpReverseTopK:
		return "reverse_topk"
	case OpReverseKRanks:
		return "reverse_kranks"
	case OpInsertProduct:
		return "insert_product"
	case OpDeleteProduct:
		return "delete_product"
	case OpInsertPreference:
		return "insert_preference"
	case OpDeletePreference:
		return "delete_preference"
	case OpInsertProducts:
		return "insert_products"
	case OpDeleteProducts:
		return "delete_products"
	case OpInsertPreferences:
		return "insert_preferences"
	case OpDeletePreferences:
		return "delete_preferences"
	case OpSubscribe:
		return "subscribe"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpSubLagged:
		return "subscriber_lagged"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Outcome is how the operation ended.
type Outcome uint8

const (
	OutcomeOK Outcome = iota
	OutcomeCanceled
	OutcomeDeadline
	OutcomeError
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Flag bits packed into Record.Flags.
const (
	// FlagCacheHit marks a query answered from the answer cache.
	FlagCacheHit uint8 = 1 << iota
	// FlagDerived marks a mutation that derived the next epoch from the
	// previous one instead of rebuilding the grid.
	FlagDerived
	// FlagSampled marks an operation whose trace was head-sampled (its
	// trace ID was returned to the caller, so TraceHi/TraceLo identify a
	// span tree that may still be resident in the trace ring).
	FlagSampled
)

// Record is one fixed-size flight digest. It contains no pointers, so
// copying it into a ring slot allocates nothing and a snapshot taken
// later cannot retain any query-lifetime memory.
//
// Field use by class:
//
//   - Query: K, Epoch (epoch served), Case1/2/3 (the scan's Case-1/2/3
//     breakdown, counted by every scan; zero on a cache hit and when
//     no scan ran), Aux1 = dominators, the products the pre-pass found
//     undercutting the query in every attribute by more than the
//     rounding margin (a reverse top-k pass stops at K, and Aux1 = K
//     with zero cases is a query the pre-pass decided), FlagCacheHit,
//     FlagSampled plus TraceHi/TraceLo, Outcome.
//   - Mutation: Epoch (epoch installed), FlagDerived, Aux1 = answer
//     cache entries invalidated by the install's sweep, Aux2 =
//     subscription preference diff evaluations the install triggered.
//   - Subscription: K (subscription's k), Aux1 = subscription kind
//     (0 = reverse top-k, 1 = reverse k-ranks), Aux2 = subscription ID;
//     for OpSubLagged, Aux2 = number of subscribers cancelled as lagged.
type Record struct {
	Seq     uint64  // claim order; process-lifetime monotonic
	Unix    int64   // completion time, nanoseconds since the epoch
	Class   Class   //
	Op      Op      //
	Outcome Outcome //
	Flags   uint8   //
	K       int32   //
	Epoch   uint64  //
	DurNs   int64   //
	Case1   int64   //
	Case2   int64   //
	Case3   int64   //
	TraceHi uint64  //
	TraceLo uint64  //
	Aux1    int64   //
	Aux2    int64   //
}

// TraceID renders the record's trace ID as 32 lowercase hex digits, or
// "" when no trace was attached. Allocates; debug/bundle path only.
func (r Record) TraceID() string {
	if r.TraceHi == 0 && r.TraceLo == 0 {
		return ""
	}
	return fmt.Sprintf("%016x%016x", r.TraceHi, r.TraceLo)
}

// MarshalJSON renders the record with symbolic class/op/outcome names
// and decoded flags — the form the diagnostics bundle and the
// /debug/flight endpoint serve. Allocates; never on the record path.
func (r Record) MarshalJSON() ([]byte, error) {
	return json.Marshal(recordJSON{
		Seq:      r.Seq,
		Time:     time.Unix(0, r.Unix).UTC().Format(time.RFC3339Nano),
		Class:    r.Class.String(),
		Op:       r.Op.String(),
		Outcome:  r.Outcome.String(),
		K:        r.K,
		Epoch:    r.Epoch,
		DurNs:    r.DurNs,
		Case1:    r.Case1,
		Case2:    r.Case2,
		Case3:    r.Case3,
		CacheHit: r.Flags&FlagCacheHit != 0,
		Derived:  r.Flags&FlagDerived != 0,
		Sampled:  r.Flags&FlagSampled != 0,
		TraceID:  r.TraceID(),
		Aux1:     r.Aux1,
		Aux2:     r.Aux2,
	})
}

type recordJSON struct {
	Seq      uint64 `json:"seq"`
	Time     string `json:"time"`
	Class    string `json:"class"`
	Op       string `json:"op"`
	Outcome  string `json:"outcome"`
	K        int32  `json:"k,omitempty"`
	Epoch    uint64 `json:"epoch"`
	DurNs    int64  `json:"durationNs"`
	Case1    int64  `json:"case1,omitempty"`
	Case2    int64  `json:"case2,omitempty"`
	Case3    int64  `json:"case3,omitempty"`
	CacheHit bool   `json:"cacheHit,omitempty"`
	Derived  bool   `json:"derived,omitempty"`
	Sampled  bool   `json:"sampled,omitempty"`
	TraceID  string `json:"traceId,omitempty"`
	Aux1     int64  `json:"aux1,omitempty"`
	Aux2     int64  `json:"aux2,omitempty"`
}

// Counts is a snapshot of the recorder's lifetime totals.
type Counts struct {
	Recorded      int64 `json:"recorded"` // all records ever written
	Queries       int64 `json:"queries"`
	Mutations     int64 `json:"mutations"`
	Subscriptions int64 `json:"subscriptions"`
	Capacity      int   `json:"capacity"` // ring slots (power of two)
}

// slot is one ring entry: a version latch and the record it guards.
// ver is even when the slot is idle; a writer or reader CASes it odd
// while it holds the slot. Writers release to the next even value (a
// new generation); readers restore the value they latched.
type slot struct {
	ver atomic.Uint64
	rec Record
}

// DefaultCapacity is the ring size used when the caller passes 0.
const DefaultCapacity = 4096

// Recorder is the flight ring. The zero-value pointer (nil) is a valid
// no-op recorder: every method is nil-safe, so callers hook record
// sites without guarding. A nil *Recorder is how "disabled" is spelled.
type Recorder struct {
	slots  []slot
	mask   uint64
	cursor atomic.Uint64

	queries   atomic.Int64
	mutations atomic.Int64
	subs      atomic.Int64
}

// New builds a recorder with capacity slots, rounded up to a power of
// two; capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Capacity returns the ring's slot count (0 for a nil recorder).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record copies rec into the ring, stamping rec.Seq with its claim
// order. Zero allocations; safe from any goroutine; no-op on nil.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	i := r.cursor.Add(1) - 1
	rec.Seq = i
	s := &r.slots[i&r.mask]
	for {
		v := s.ver.Load()
		if v&1 == 0 && s.ver.CompareAndSwap(v, v+1) {
			s.rec = rec
			s.ver.Store(v + 2)
			break
		}
	}
	switch rec.Class {
	case ClassQuery:
		r.queries.Add(1)
	case ClassMutation:
		r.mutations.Add(1)
	case ClassSub:
		r.subs.Add(1)
	}
}

// Snapshot copies out the resident records, newest first. It latches
// each slot for the duration of one record copy, so concurrent writers
// are delayed by at most that. Allocates; debug path only.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	c := r.cursor.Load()
	n := uint64(len(r.slots))
	if c < n {
		n = c
	}
	out := make([]Record, 0, n)
	for i := uint64(0); i < n; i++ {
		s := &r.slots[(c-1-i)&r.mask]
		for {
			v := s.ver.Load()
			if v&1 == 0 && s.ver.CompareAndSwap(v, v+1) {
				rec := s.rec
				s.ver.Store(v)
				if rec.Class != classInvalid {
					out = append(out, rec)
				}
				break
			}
		}
	}
	// Concurrent writers can lap slots mid-walk, so enforce newest-first
	// by the claim sequence rather than trusting walk order.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Counts returns the recorder's lifetime totals (zero for nil).
func (r *Recorder) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	q, m, s := r.queries.Load(), r.mutations.Load(), r.subs.Load()
	return Counts{
		Recorded:      q + m + s,
		Queries:       q,
		Mutations:     m,
		Subscriptions: s,
		Capacity:      len(r.slots),
	}
}
