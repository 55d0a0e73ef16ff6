package gridrank

import (
	"errors"
	"testing"

	"gridrank/internal/trace"
)

// TestSubscribeAPIValidation pins the root Subscribe surface: argument
// validation, accessor values, the subscriber limit, and the stats
// zero value before the registry exists.
func TestSubscribeAPIValidation(t *testing.T) {
	ix := mustIndex(t, nil)

	if st := ix.SubscriptionStats(); st != (SubStats{}) {
		t.Fatalf("stats before first subscribe = %+v, want zero", st)
	}

	if _, err := ix.Subscribe(Vector{0.5}, 1, SubReverseTopK, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("dimension mismatch: got %v", err)
	}
	if _, err := ix.Subscribe(Vector{0.5, 0.5}, 0, SubReverseTopK, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("k = 0: got %v", err)
	}
	if _, err := ix.Subscribe(Vector{0.5, 0.5}, 1, SubKind(99), 0); err == nil {
		t.Fatal("unknown kind accepted")
	}

	if err := ix.SetSubscriberLimit(-1); err == nil {
		t.Fatal("negative subscriber limit accepted")
	}
	if err := ix.SetSubscriberLimit(1); err != nil {
		t.Fatal(err)
	}
	s, err := ix.Subscribe(phones[0], 2, SubReverseKRanks, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := ix.Subscribe(phones[1], 1, SubReverseTopK, 0); !errors.Is(err, ErrTooManySubscribers) {
		t.Fatalf("limit breach: got %v", err)
	}

	if s.ID() != 0 {
		t.Fatalf("first subscription id = %d, want 0", s.ID())
	}
	if s.Kind() != SubReverseKRanks || s.K() != 2 {
		t.Fatalf("accessors: kind %v k %d", s.Kind(), s.K())
	}
	if got := s.Query(); len(got) != 2 || got[0] != phones[0][0] || got[1] != phones[0][1] {
		t.Fatalf("Query() = %v, want %v", got, phones[0])
	}
	if len(s.Initial()) != 2 {
		t.Fatalf("initial members = %v, want 2 entries", s.Initial())
	}

	// Raising the limit readmits; Close frees the slot again.
	if err := ix.SetSubscriberLimit(0); err != nil {
		t.Fatal(err)
	}
	s2, err := ix.Subscribe(phones[1], 1, SubReverseTopK, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s2.Close() // idempotent
	if _, ok := <-s2.Events(); ok {
		t.Fatal("events channel still open after Close")
	}
	if st := ix.SubscriptionStats(); st.Monitors != 1 || st.Subscribed != 2 || st.Unsubscribed != 1 {
		t.Fatalf("stats = %+v, want 1 monitor, 2 subscribed, 1 unsubscribed", st)
	}
}

// TestSubscriptionTracing pins the diff-pass trace wiring: with a
// tracer attached and a live subscription, every mutation shape records
// a sub.diff span tree; detaching stops recording; without live
// subscriptions nothing is recorded even when attached.
func TestSubscriptionTracing(t *testing.T) {
	ix := mustIndex(t, nil)
	tracer := trace.New(trace.Config{SampleRate: 1, Capacity: 64})

	// Attached but no registry yet: mutations must not record.
	ix.SetSubscriptionTracer(tracer)
	if _, err := ix.InsertProduct(Vector{0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	if n := len(tracer.Traces()); n != 0 {
		t.Fatalf("recorded %d traces with no subscriptions", n)
	}

	s, err := ix.Subscribe(phones[0], 2, SubReverseTopK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wid, err := ix.InsertPreference(Vector{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.DeletePreference(wid); err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteProduct(5); err != nil { // the product inserted above
		t.Fatal(err)
	}
	if _, err := ix.InsertProducts([]Vector{{0.3, 0.3}, {0.9, 0.9}}); err != nil {
		t.Fatal(err)
	}

	ops := make(map[string]bool)
	for _, td := range tracer.Traces() {
		if td.Name != "sub.diff" {
			t.Fatalf("unexpected trace %q", td.Name)
		}
		root := td.Spans[0]
		op, _ := root.Attrs["op"].(string)
		ops[op] = true
		if _, ok := root.Attrs["monitors"]; !ok {
			t.Fatalf("trace %q missing monitors attr: %v", op, root.Attrs)
		}
		if len(td.Spans) < 2 {
			t.Fatalf("trace %q has no child span", op)
		}
	}
	for _, want := range []string{"insert_preference", "delete_preference", "delete_product", "rebuild"} {
		if !ops[want] {
			t.Fatalf("no trace recorded for %s (got %v)", want, ops)
		}
	}

	// Detach: further mutations record nothing new.
	ix.SetSubscriptionTracer(nil)
	before := len(tracer.Traces())
	if _, err := ix.InsertProduct(Vector{0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	if n := len(tracer.Traces()); n != before {
		t.Fatalf("detached tracer still recorded (%d -> %d)", before, n)
	}
}

// TestSubscribeCopiesQuery: the index keeps its own copy of the
// subscribed point, so a caller reusing its buffer after Subscribe
// changes neither what Query reports nor what the subscription watches.
func TestSubscribeCopiesQuery(t *testing.T) {
	ix := mustIndex(t, nil)
	q := Vector{0.6, 0.7}
	orig := append(Vector(nil), q...)
	s, err := ix.Subscribe(q, 3, SubReverseTopK, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ps := append([]Vector(nil), phones...)
	if want := bruteMembers(ps, users, orig, 3, SubReverseTopK); !sameMembers(s.Initial(), want) || len(want) == 0 {
		t.Fatalf("initial %v, brute force %v", s.Initial(), want)
	}
	q[0], q[1] = 0.05, 0.05 // the caller reuses its buffer
	if got := s.Query(); got[0] != orig[0] || got[1] != orig[1] {
		t.Fatalf("Query() = %v after the caller's edit, want %v", got, orig)
	}
	s.Query()[0] = 9 // nor does editing what Query returns reach the index
	p := Vector{0.3, 0.3}
	if _, err := ix.InsertProduct(p); err != nil {
		t.Fatal(err)
	}
	ps = append(ps, p)
	want := expectedSubEvents(s.Initial(), bruteMembers(ps, users, orig, 3, SubReverseTopK), -1)
	if got := drainSubEvents(s); len(want) == 0 || !sameSubEvents(got, want) {
		t.Fatalf("events %v, brute force at the subscribed point %v", got, want)
	}
}
