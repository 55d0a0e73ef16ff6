package algo

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrank/internal/dataset"
)

// TestScanWorkerPprofLabels drives parallel queries while sampling the
// goroutine profile (debug=1, which prints goroutine labels) until the
// scan workers' rrq_* labels show up. This is the contract the
// incident-forensics workflow leans on: a goroutine or CPU profile
// taken during an incident attributes worker time to query kind, k and
// layout without any code change.
func TestScanWorkerPprofLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 4000, 6, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 4000, 6)
	gir := NewGIR(P.Points, W.Points, P.Range, 32)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			q := P.Points[i%len(P.Points)]
			if _, _, err := gir.ReverseTopKOpts(ctx, q, 40, QueryOpts{Workers: 4}); err != nil {
				return
			}
			if _, _, err := gir.ReverseKRanksOpts(ctx, q, 10, QueryOpts{Workers: 4}); err != nil {
				return
			}
		}
	}()
	defer func() { stop.Store(true); cancel(); <-done }()

	profile := pprof.Lookup("goroutine")
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := profile.WriteTo(&buf, 1); err != nil {
			t.Fatalf("goroutine profile: %v", err)
		}
		last = buf.String()
		if strings.Contains(last, `"rrq_query":"reverse_topk"`) ||
			strings.Contains(last, `"rrq_query":"reverse_kranks"`) {
			if !strings.Contains(last, `"rrq_layout":"packed"`) {
				t.Errorf("worker labels missing rrq_layout: %s", relevantLines(last))
			}
			if !strings.Contains(last, `"rrq_k":`) {
				t.Errorf("worker labels missing rrq_k: %s", relevantLines(last))
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("scan worker labels never appeared in the goroutine profile; last labels:\n%s", relevantLines(last))
}

func relevantLines(profile string) string {
	var out []string
	for _, line := range strings.Split(profile, "\n") {
		if strings.Contains(line, "labels:") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
