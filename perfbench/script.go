package main

// The request script: a pure function of the workload name and the seed.
// A script is an endless sequence of cycles; each cycle is a fixed bag of
// operations (so every cycle has the same mix) shuffled by the seed. The
// catalog sizes after every cycle equal the sizes before it, and every
// insert relists a vector an earlier delete removed, so a long run keeps
// the catalog's contents too instead of drifting, seed by seed, to a
// catalog whose queries and monitors cost more or less.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"gridrank"
)

type opKind uint8

const (
	opRTK         opKind = iota // POST /v1/reverse-topk
	opRKR                       // POST /v1/reverse-kranks
	opBatch                     // POST /v1/batch
	opInsProduct                // POST /v1/products {"product":...}
	opDelProduct                // DELETE /v1/products/{id}
	opInsPref                   // POST /v1/preferences {"preference":...}
	opDelPref                   // DELETE /v1/preferences/{id}
	opDelProducts               // DELETE /v1/products {"ids":[...]}
	numOpKinds
)

var opNames = [numOpKinds]string{"rtk", "rkr", "batch", "insert_product", "delete_product", "insert_preference", "delete_preference", "delete_products"}

func (k opKind) isMutation() bool { return k >= opInsProduct }

// query is one reverse-rank query of the script: a single request or a
// batch item. hot is the query's index in its workload's hot set, or -1
// for a fresh vector that appears once.
type query struct {
	kind  opKind // opRTK or opRKR
	q     []float64
	hot   int
	check bool // brute-forced after the timed phase
	// reask marks a single query sent again right after its first answer:
	// the cache must answer it, with the same answer.
	reask bool
}

// op is one HTTP request of the script.
type op struct {
	kind  opKind
	query query     // opRTK, opRKR
	items []query   // opBatch
	vec   []float64 // inserts
	ids   []int     // deletes: one id, or several for opDelProducts
}

// workload fixes the traffic of one benchmark workload. All workloads
// share the catalog, the server configuration, the monitors and the
// mutation block.
type workload struct {
	name string
	// mmap opens the served index with LoadMmap from a GRI3 file saved
	// during preparation (the rrqserver -index f -mmap restart path).
	mmap bool
	// countOps is the script prefix the exact (c) counts cover; a run
	// never stops before it, whatever its time budget.
	countOps int
	// Per cycle: single RTK and RKR requests, batches, and mutation blocks.
	rtk, rkr, batches, mutBlocks int
	// reasks single RTK requests per cycle are sent twice in a row, so a
	// workload of fresh vectors still times a few cache hits.
	reasks int
	// hotRTK/hotRKR > 0 draw queries Zipf-distributed from hot sets of
	// that many vectors (answers worth caching); 0 sends a fresh vector
	// with every query (every lookup misses the cache).
	hotRTK, hotRKR int
	// batchRKR is the number of reverse k-ranks items in each 32-item
	// batch; the rest are reverse top-k.
	batchRKR int
	// warmBatches draws every batch item from the hot RTK vectors asked
	// as single queries since the last mutation, so the cache answers
	// every item: a client refreshing its view of the products it just
	// looked at. A batch that would have no such vector waits for the
	// next single hot RTK query.
	warmBatches bool
	// checkRTK/checkRKR are the shares of queries brute-forced after the
	// timed phase.
	checkRTK, checkRKR float64
}

// workloads: BENCHMARK.json and README.md give each one's reason.
var workloads = []workload{
	{
		name: "scan",
		rtk:  192, rkr: 8, batches: 1, mutBlocks: 2, reasks: 2,
		batchRKR: batchItems / 2,
		countOps: 1200,
		checkRTK: 0.015, checkRKR: 0.05,
	},
	{
		name: "hot",
		mmap: true,
		rtk:  540, rkr: 60, batches: 4, mutBlocks: 1,
		hotRTK: batchItems, hotRKR: 2, warmBatches: true,
		countOps: 6000,
		checkRTK: 0.005, checkRKR: 0.01,
	},
	{
		name: "churn",
		rtk:  17, rkr: 2, batches: 1, mutBlocks: 2,
		hotRTK: 256, hotRKR: 2,
		countOps: 1200,
		checkRTK: 0.02, checkRKR: 0.05,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mutationBlock is the mutation mix every workload shares: all four single
// kinds plus one batch product delete, sized so the catalog is the same
// after the block as before it. Seven of its ten requests install a
// rebuilt epoch (inserts over HTTP and batch deletes rebuild; single
// deletes derive), so the median mutation sits inside the rebuild mode
// rather than on the boundary between the two.
var mutationBlock = []opKind{
	opInsProduct, opInsProduct, opInsProduct, opInsProduct,
	opInsPref, opInsPref,
	opDelProduct,
	opDelPref, opDelPref,
	opDelProducts,
}

const batchDeleteIDs = 3

// hotScale shrinks hot-set vectors (smaller attributes rank better), so
// repeated queries are products with non-empty reverse top-k answers.
const hotScale = 0.75

// script generates a workload's operations in order.
type script struct {
	w   workload
	rng *rand.Rand
	// products and prefs are seeded streams of fresh vectors: queries
	// once fresh is used up, and inserts while no deleted vector waits.
	products *vecStream
	prefs    *vecStream
	// fresh holds the query vectors of workloads without hot sets: one
	// pool each for single RTK queries, single RKR queries and batch items.
	fresh   [3][][]float64
	hotRTK  [][]float64
	hotRKR  [][]float64
	zipfRTK *rand.Zipf
	zipfRKR *rand.Zipf
	// cat is the catalog as the script has mutated it; relistP and
	// relistW hold deleted vectors, oldest first, for inserts to relist.
	cat              *model
	relistP, relistW [][]float64
	pending          []op
	// warm lists the hot RTK vectors asked since the last mutation, each
	// once; waiting counts the batches held back until warm has one.
	warm    []int
	waiting int
}

func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

func newScript(w workload, seed int64, P, W [][]float64) *script {
	s := &script{
		w:        w,
		rng:      rand.New(rand.NewSource(subSeed(seed, "script/"+w.name))),
		products: newVecStream(subSeed(seed, "products/"+w.name), true),
		prefs:    newVecStream(subSeed(seed, "prefs/"+w.name), false),
		cat:      newModel(P, W),
	}
	if w.hotRTK == 0 {
		// Fixed pools in a seeded order, each about what one run sends:
		// runs of different seeds send mostly the same vectors in each
		// role, so a heavy-tailed cost distribution does not move the tail
		// percentiles from seed to seed.
		src := newVecStream(subSeed(datasetSeed, "queries/"+w.name), true)
		for role, n := range freshPools {
			pool := src.take(n)
			s.rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			s.fresh[role] = pool
		}
	}
	hot := newVecStream(subSeed(datasetSeed, "hot/"+w.name), true)
	for i := 0; i < w.hotRTK; i++ {
		s.hotRTK = append(s.hotRTK, scaled(hot.next(), hotScale))
	}
	for i := 0; i < w.hotRKR; i++ {
		s.hotRKR = append(s.hotRKR, scaled(hot.next(), hotScale))
	}
	if w.hotRTK > 1 {
		s.zipfRTK = rand.NewZipf(s.rng, zipfS, 1, uint64(w.hotRTK-1))
	}
	if w.hotRKR > 1 {
		s.zipfRKR = rand.NewZipf(s.rng, zipfS, 1, uint64(w.hotRKR-1))
	}
	return s
}

// zipfS is the Zipf exponent of hot-set draws.
const zipfS = 1.2

// freshPools are the sizes of the fixed query pools for single RTK
// queries, single RKR queries and batch items: a little under what scan
// sends in one run, so every run sends the whole pools and then a few
// seeded fresh vectors.
var freshPools = [3]int{4096, 160, 640}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// next returns the script's next operation.
func (s *script) next() op {
	if len(s.pending) == 0 {
		s.pending = s.cycle()
	}
	o := s.pending[0]
	s.pending = s.pending[1:]
	return o
}

func (s *script) cycle() []op {
	w := s.w
	var kinds []opKind
	for i := 0; i < w.rtk; i++ {
		kinds = append(kinds, opRTK)
	}
	for i := 0; i < w.rkr; i++ {
		kinds = append(kinds, opRKR)
	}
	for i := 0; i < w.batches; i++ {
		kinds = append(kinds, opBatch)
	}
	for i := 0; i < w.mutBlocks; i++ {
		kinds = append(kinds, mutationBlock...)
	}
	s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// The first reasks RTK requests of the shuffled cycle are re-asked.
	reasks := w.reasks
	ops := make([]op, 0, len(kinds)+reasks)
	for _, k := range kinds {
		if k == opBatch && w.warmBatches && len(s.warm) == 0 {
			s.waiting++
			continue
		}
		o := s.build(k)
		ops = append(ops, o)
		if k == opRTK && reasks > 0 {
			reasks--
			o.query.check, o.query.reask = false, true
			ops = append(ops, o)
		}
		for ; s.waiting > 0 && len(s.warm) > 0; s.waiting-- {
			ops = append(ops, s.build(opBatch))
		}
	}
	return ops
}

func (s *script) build(k opKind) op {
	o := op{kind: k}
	if k.isMutation() {
		s.warm = s.warm[:0] // a mutation may drop any cached answer
	}
	switch k {
	case opRTK, opRKR:
		o.query = s.query(k, int(k))
		if k == opRTK && o.query.hot >= 0 && !slices.Contains(s.warm, o.query.hot) {
			s.warm = append(s.warm, o.query.hot)
		}
	case opBatch:
		o.items = s.batch()
	case opInsProduct:
		o.vec = relist(&s.relistP, s.products)
	case opInsPref:
		o.vec = relist(&s.relistW, s.prefs)
	case opDelProduct:
		o.ids = []int{s.rng.Intn(len(s.cat.P))}
	case opDelPref:
		o.ids = []int{s.rng.Intn(len(s.cat.W))}
	case opDelProducts:
		o.ids = s.rng.Perm(len(s.cat.P))[:batchDeleteIDs]
	}
	for _, id := range o.ids {
		if k == opDelPref {
			s.relistW = append(s.relistW, s.cat.W[id])
		} else {
			s.relistP = append(s.relistP, s.cat.P[id])
		}
	}
	if k.isMutation() {
		s.cat.apply(o)
	}
	return o
}

// relist takes the longest-waiting deleted vector from q, or a fresh one
// from src while none waits (only near the start of a run).
func relist(q *[][]float64, src *vecStream) []float64 {
	if len(*q) == 0 {
		return src.next()
	}
	v := (*q)[0]
	*q = (*q)[1:]
	return v
}

// query draws a query of kind k for a role: its index in fresh.
func (s *script) query(k opKind, role int) query {
	q := query{kind: k, hot: -1}
	switch {
	case k == opRTK && s.hotRTK != nil:
		q.hot = draw(s.zipfRTK)
		q.q = s.hotRTK[q.hot]
	case k == opRKR && s.hotRKR != nil:
		q.hot = draw(s.zipfRKR)
		q.q = s.hotRKR[q.hot]
	case len(s.fresh[role]) > 0:
		q.q, s.fresh[role] = s.fresh[role][0], s.fresh[role][1:]
	default:
		q.q = s.products.next()
	}
	share := s.w.checkRTK
	if k == opRKR {
		share = s.w.checkRKR
	}
	q.check = s.rng.Float64() < share
	return q
}

// draw is a Zipf-distributed hot-set index; a one-vector set has none.
func draw(z *rand.Zipf) int {
	if z == nil {
		return 0
	}
	return int(z.Uint64())
}

// batchRole indexes the batch items' pool in fresh; single queries use
// their kind.
const batchRole = 2

// batch builds one /v1/batch body's items. Hot items are distinct within a
// batch: two workers looking up the same key at once would make hit counts
// depend on timing. Warm items may repeat, since every one is a hit.
func (s *script) batch() []query {
	items := make([]query, 0, batchItems)
	if s.w.warmBatches {
		for len(items) < batchItems {
			h := s.warm[s.rng.Intn(len(s.warm))]
			items = append(items, query{kind: opRTK, q: s.hotRTK[h], hot: h, check: s.rng.Float64() < s.w.checkRTK})
		}
		return items
	}
	seen := map[int]bool{}
	for len(items) < batchItems {
		k := opRTK
		if len(items) < s.w.batchRKR {
			k = opRKR
		}
		q := s.query(k, batchRole)
		if q.hot >= 0 {
			key := q.hot
			if k == opRKR {
				key += 1 << 20
			}
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		items = append(items, q)
	}
	return items
}

// vecStream is an endless, seeded source of DIANPING-simulator vectors,
// generated in chunks.
type vecStream struct {
	seed     int64
	products bool
	chunk    int64
	buf      [][]float64
}

const vecChunk = 1024

func newVecStream(seed int64, products bool) *vecStream {
	return &vecStream{seed: seed, products: products}
}

func (v *vecStream) next() []float64 {
	if len(v.buf) == 0 {
		seed := v.seed + v.chunk*7919
		v.chunk++
		var err error
		if v.products {
			v.buf, err = gridrank.GenerateProducts(seed, gridrank.Dianping, vecChunk, dim)
		} else {
			v.buf, err = gridrank.GeneratePreferences(seed, gridrank.Dianping, vecChunk, dim)
		}
		if err != nil {
			panic(err) // constant, valid arguments
		}
	}
	x := v.buf[0]
	v.buf = v.buf[1:]
	return x
}

func (v *vecStream) take(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = v.next()
	}
	return out
}

// digest hashes the first n operations of a workload's script.
func scriptDigest(w workload, seed int64, P, W [][]float64, n int) string {
	s := newScript(w, seed, P, W)
	h := sha256.New()
	var b [8]byte
	putF := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	putQ := func(q query) {
		h.Write([]byte{byte(q.kind)})
		for _, x := range q.q {
			putF(x)
		}
	}
	for i := 0; i < n; i++ {
		o := s.next()
		h.Write([]byte{byte(o.kind)})
		putQ(o.query)
		for _, it := range o.items {
			putQ(it)
		}
		for _, x := range o.vec {
			putF(x)
		}
		for _, id := range o.ids {
			h.Write([]byte(strconv.Itoa(id) + ","))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
