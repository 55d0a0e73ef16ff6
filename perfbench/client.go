package main

// The client side: one keep-alive connection in a closed loop, request
// encoding, response decoding and the per-response structural checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"
)

type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	body bytes.Buffer
}

func newClient(addr string) *client {
	// One idle connection and one connection per host: every request of
	// the run rides the same keep-alive connection, in order.
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one response, read to its last byte. start and end bound the
// client-side round trip: the request's send to the last body byte.
type reply struct {
	status     int
	body       []byte
	start, end time.Time
}

func (r reply) ms() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	r := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.end = time.Now()
		return r, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.body = resp.StatusCode, c.body.Bytes()
	return r, err
}

// request renders an op as method, path and body.
func request(o op) (string, string, []byte) {
	switch o.kind {
	case opRTK:
		return "POST", "/v1/reverse-topk", queryBody(o.query.q)
	case opRKR:
		return "POST", "/v1/reverse-kranks", queryBody(o.query.q)
	case opBatch:
		var b bytes.Buffer
		b.WriteString(`{"parallelism":` + strconv.Itoa(batchWorkers) + `,"queries":[`)
		for i, it := range o.items {
			if i > 0 {
				b.WriteByte(',')
			}
			typ := "reverse-topk"
			if it.kind == opRKR {
				typ = "reverse-kranks"
			}
			b.WriteString(`{"type":"` + typ + `","k":` + strconv.Itoa(queryK) + `,"query":`)
			writeVec(&b, it.q)
			b.WriteByte('}')
		}
		b.WriteString("]}")
		return "POST", "/v1/batch", b.Bytes()
	case opInsProduct:
		return "POST", "/v1/products", vecBody("product", o.vec)
	case opInsPref:
		return "POST", "/v1/preferences", vecBody("preference", o.vec)
	case opDelProduct:
		return "DELETE", "/v1/products/" + strconv.Itoa(o.ids[0]), nil
	case opDelPref:
		return "DELETE", "/v1/preferences/" + strconv.Itoa(o.ids[0]), nil
	case opDelProducts:
		b, _ := json.Marshal(map[string][]int{"ids": o.ids})
		return "DELETE", "/v1/products", b
	}
	panic(fmt.Sprintf("unknown op kind %d", o.kind))
}

func writeVec(b *bytes.Buffer, v []float64) {
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		// 'g' with precision -1 round-trips the float64 exactly, so the
		// server scores the same vector the model does.
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	b.WriteByte(']')
}

func queryBody(q []float64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"k":` + strconv.Itoa(queryK) + `,"query":`)
	writeVec(&b, q)
	b.WriteByte('}')
	return b.Bytes()
}

func vecBody(field string, v []float64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"` + field + `":`)
	writeVec(&b, v)
	b.WriteByte('}')
	return b.Bytes()
}

// answer is a decoded reverse-rank answer: preference ids for RTK; ids
// with ranks for RKR.
type answer struct {
	prefs []int
	ranks []int
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.prefs, b.prefs) && slices.Equal(a.ranks, b.ranks)
}

type rtkWire struct {
	Preferences []int `json:"preferences"`
	Count       int   `json:"count"`
}

type rkrWire struct {
	Matches []struct {
		Preference int `json:"preference"`
		Rank       int `json:"rank"`
		Position   int `json:"position"`
	} `json:"matches"`
}

type batchWire struct {
	Results []struct {
		ReverseTopK   *rtkWire `json:"reverseTopk"`
		ReverseKRanks *rkrWire `json:"reverseKranks"`
		Error         string   `json:"error"`
	} `json:"results"`
}

type mutationWire struct {
	FirstID int    `json:"firstId"`
	Total   int    `json:"total"`
	Epoch   uint64 `json:"epoch"`
}

// rtkAnswer checks a reverse top-k response's shape against the current
// preference count.
func rtkAnswer(w *rtkWire, nW int) (answer, error) {
	if w == nil {
		return answer{}, fmt.Errorf("missing reverse top-k result")
	}
	if w.Count != len(w.Preferences) {
		return answer{}, fmt.Errorf("count %d != %d ids", w.Count, len(w.Preferences))
	}
	if !sort.IntsAreSorted(w.Preferences) {
		return answer{}, fmt.Errorf("ids not ascending")
	}
	for i, id := range w.Preferences {
		if id < 0 || id >= nW || (i > 0 && id == w.Preferences[i-1]) {
			return answer{}, fmt.Errorf("bad preference id %d of %d", id, nW)
		}
	}
	return answer{prefs: w.Preferences}, nil
}

// rkrAnswer checks a reverse k-ranks response: min(k, |W|) matches in
// ascending (rank, id) order, positions one above ranks.
func rkrAnswer(w *rkrWire, nW int) (answer, error) {
	if w == nil {
		return answer{}, fmt.Errorf("missing reverse k-ranks result")
	}
	want := min(queryK, nW)
	if len(w.Matches) != want {
		return answer{}, fmt.Errorf("%d matches, want %d", len(w.Matches), want)
	}
	a := answer{prefs: make([]int, want), ranks: make([]int, want)}
	for i, m := range w.Matches {
		if m.Preference < 0 || m.Preference >= nW || m.Position != m.Rank+1 {
			return answer{}, fmt.Errorf("bad match %+v", m)
		}
		if i > 0 {
			p := w.Matches[i-1]
			if m.Rank < p.Rank || (m.Rank == p.Rank && m.Preference <= p.Preference) {
				return answer{}, fmt.Errorf("matches out of order at %d", i)
			}
		}
		a.prefs[i], a.ranks[i] = m.Preference, m.Rank
	}
	return a, nil
}
