package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// wireTarget drives a daemon, or a router in front of daemons, over
// loopback HTTP. Each caller owns one client limited to one connection, so
// a pass with c callers holds exactly c connections open.
type wireTarget struct {
	base    string // http://host:port
	dataset string
	clients []*http.Client
}

// neighborPage is the page size of enumeration requests; a ball larger
// than one page is walked to completion through its cursor.
const neighborPage = 4096

func newWireTarget(base, dataset string, callers int) *wireTarget {
	t := &wireTarget{base: base, dataset: dataset}
	for c := 0; c < callers; c++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return t
}

// handlerTransport answers requests by calling a handler directly with an
// in-memory response recorder: the serving layer without a socket.
type handlerTransport struct{ h http.Handler }

func (ht handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newRecorderTarget drives an in-process handler through the same request
// and reply code as a real daemon.
func newRecorderTarget(h http.Handler, dataset string, callers int) *wireTarget {
	t := &wireTarget{base: "http://in-memory", dataset: dataset}
	for c := 0; c < callers; c++ {
		t.clients = append(t.clients, &http.Client{Transport: handlerTransport{h}})
	}
	return t
}

func (t *wireTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// post sends one prepared body and returns the reply's status and bytes,
// appended to buf[:0].
func post(c *http.Client, url string, body, buf []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, buf[:0], err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, buf[:0], err
	}
	defer resp.Body.Close()
	out := bytes.NewBuffer(buf[:0])
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, out.Bytes(), err
	}
	return resp.StatusCode, out.Bytes(), nil
}

// getJSON fetches url and decodes the reply into v. It is never called
// inside a timed block.
func getJSON(url string, v any) error {
	body, err := getText(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}

// getText fetches url and returns the reply body. It stays outside timed
// blocks, except where the fetch itself is what is timed.
func getText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

func appendPairs(b []byte, pairs [][2]int32) []byte {
	b = append(b, '[')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

func (t *wireTarget) probe(pairs [][2]int32, callers int) (time.Duration, []int8) {
	url := t.base + "/v1/reach"
	bodies := make([][]byte, len(pairs))
	for i, p := range pairs {
		bodies[i] = fmt.Appendf(nil, `{"graph":%q,"s":%d,"t":%d}`, t.dataset, p[0], p[1])
	}
	raw := make([][]byte, len(pairs))
	cl := claimer{n: len(pairs), chunk: 1}
	took := timeBlock(callers, func(c int) {
		for i, _, ok := cl.claim(); ok; i, _, ok = cl.claim() {
			status, body, err := post(t.clients[c], url, bodies[i], nil)
			if err == nil && status == http.StatusOK {
				raw[i] = body
			}
		}
	})
	got := make([]int8, len(pairs))
	for i, body := range raw {
		var reply struct {
			Reachable *bool `json:"reachable"`
		}
		switch {
		case body == nil || json.Unmarshal(body, &reply) != nil || reply.Reachable == nil:
			got[i] = -1
		case *reply.Reachable:
			got[i] = 1
		}
	}
	return took, got
}

func (t *wireTarget) batch(pairs [][2]int32, maxSlice, callers int, observe func() (int, int)) (time.Duration, []batchReply) {
	url := t.base + "/v1/batch"
	var replies []batchReply
	var bodies [][]byte
	for lo := 0; lo < len(pairs); lo += maxSlice {
		hi := min(lo+maxSlice, len(pairs))
		replies = append(replies, batchReply{lo: lo, hi: hi})
		body := fmt.Appendf(nil, `{"graph":%q,"pairs":`, t.dataset)
		bodies = append(bodies, append(appendPairs(body, pairs[lo:hi]), '}'))
	}
	raw := make([][]byte, len(replies))
	cl := claimer{n: len(replies), chunk: 1}
	took := timeBlock(callers, func(c int) {
		for i, _, ok := cl.claim(); ok; i, _, ok = cl.claim() {
			r := &replies[i]
			if observe != nil {
				r.stateLo, _ = observe()
			}
			status, body, err := post(t.clients[c], url, bodies[i], nil)
			if observe != nil {
				_, r.stateHi = observe()
			}
			if err == nil && status == http.StatusOK {
				raw[i] = body
			}
		}
	})
	for i, body := range raw {
		var reply struct {
			Results []bool `json:"results"`
		}
		if body != nil && json.Unmarshal(body, &reply) == nil {
			replies[i].got = reply.Results
		}
	}
	return took, replies
}

// scanInt returns the integer following key in body, searching from the
// given end: a cheap stand-in for a JSON decode inside a timed loop, where
// the caller must read a cursor to continue but nothing else.
func scanInt(body []byte, key string, fromEnd bool) (int, bool) {
	at := bytes.Index(body, []byte(key))
	if fromEnd {
		at = bytes.LastIndex(body, []byte(key))
	}
	if at < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, ch := range body[at+len(key):] {
		if ch < '0' || ch > '9' {
			break
		}
		n, digits = n*10+int(ch-'0'), digits+1
	}
	return n, digits > 0
}

func (t *wireTarget) balls(ops []ballOp, callers int) (time.Duration, []ballReply) {
	url := t.base + "/v1/neighbors"
	first := make([][]byte, len(ops))
	for i, op := range ops {
		dir := "in"
		if op.forward {
			dir = "out"
		}
		first[i] = fmt.Appendf(nil, `{"graph":%q,"source":%d,"direction":%q,"limit":%d`, t.dataset, op.v, dir, neighborPage)
	}
	replies := make([]ballReply, len(ops))
	pages := make([][][]byte, len(ops)) // retained pages of sampled operations
	cl := claimer{n: len(ops), chunk: 1}
	took := timeBlock(callers, func(c int) {
		var page, body []byte
		for i, _, ok := cl.claim(); ok; i, _, ok = cl.claim() {
			r := &replies[i]
			r.sampled = i%ballSampleEvery == 0
			body = append(append(body[:0], first[i]...), '}')
			for {
				status, reply, err := post(t.clients[c], url, body, page)
				page = reply
				count, counted := scanInt(page, `"count":`, false)
				if err != nil || status != http.StatusOK || !counted {
					r.failed = true
					break
				}
				r.size += count
				if r.sampled {
					pages[i] = append(pages[i], bytes.Clone(page))
				}
				cursor, more := scanInt(page[max(0, len(page)-64):], `"next_cursor":`, true)
				if !more {
					break
				}
				body = append(append(body[:0], first[i]...), `,"cursor":`...)
				body = append(strconv.AppendInt(body, int64(cursor), 10), '}')
			}
		}
	})
	for i, ps := range pages {
		r := &replies[i]
		for _, p := range ps {
			var reply struct {
				Total     int `json:"total"`
				Neighbors []struct {
					ID     int32  `json:"id"`
					Bucket string `json:"bucket"`
				} `json:"neighbors"`
			}
			if json.Unmarshal(p, &reply) != nil {
				r.failed = true
				break
			}
			for _, nb := range reply.Neighbors {
				r.members = append(r.members, ballMember{id: nb.ID, frontier: nb.Bucket == "frontier"})
			}
		}
	}
	return took, replies
}

func (t *wireTarget) apply(m *mutation) {
	url := t.base + "/v1/datasets/" + t.dataset + "/edges"
	status, body, err := post(t.clients[0], url, m.requestBody, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	m.rawReply, m.err = body, err
}

func (t *wireTarget) settle(m *mutation) error {
	if m.err != nil {
		return fmt.Errorf("mutation %d: %w", m.number, m.err)
	}
	var reply struct {
		Added   int    `json:"added"`
		Removed int    `json:"removed"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(m.rawReply, &reply); err != nil {
		return fmt.Errorf("mutation %d: %w", m.number, err)
	}
	return m.acknowledge(reply.Added, reply.Removed, reply.Epoch)
}
