package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"kreach"
	"kreach/internal/server"
)

// The batch codec is tested differentially, in the plainDijkstra-vs-
// chDijkstra style: encoding/json is the reference implementation, and the
// hand-written decoders and encoders must agree with it on every input.

// refRequest is the reference shape of a /v1/batch body.
type refRequest struct {
	Graph string
	Pairs [][]int
	K     *int
}

// refDecodeRequest is the contract DecodeBatchRequest implements.
func refDecodeRequest(data []byte) (refRequest, error) {
	var req refRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	for i, p := range req.Pairs {
		if len(p) != 2 {
			return req, fmt.Errorf("pair %d has %d ids", i, len(p))
		}
	}
	return req, nil
}

// checkRequest fails t unless DecodeBatchRequest and the reference agree on
// data. got is reused across calls, as the server reuses it.
func checkRequest(t *testing.T, data []byte, got *server.BatchRequest) {
	t.Helper()
	want, wantErr := refDecodeRequest(data)
	gotErr := server.DecodeBatchRequest(data, got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Graph != want.Graph {
		t.Fatalf("%q: graph %q, want %q", data, got.Graph, want.Graph)
	}
	if (got.K == nil) != (want.K == nil) || (got.K != nil && *got.K != *want.K) {
		t.Fatalf("%q: k %v, want %v", data, got.K, want.K)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%q: %d pairs, want %d", data, len(got.Pairs), len(want.Pairs))
	}
	for i, p := range want.Pairs {
		if got.Pairs[i] != (kreach.Pair{S: p[0], T: p[1]}) {
			t.Fatalf("%q: pair %d = %v, want %v", data, i, got.Pairs[i], p)
		}
	}
}

// requestCases are the request bodies every corner of the contract hangs
// on; the fuzz seeds add their truncations and bit flips.
var requestCases = []string{
	`{"graph":"g","pairs":[[0,5],[1,2]],"k":3}`,
	`{"pairs":[[0,5]],"graph":"g"}`,
	" \t\r\n{ \"graph\" : \"g\" ,\n\"pairs\" : [ [ 0 , 5 ] , [1,2] ] , \"k\" : -1 } ",
	`{"GRAPH":"g","Pairs":[[1,2]],"K":4}`,
	`{"grAph":"g","pairſ":[[1,2]],"K":4}`,
	`{"graph":"g","pairs":[[1,2]]}`,
	`{"graph":"a","graph":"b","pairs":[[1,2]],"pairs":[[3,4],[5,6]],"k":1,"k":2}`,
	`{"graph":"a","graph":null}`,
	`{"pairs":null,"k":null}`,
	`{"k":1,"k":null}`,
	`{"k":null,"k":7}`,
	`{"pairs":[]}`,
	`{}`,
	`null`,
	`null garbage`,
	`nul`,
	``,
	`   `,
	`[]`,
	`"x"`,
	`12`,
	`true`,
	`{"graph":"g","extra":1}`,
	`{"graph":"g"} trailing {"bytes"`,
	`{"graph":"g"}}`,
	`{"pairs":[[01,2]]}`,
	`{"pairs":[[1.0,2]]}`,
	`{"pairs":[[1e3,2]]}`,
	`{"pairs":[[1,2E0]]}`,
	`{"pairs":[[-0,2]]}`,
	`{"pairs":[[9223372036854775807,-9223372036854775808]]}`,
	`{"pairs":[[9223372036854775808,1]]}`,
	`{"pairs":[[-9223372036854775809,1]]}`,
	`{"pairs":[[18446744073709551616,1]]}`,
	`{"k":99999999999999999999999}`,
	`{"k":"3"}`,
	`{"k":true}`,
	`{"graph":5}`,
	`{"pairs":{}}`,
	`{"pairs":[1,2]}`,
	`{"pairs":[["1",2]]}`,
	`{"pairs":[[5]]}`,
	`{"pairs":[[1,2,3]]}`,
	`{"pairs":[null]}`,
	`{"pairs":[[]]}`,
	`{"pairs":[[1,null]]}`,
	`{"pairs":[[null,null]]}`,
	`{"pairs":[[1,2]],"pairs":[[3,null]]}`,
	`{"pairs":[[1,2],[3,4]],"pairs":[[5,6]],"pairs":[[7,8],[null,null]]}`,
	`{"pairs":[[1,2,3]],"pairs":[[4]],"pairs":[[5,null]]}`,
	`{"pairs":[[1,2]],"pairs":[null],"pairs":[[null,3]]}`,
	`{"pairs":[[1,2]],"pairs":[[]],"pairs":[[4,null]]}`,
	`{"pairs":[[1,2]],"pairs":[],"pairs":[[null,3]]}`,
	`{"pairs":[[5]],"pairs":[[1,2]]}`,
	`{"pairs":[[1,2]],"pairs":[[5]]}`,
	`{"pairs":[[1,2],]}`,
	`{"pairs":[[1,2]],}`,
	`{"pairs":[[1 2]]}`,
	`{"pairs":[[1,2]`,
	`{"graph":"<a&b> ","pairs":[]}`,
	`{"graph":"é😀\ud800x\udc00\\\/\b\f\n\r\t\""}`,
	`{"graph":"\ud800A"}`,
	"{\"graph\":\"\xff\xfe\xc3\"}",
	"{\"graph\":\"a\x01\"}",
	`{"graph":"\x41"}`,
	`{"graph":"\u12"}`,
	`{"graph":"\u00zz"}`,
	`{"pairs":[[1,2]],"k":1.5}`,
	`{"pairs":[[1,2]],"k":-}`,
	`{"pairs":[[1,2]],"k":tru}`,
	`{"pairs":[[nul,2]]}`,
	`{"pairs":[[nullx,2]]}`,
	`{,}`,
	`{"graph"}`,
	`{"graph":}`,
	`{"\u0000":1}`,
	"\xef\xbb\xbf{}",
}

// seeds returns every case plus its truncations and one bit flip per byte.
func seeds(cases []string) [][]byte {
	var out [][]byte
	for _, c := range cases {
		b := []byte(c)
		out = append(out, b)
		for n := range b {
			out = append(out, b[:n])
			flipped := bytes.Clone(b)
			flipped[n] ^= 1 << (n % 8)
			out = append(out, flipped)
		}
	}
	return out
}

// realRequest is a body as clients write it.
func realRequest(rng *rand.Rand, pairs int) []byte {
	req := struct {
		Graph string   `json:"graph"`
		Pairs [][2]int `json:"pairs"`
		K     int      `json:"k"`
	}{Graph: "social", Pairs: make([][2]int, pairs)}
	for i := range req.Pairs {
		req.Pairs[i] = [2]int{rng.IntN(1 << 20), rng.IntN(1 << 20)}
	}
	req.K = rng.IntN(8)
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzBatchRequest(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, b := range seeds(append(requestCases, string(realRequest(rng, 3)))) {
		f.Add(b)
	}
	f.Add(realRequest(rng, 200))
	var got server.BatchRequest
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequest(t, data, &got)
	})
}

// replyCases are reply bodies and their near misses: escapes, duplicate
// keys, nulls, odd numbers and unknown fields. Whatever encoding/json reads
// from one, AppendBatchReply must write back as encoding/json writes it.
var replyCases = []string{
	`{"graph":"g","epoch":3,"count":2,"results":[true,false]}` + "\n",
	`{"graph":"g","epoch":3,"count":2,"results":[true,false],"verdicts":["yes","no"],"effective_k":[0,0]}`,
	`{"graph":"g","epoch":3,"count":1,"results":[true],"verdicts":["yes-within"],"effective_k":[4]}`,
	`{"verdicts":["maybe","yes"]}`,
	`{"Graph":"g","EPOCH":1,"Count":1,"RESULTS":[true]}`,
	`{"results":[true,true],"results":[false,null]}`,
	`{"results":[true,true],"results":[],"results":[null,null]}`,
	`{"results":null}`,
	`{"effective_k":[1,2],"effective_k":[null]}`,
	`{"verdicts":["yes","no"],"verdicts":[null,null,null]}`,
	`{"epoch":null,"count":null,"graph":null}`,
	`{"epoch":-1}`,
	`{"epoch":-0}`,
	`{"epoch":18446744073709551615}`,
	`{"epoch":18446744073709551616}`,
	`{"epoch":1.5}`,
	`{"count":-9223372036854775808}`,
	`{"results":[1]}`,
	`{"results":[tru]}`,
	`{"results":["true"]}`,
	`{"verdicts":[1]}`,
	`{"effective_k":[true]}`,
	`{"legs":1,"extra":{"a":[1,2.5e-3,-0.0,"x",true,false,null,{}],"b":[]},"graph":"g"}`,
	`{"extra":[1,]}`,
	`{"extra":01}`,
	`{"extra":1.}`,
	`{"extra":1e}`,
	`{"extra":-}`,
	`{"extra":"\q"}`,
	`{"extra":{"a" 1}}`,
	`{"extra":{1:1}}`,
	`{"extra":[[[[]]]]}`,
	`{"graph":"g"} `,
	`{"graph":"g"} x`,
	`{"graph":"g"}{}`,
	`null`,
	` null `,
	`[]`,
	`{}`,
	``,
	`{"graph":"g"`,
}

// FuzzBatchReply: every reply encoding/json can read re-encodes through
// AppendBatchReply byte for byte as encoding/json encodes it, whatever the
// graph name, verdict strings and numbers.
func FuzzBatchReply(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	real := string(server.AppendBatchReply(nil, randomReply(rng, 3, true)))
	for _, b := range seeds(append(replyCases, real)) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r server.BatchReply
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if got, want := server.AppendBatchReply(nil, &r), encodeJSON(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("%q:\n got %s\nwant %s", data, got, want)
		}
	})
}

// graphNames exercise every escaping rule of the string encoder.
var graphNames = []string{
	"", "social", "<script>&amp;</script>", "quote\"back\\slash", "tab\tnl\nbell\x07\x1f\x7f",
	"line para ", "é😀", "bad\xffutf8\xc3", "�",
}

func randomReply(rng *rand.Rand, n int, perQueryK bool) *server.BatchReply {
	r := &server.BatchReply{
		Graph:   graphNames[rng.IntN(len(graphNames))],
		Epoch:   rng.Uint64(),
		Count:   n,
		Results: make([]bool, n),
	}
	for i := range r.Results {
		r.Results[i] = rng.IntN(2) == 0
	}
	if perQueryK {
		for range n {
			v := []kreach.Verdict{kreach.No, kreach.Yes, kreach.YesWithin}[rng.IntN(3)]
			r.Verdicts = append(r.Verdicts, v.String())
			r.EffectiveK = append(r.EffectiveK, rng.IntN(64)-8)
		}
	}
	return r
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchEncodersMatchEncodingJSON: every reply shape encodes byte for
// byte as encoding/json encodes it.
func TestBatchEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 300; trial++ {
		r := randomReply(rng, []int{0, 1, 2, 17, 300}[trial%5], trial%2 == 1)
		if trial%7 == 0 {
			r.Results = nil
		}
		if got, want := server.AppendBatchReply(nil, r), encodeJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("kreachd reply:\n got %s\nwant %s", got, want)
		}
	}
}

// TestBatchRequestErrorsNamePosition: a refused pair is named by position.
func TestBatchRequestErrorsNamePosition(t *testing.T) {
	var req server.BatchRequest
	err := server.DecodeBatchRequest([]byte(`{"pairs":[[1,2],[3]]}`), &req)
	if err == nil || !strings.Contains(err.Error(), "pair 1") {
		t.Fatalf("error %v, want one naming pair 1", err)
	}
}
