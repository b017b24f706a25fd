package server

import "strings"

// EdgeCase is one row of the /v1/batch verdict table: a JSON body, the
// path the edge codec takes for it, and the answer both JSON edges give
// (reachd's and the fleet router's, over EdgeGraph with MaxBatchPairs
// EdgeMaxPairs on both). The expected answers, Connection header
// included, were recorded from the handlers as they were before the
// codec, which decoded every body with encoding/json. It is exported for the external edge test; the fuzz
// target seeds its corpus with the same bodies.
type EdgeCase struct {
	Name string
	Body string
	// Fast is whether the fast path decodes the body; false means it
	// declines and encoding/json decides.
	Fast    bool
	Status  int
	Error   string // the ErrorResponse text of a non-200 answer
	Results []bool
	// Close is whether the answer closes the connection: only when the
	// byte cap trips mid-read. A body over the cap whose value ends
	// before it is answered 200 on a connection that stays open.
	Close bool
}

// EdgeMaxPairs is the pair limit of the verdict table's servers; their
// byte cap is 48*8+4096 = 4480 bytes.
const EdgeMaxPairs = 8

// EdgeGraph is the verdict table's graph: 6 vertices, IDs dense.
var EdgeGraph = struct {
	N     int
	Edges [][2]uint32
}{6, [][2]uint32{{1, 2}, {2, 3}, {0, 5}}}

var EdgeCases = []EdgeCase{
	// Taken by the fast path.
	{Name: "compact", Body: `{"pairs":[[1,2],[3,4],[0,5],[1,3]]}`, Fast: true, Status: 200, Results: []bool{true, false, true, true}},
	{Name: "empty", Body: `{"pairs":[]}`, Fast: true, Status: 200, Results: []bool{}},
	{Name: "wide u64", Body: `{"pairs":[[18446744073709551615,0],[4294967296,1],[0,0],[1,2]]}`, Fast: true, Status: 200, Results: []bool{false, false, true, true}},

	// Declined to encoding/json.
	{Name: "python json.dumps", Body: `{"pairs": [[1, 2], [3, 4], [0, 5], [1, 3]]}`, Status: 200, Results: []bool{true, false, true, true}},
	{Name: "whitespace everywhere", Body: " \r\n\t{ \"pairs\" :\n [ [ 1 ,\t2 ] ,\r\n[3,4] ] } \n", Status: 200, Results: []bool{true, false}},
	{Name: "empty padded", Body: `{ "pairs" : [ ] }`, Status: 200, Results: []bool{}},
	{Name: "one pair over the limit", Body: `{"pairs":[[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1]]}`, Status: 413, Error: "batch of 9 pairs exceeds limit 8"},
	{Name: "empty body", Body: ``, Status: 400, Error: "bad batch body: EOF"},
	{Name: "null", Body: `null`, Status: 200, Results: []bool{}},
	{Name: "pairs null", Body: `{"pairs":null}`, Status: 200, Results: []bool{}},
	{Name: "no pairs key", Body: `{}`, Status: 200, Results: []bool{}},
	{Name: "case-folded key", Body: `{"PAIRS":[[1,2]]}`, Status: 200, Results: []bool{true}},
	{Name: "escaped key", Body: `{"p\u0061irs":[[1,2]]}`, Status: 200, Results: []bool{true}},
	{Name: "unknown field", Body: `{"pairs":[[1,2]],"extra":1}`, Status: 400, Error: "bad batch body: json: unknown field \"extra\""},
	{Name: "duplicate key", Body: `{"pairs":[[1,2]],"pairs":[[3,4],[2,3]]}`, Status: 200, Results: []bool{false, true}},
	{Name: "short pair", Body: `{"pairs":[[1]]}`, Status: 200, Results: []bool{false}},
	{Name: "long pair", Body: `{"pairs":[[1,2,3]]}`, Status: 200, Results: []bool{true}},
	{Name: "exponent", Body: `{"pairs":[[1e2,2]]}`, Status: 400, Error: "bad batch body: json: cannot unmarshal number 1e2 into Go struct field BatchRequest.pairs of type uint64"},
	{Name: "fraction", Body: `{"pairs":[[1.0,2]]}`, Status: 400, Error: "bad batch body: json: cannot unmarshal number 1.0 into Go struct field BatchRequest.pairs of type uint64"},
	{Name: "negative", Body: `{"pairs":[[-1,2]]}`, Status: 400, Error: "bad batch body: json: cannot unmarshal number -1 into Go struct field BatchRequest.pairs of type uint64"},
	{Name: "leading zero", Body: `{"pairs":[[01,2]]}`, Status: 400, Error: "bad batch body: invalid character '1' after array element"},
	{Name: "u64 overflow", Body: `{"pairs":[[18446744073709551616,2]]}`, Status: 400, Error: "bad batch body: json: cannot unmarshal number 18446744073709551616 into Go struct field BatchRequest.pairs of type uint64"},
	{Name: "string ID", Body: `{"pairs":[["1",2]]}`, Status: 400, Error: "bad batch body: json: cannot unmarshal string into Go struct field BatchRequest.pairs of type uint64"},
	{Name: "trailing garbage", Body: `{"pairs":[[1,2]]}garbage`, Status: 200, Results: []bool{true}},
	{Name: "second value", Body: `{"pairs":[[1,2]]} {"pairs":[[3,4]]}`, Status: 200, Results: []bool{true}},
	{Name: "malformed", Body: `{nope`, Status: 400, Error: "bad batch body: invalid character 'n' looking for beginning of object key string"},
	{Name: "truncated", Body: `{"pairs":[[1,2]`, Status: 400, Error: "bad batch body: unexpected EOF"},
	{Name: "four over the limit", Body: `{"pairs":[[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1]]}`, Status: 413, Error: "batch of 12 pairs exceeds limit 8"},
	{Name: "padding past the cap after the value", Body: `{"pairs":[[1,2]]}` + strings.Repeat(" ", 5000), Status: 200, Results: []bool{true}},
	{Name: "padding past the cap inside the value", Body: `{"pairs":[[1,2]]` + strings.Repeat(" ", 8192) + `}`, Status: 413, Error: "batch body exceeds 4480 bytes", Close: true},
}
