package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"selfstab"
)

// stateDoc is the /state document as encoding/json sees it.
type stateDoc struct {
	Nodes []nodeJSON `json:"nodes"`
	Step  int        `json:"step"`
}

// TestStateStreamMatchesEncodingJSON: the hand-rolled /state encoder and
// encoding/json agree — the streamed document decodes to the value
// json.Marshal's decodes to, and every node line is byte-for-byte
// json.Marshal of that node — over floats on both sides of each format
// switch, extreme ids and every status string.
func TestStateStreamMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 123456.789,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e20, 1e21, -1e21, 1.2345e25, 1e100,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310, // subnormals and the smallest normal
		math.MaxFloat64, -math.MaxFloat64, math.Pi, 31.000000000000004,
	}
	statuses := []string{
		selfstab.NodeAlive.String(), selfstab.NodeSleeping.String(), selfstab.NodeDead.String(),
		selfstab.NodeStatus(7).String(), "", `q"uo\te`, "<héllo>&\x01",
	}
	ids := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	var nodes []nodeJSON
	for i, f := range floats {
		nodes = append(nodes, nodeJSON{
			ID: ids[i%len(ids)], Index: i, X: f, Y: floats[(i+1)%len(floats)], Density: floats[(i+7)%len(floats)],
			Head: ids[(i+1)%len(ids)], Parent: ids[(i+2)%len(ids)], Color: ids[(i+3)%len(ids)],
			IsHead: i%2 == 0, Status: statuses[i%len(statuses)],
		})
	}
	// Enough nodes to cross several chunk boundaries.
	big := make([]nodeJSON, 3000)
	for i := range big {
		big[i] = nodes[i%len(nodes)]
		big[i].Index = i
	}

	for _, c := range []struct {
		name  string
		nodes []nodeJSON
		step  int
	}{
		{"n=0", []nodeJSON{}, 0}, // the handler always has a slice: [] and never null
		{"n=1", nodes[:1], 7},
		{"edge-values", nodes, math.MaxInt32},
		{"chunked", big, 412},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out chunkRecorder
			if err := writeState(&out, c.step, c.nodes); err != nil {
				t.Fatal(err)
			}
			for _, n := range out.sizes {
				if n > stateChunk+512 {
					t.Errorf("one write of %d bytes: the document is not being streamed", n)
				}
			}
			var got, want stateDoc
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatalf("streamed document does not decode: %v\n%s", err, out.Bytes())
			}
			ref, err := json.Marshal(stateDoc{Nodes: c.nodes, Step: c.step})
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(ref, &want); err != nil {
				t.Fatal(err)
			}
			if len(got.Nodes) != len(c.nodes) || !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed document decodes to\n%+v\nencoding/json's to\n%+v", got, want)
			}
			for i := range got.Nodes { // DeepEqual takes -0 for 0; the bits must match too
				g, w := got.Nodes[i], want.Nodes[i]
				if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
					math.Float64bits(g.Density) != math.Float64bits(w.Density) {
					t.Errorf("node %d: floats differ in their bits: %+v vs %+v", i, g, w)
				}
			}
			// One node per line, each exactly json.Marshal's bytes.
			lines := strings.Split(out.String(), "\n")
			if len(c.nodes) > 0 {
				lines = lines[2 : 2+len(c.nodes)]
				for i, line := range lines {
					want, err := json.Marshal(c.nodes[i])
					if err != nil {
						t.Fatal(err)
					}
					if got := strings.TrimSuffix(line, ","); got != string(want) {
						t.Fatalf("node %d line\n%s\njson.Marshal\n%s", i, got, want)
					}
				}
			}
		})
	}
}

// chunkRecorder collects what is written to it and the size of each write.
type chunkRecorder struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestUnencodableValuesAre500s: a value JSON cannot carry is an error
// document with status 500, from writeJSON and from the /state streamer
// alike — never a 200 whose body is empty or stops mid-document.
func TestUnencodableValuesAre500s(t *testing.T) {
	checkError := func(t *testing.T, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", rec.Code)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || !strings.Contains(doc.Error, "unsupported value") {
			t.Errorf("body %q is not an error document naming the unsupported value (decode: %v)", rec.Body.String(), err)
		}
	}

	t.Run("writeJSON", func(t *testing.T) {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]any{"mean": math.NaN()})
		checkError(t, rec)
	})

	// An infinite density scale is accepted by the library (it is > 0), and
	// a step later the liar advertises +Inf.
	srv, _ := testServer(t, 30, Config{})
	liar := srv.net.IDs()[4]
	if err := srv.net.InflateDensity(math.Inf(1), liar); err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for i := 0; i < 3; i++ {
		if err := srv.tick(&last); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("state", func(t *testing.T) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/state", nil))
		checkError(t, rec)
	})
	t.Run("state/node", func(t *testing.T) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/state/node?id=%d", liar), nil))
		checkError(t, rec)
	})
}

// BenchmarkHandleState is the /state handler alone — copy-out plus the
// streaming encoder into a recorder, no socket and no stepper — at the
// bench/ harness's population.
func BenchmarkHandleState(b *testing.B) {
	const n = 50000
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		world, err := selfstab.NewRandomNetwork(n, selfstab.WithSeed(7), selfstab.WithRange(0.0141))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(world, Config{})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, "/state", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
			b.SetBytes(int64(rec.Body.Len()))
		}
	})
}
