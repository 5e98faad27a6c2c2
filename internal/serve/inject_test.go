package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"selfstab"
)

// injectWorld is a small stabilized world with a data plane attached,
// so every inject kind has something to act on. Its ids are 0..23.
func injectWorld(t testing.TB) *Server {
	t.Helper()
	net := testWorld(t, 24)
	if err := net.AttachTraffic(selfstab.TrafficConfig{
		Flows: []selfstab.Flow{selfstab.CBRFlow(0, 1, 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveInject posts body to the server's /inject handler.
func serveInject(srv *Server, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/inject", strings.NewReader(body)))
	return w
}

// TestInjectOpMatchesTypedMutator: every journal kind /inject takes is
// the record the typed mutator journals. The same mutation posted over
// HTTP to one world and made by the typed call on its twin leaves
// byte-identical snapshots.
func TestInjectOpMatchesTypedMutator(t *testing.T) {
	rows := []struct {
		kind  string
		setup func(*selfstab.Network) error
		body  string
		typed func(*selfstab.Network) error
	}{
		{"inject_faults", nil, `{"kind":"inject_faults","frac":0.4}`,
			func(n *selfstab.Network) error { n.InjectFaults(0.4); return nil }},
		{"crash_nodes", nil, `{"kind":"crash_nodes","ids":[3,7]}`,
			func(n *selfstab.Network) error { return n.CrashNodes(3, 7) }},
		{"sleep_nodes", nil, `{"kind":"sleep_nodes","ids":[3,7]}`,
			func(n *selfstab.Network) error { return n.SleepNodes(3, 7) }},
		{"wake_nodes", func(n *selfstab.Network) error { return n.SleepNodes(5) }, `{"kind":"wake_nodes","ids":[5]}`,
			func(n *selfstab.Network) error { return n.WakeNodes(5) }},
		{"remove_nodes", nil, `{"kind":"remove_nodes","ids":[3,7]}`,
			func(n *selfstab.Network) error { return n.RemoveNodes(3, 7) }},
		{"add_nodes", nil, `{"kind":"add_nodes","points":[{"x":0.25,"y":0.75},{"x":0.5,"y":0.5}]}`,
			func(n *selfstab.Network) error {
				_, err := n.AddNodes([]selfstab.Point{{X: 0.25, Y: 0.75}, {X: 0.5, Y: 0.5}})
				return err
			}},
		{"spawn_flows", nil, `{"kind":"spawn_flows","traffic":{"flows":[` +
			`{"kind":"cbr","src":2,"dst":3,"rate":0.5},{"kind":"poisson","src":0,"dst":4,"rate":0.1,"hotspot_sources":3}]}}`,
			func(n *selfstab.Network) error {
				return n.SpawnFlows(selfstab.CBRFlow(2, 3, 0.5), selfstab.HotspotFlow(4, 3, 0.1))
			}},
		{"compact", func(n *selfstab.Network) error { return n.RemoveNodes(2) }, `{"kind":"compact"}`,
			func(n *selfstab.Network) error { _, err := n.Compact(); return err }},
		{"set_defense", nil, `{"kind":"set_defense","defense":{"head_tokens":true,"head_rate":1,"head_burst":4,"source_cap":3}}`,
			func(n *selfstab.Network) error {
				return n.SetTrafficDefense(selfstab.DefenseConfig{HeadAdmission: true, HeadRate: 1, HeadBurst: 4, SourceCap: 3})
			}},
	}
	// Every kind /inject takes is an intent or has a row.
	covered := []string{"crash_region", "sleep_region", "churn_burst", "flood", "byzantine", "evict", "sybil"}
	for _, r := range rows {
		covered = append(covered, r.kind)
		t.Run(r.kind, func(t *testing.T) {
			posted, typed := injectWorld(t), injectWorld(t)
			for _, srv := range []*Server{posted, typed} {
				if r.setup != nil {
					if err := r.setup(srv.net); err != nil {
						t.Fatal(err)
					}
				}
			}
			if w := serveInject(posted, r.body); w.Code != http.StatusOK {
				t.Fatalf("POST %s: status %d: %s", r.body, w.Code, w.Body)
			}
			if err := r.typed(typed.net); err != nil {
				t.Fatal(err)
			}
			if a, b := snapshotBytes(t, posted), snapshotBytes(t, typed); !bytes.Equal(a, b) {
				t.Errorf("the posted op and the typed call journal differently:\n%s\n%s", a, b)
			}
		})
	}
	for kind := range injectReads {
		if !slices.Contains(covered, kind) {
			t.Errorf("journal kind %s has no row", kind)
		}
	}
}

// TestInjectRefusesStrayFields: a body that sets a field its kind does
// not read, step included, is refused with 400 and changes nothing, while
// the same body without that field is accepted. Apply would otherwise
// journal the field.
func TestInjectRefusesStrayFields(t *testing.T) {
	const flows = `"flows":[{"kind":"cbr","src":2,"dst":3,"rate":0.5}]`
	for _, r := range []struct{ name, stray, valid string }{
		{"step", `{"kind":"compact","step":0}`, `{"kind":"compact"}`},
		{"kind spelled KIND", `{"KIND":"compact"}`, `{"kind":"compact"}`},
		{"ids on inject_faults", `{"kind":"inject_faults","frac":0.5,"ids":[3]}`, `{"kind":"inject_faults","frac":0.5}`},
		{"x on crash_nodes", `{"kind":"crash_nodes","ids":[3],"x":0.5}`, `{"kind":"crash_nodes","ids":[3]}`},
		{"scale on churn_burst", `{"kind":"churn_burst","count":1,"op":"crash","scale":2}`, `{"kind":"churn_burst","count":1,"op":"crash"}`},
		{"points on sybil", `{"kind":"sybil","target":9,"count":2,"spread":0.05,"points":[]}`, `{"kind":"sybil","target":9,"count":2,"spread":0.05}`},
		{"queue_cap on spawn_flows", `{"kind":"spawn_flows","traffic":{"queue_cap":4,` + flows + `}}`, `{"kind":"spawn_flows","traffic":{` + flows + `}}`},
		{"unknown defense field", `{"kind":"set_defense","defense":{"source_cap":2,"burst":1}}`, `{"kind":"set_defense","defense":{"source_cap":2}}`},
	} {
		t.Run(strings.ReplaceAll(r.name, " ", "_"), func(t *testing.T) {
			srv := injectWorld(t)
			before := worldDigest(t, srv)
			if w := serveInject(srv, r.stray); w.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", r.stray, w.Code)
			}
			if worldDigest(t, srv) != before {
				t.Errorf("%s changed the world", r.stray)
			}
			if w := serveInject(srv, r.valid); w.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", r.valid, w.Code, w.Body)
			}
		})
	}
}

// FuzzInjectDecode feeds arbitrary bodies to /inject on a small world.
// The handler must not panic and must answer 200, 400, 413 or 422; a
// refused body must leave the journal, the step and every node's state,
// the clustering and the ledgers as they were.
func FuzzInjectDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := injectWorld(t)
		before := worldDigest(t, srv)
		w := serveInject(srv, string(body))
		switch w.Code {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if after := worldDigest(t, srv); after != before {
			t.Fatalf("refused body (%d: %s) changed the world:\n%s\n%s", w.Code, w.Body, before, after)
		}
	})
}

// worldDigest is the snapshot (journal and step) plus every view a
// reader can GET of the world's state.
func worldDigest(t *testing.T, srv *Server) string {
	t.Helper()
	var b strings.Builder
	b.Write(snapshotBytes(t, srv))
	for _, path := range []string{"/state", "/clusters", "/stats/convergence", "/stats/traffic"} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(&b, "%s %d %s", path, w.Code, w.Body)
	}
	return b.String()
}
