package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selfstab"
)

// stalledWriter is a ResponseWriter whose client has stopped reading: the
// first Write announces itself on entered and every Write blocks until
// release is closed.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestNoHandlerWritesUnderLock pins the serving layer's one locking rule:
// no handler touches its ResponseWriter while holding the step-boundary
// lock. Every route is driven into a client that never reads; while its
// first Write is blocked, the stepper must still get the write lock.
func TestNoHandlerWritesUnderLock(t *testing.T) {
	world := testWorld(t, 60)
	ids := world.IDs()
	if err := world.AttachEnergy(selfstab.EnergyConfig{Capacity: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := world.AttachTraffic(selfstab.TrafficConfig{Flows: []selfstab.Flow{selfstab.CBRFlow(ids[0], ids[1], 0.5)}}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(world, Config{SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	for _, rt := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/state", ""},
		{"GET", "/state/node?id=" + strconv.FormatInt(ids[3], 10), ""},
		{"GET", "/state/node?id=999999", ""},
		{"GET", "/clusters", ""},
		{"GET", "/stats/clustering", ""},
		{"GET", "/stats/convergence", ""},
		{"GET", "/stats/traffic", ""},
		{"GET", "/stats/energy", ""},
		{"GET", "/metrics", ""},
		{"GET", "/events", ""},
		{"POST", "/inject", `{"kind":"churn_burst","count":1,"op":"sleep"}`},
		{"POST", "/inject", `{"kind":"nope"}`},
		{"POST", "/inject", `{"kind":"crash_nodes","ids":[999999]}`},
		{"POST", "/snapshot", ""},
		{"POST", "/snapshot?stream=1", ""},
		{"POST", "/trace", ""},
	} {
		t.Run(strings.TrimSpace(rt.method+" "+rt.path+" "+rt.body), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body)).WithContext(ctx)
			w := newStalledWriter()
			served := make(chan struct{})
			go func() {
				defer close(served)
				h.ServeHTTP(w, req)
			}()
			select {
			case <-w.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the handler never wrote")
			}

			stepped := make(chan error, 1)
			go func() {
				var last time.Time
				stepped <- srv.tick(&last)
			}()
			stalled := false
			select {
			case err := <-stepped:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(time.Second):
				stalled = true
				t.Error("the stepper cannot take the lock while the response is blocked in Write")
			}

			close(w.release)
			cancel() // ends the /events stream
			<-served
			if stalled {
				<-stepped // the tick gets the lock once the handler lets go
			}
		})
	}
}
