package serve

import (
	"sync"
	"sync/atomic"
)

// hub fans step frames out to SSE subscribers. Publishing never blocks:
// a subscriber whose buffer is full misses that frame (the next one
// carries fresher state anyway), so a stalled client can never stall the
// step loop or other subscribers. Published and dropped frames are
// counted (exported through /metrics) so slow-consumer pressure is
// visible against what was sent.
type hub struct {
	mu        sync.Mutex
	subs      map[chan []byte]struct{}
	closed    bool
	published atomic.Int64
	dropped   atomic.Int64
}

func newHub() *hub {
	return &hub{subs: make(map[chan []byte]struct{})}
}

func (h *hub) subscribe() chan []byte {
	ch := make(chan []byte, 8)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(ch)
		return ch
	}
	h.subs[ch] = struct{}{}
	return ch
}

func (h *hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, ch)
}

func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish encodes the frame once and offers it to every subscriber.
func (h *hub) publish(f stepFrame) {
	frame := f.encode()
	h.published.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- frame:
		default: // slow consumer: drop
			h.dropped.Add(1)
		}
	}
}

// publishedFrames returns how many frames were encoded and offered to
// subscribers since the hub was built.
func (h *hub) publishedFrames() int64 { return h.published.Load() }

// droppedFrames returns how many frames were dropped on full subscriber
// buffers since the hub was built.
func (h *hub) droppedFrames() int64 { return h.dropped.Load() }

// closeAll ends every subscription (server drain). Subscribed channels
// are closed so handlers return; late subscribers get a closed channel.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}
