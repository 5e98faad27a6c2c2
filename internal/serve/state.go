package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// stateChunk is how much of the /state document is encoded between
// writes: large enough that a 10 MB document is a few hundred writes,
// small enough that the encoder's working set stays in cache and the
// response never exists twice in memory.
const stateChunk = 64 << 10

// writeState streams the /state document for nodes at step:
//
//	{
//	  "nodes": [
//	{"id":…,"index":…,…,"status":"alive"},
//	…
//	  ],
//	  "step": 412
//	}
//
// one node per line, each line byte-for-byte what json.Marshal gives for
// the nodeJSON, top-level keys sorted as encoding/json sorts a map's. It
// appends to one reused buffer because marshalling 50 000 nodes through
// reflection and indenting a second copy costs 0.4 s of CPU and ~60 MB of
// garbage, both taken from the stepper on a small host. Callers must have
// rejected non-finite floats (finite) before the first byte.
func writeState(w io.Writer, step int, nodes []nodeJSON) error {
	buf := make([]byte, 0, stateChunk+512)
	buf = append(buf, "{\n  \"nodes\": ["...)
	for i := range nodes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		buf = appendNode(buf, &nodes[i])
		if len(buf) >= stateChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(nodes) > 0 {
		buf = append(buf, "\n  "...)
	}
	buf = append(buf, "],\n  \"step\": "...)
	buf = strconv.AppendInt(buf, int64(step), 10)
	buf = append(buf, "\n}\n"...)
	_, err := w.Write(buf)
	return err
}

// appendNode appends n as a compact JSON object with nodeJSON's keys in
// declaration order.
func appendNode(b []byte, n *nodeJSON) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, n.ID, 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(n.Index), 10)
	b = append(b, `,"x":`...)
	b = appendFloat(b, n.X)
	b = append(b, `,"y":`...)
	b = appendFloat(b, n.Y)
	b = append(b, `,"density":`...)
	b = appendFloat(b, n.Density)
	b = append(b, `,"head":`...)
	b = strconv.AppendInt(b, n.Head, 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, n.Parent, 10)
	b = append(b, `,"color":`...)
	b = strconv.AppendInt(b, n.Color, 10)
	b = append(b, `,"is_head":`...)
	b = strconv.AppendBool(b, n.IsHead)
	b = append(b, `,"status":`...)
	b = appendString(b, n.Status)
	return append(b, '}')
}

// appendFloat formats a finite f exactly as encoding/json does: the
// shortest decimal that round-trips, in exponent form only below 1e-6 or
// from 1e21 up (ES6 number-to-string), with a two-digit negative exponent
// trimmed of its leading zero (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. The statuses this serves are
// plain ASCII words, which need only the quotes; anything else goes
// through encoding/json so escaping stays its business.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// finite returns an error naming the first NaN or infinity among fs — the
// float values JSON cannot carry.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("json: unsupported value: %v", f)
		}
	}
	return nil
}
