package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions. A nil tracer records nothing, which is the untraced
// run. Spans stay in memory and are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Layer string    `json:"layer"`
	Name  string    `json:"name"`
	ID    string    `json:"id,omitempty"` // the campaign, job or kernel the span belongs to
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

func (t *tracer) record(layer, name, id string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{layer, name, id, start, end})
	t.mu.Unlock()
}

// seconds returns the durations of every layer.name span, in seconds.
func (t *tracer) seconds(layer, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that has at
// least ten samples beyond it, with that percentile (0..100). With ten
// samples or fewer it returns the maximum.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	if k < 0 {
		return s[len(s)-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// procField reads one "name: value" field of a /proc/self file.
func procField(file, name string) (int64, error) {
	b, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && k == name {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/%s has no %s", file, name)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	kb, err := procField("status", "VmHWM")
	return float64(kb) / 1024, err
}

// writtenBytes is the bytes the process has passed to write calls
// (wchar of /proc/self/io): files on any filesystem and sockets alike.
func writtenBytes() (int64, error) { return procField("io", "wchar") }
