package main

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/loadgen"
	"repro/internal/obs/tsdb"
	"repro/internal/server/store"
	"repro/internal/trace"
)

// probeReps is how often each direct layer probe repeats; the median
// is reported.
const probeReps = 5

// timeMedian runs f probeReps times and returns the median duration.
func timeMedian(f func()) time.Duration {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs))
}

// uploadApps are the paper apps whose 8-processor COMATRC2 payloads stay
// under half the daemon's default upload limit (2-4 MiB each); the rest
// run 5-11 MiB.
var uploadApps = []string{"fft", "fmm", "radiosity", "water-n2", "water-sp"}

// saltLen is the length of the hex salt that ends every upload's trace
// name.
const saltLen = 16

// uploadTemplates encodes each upload app once at 8 processors, its
// trace name ending in a zero salt.
func uploadTemplates() ([][]byte, error) {
	out := make([][]byte, len(uploadApps))
	for i, name := range uploadApps {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := a.Generate(8)
		tr.Name = name + "-" + strings.Repeat("0", saltLen)
		out[i] = tr.EncodeCompact()
	}
	return out, nil
}

// saltedPayload copies a template and writes salt into the end of its
// trace name, which TRACES.md places at bytes [12, 12+nameLen) after the
// 8-byte magic and the u32 name length. Distinct salts give distinct
// payloads, so every upload is a new trace.
func saltedPayload(template []byte, salt uint64) []byte {
	p := append([]byte(nil), template...)
	nameLen := int(binary.LittleEndian.Uint32(p[len(trace.CompactMagic):]))
	end := len(trace.CompactMagic) + 4 + nameLen
	copy(p[end-saltLen:end], fmt.Sprintf("%016x", salt))
	return p
}

// fillProbes times the layers behind serve-fill's writes by calling
// their public functions outside any traffic: trace generation for the
// daemon's fft/8p computes, and wire decode over the run's upload
// templates (each upload salts a copy of one).
func fillProbes(r *run, templates [][]byte) {
	fft, err := apps.ByName("fft")
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	d := timeMedian(func() { fft.Generate(8) })
	r.layer("apps.generate_ms.fft8", ms(d))

	var bytesN int
	for _, p := range templates {
		bytesN += len(p)
	}
	d = timeMedian(func() {
		for _, p := range templates {
			if _, err := trace.DecodeCompact(p); err != nil {
				r.fail("probe: decode: %v", err)
			}
		}
	})
	r.layer("trace.decode_ms_per_mb", ms(d)/mb(uint64(bytesN)))
}

// storeProbes times the result store and request canonicalisation, the
// layers every serve request passes, by calling them outside any traffic.
func storeProbes(r *run) {
	const storeOps = 2000
	body := make([]byte, 1536)
	keys := make([]store.Key, storeOps)
	for i := range keys {
		keys[i] = store.KeyOf([]byte(fmt.Sprintf("probe-%d", i)))
	}
	var puts, gets []float64
	for rep := 0; rep < probeReps; rep++ {
		st, err := store.Open("", 0)
		if err != nil {
			r.fail("probe: store: %v", err)
			return
		}
		t0 := time.Now()
		for _, k := range keys {
			if err := st.Put(k, body); err != nil {
				r.fail("probe: store put: %v", err)
			}
		}
		t1 := time.Now()
		for _, k := range keys {
			if _, ok := st.Get(k); !ok {
				r.fail("probe: store get: missing key")
			}
		}
		puts = append(puts, us(t1.Sub(t0))/storeOps)
		gets = append(gets, us(time.Since(t1))/storeOps)
	}
	r.layer("store.put_us", median(puts))
	r.layer("store.get_us", median(gets))

	reqs := loadgen.Config{Keys: universeKeys}.Universe()
	d := timeMedian(func() {
		for _, req := range reqs {
			if _, err := req.CanonicalKey(); err != nil {
				r.fail("probe: canonical key: %v", err)
			}
		}
	})
	r.layer("server.canonical_key_us", us(d)/float64(len(reqs)))
}

// promProbe times the Prometheus exposition render (GET /metrics) and
// its parse by the self-scrape's parser.
func promProbe(r *run, get func() (int, []byte, error)) {
	var body []byte
	var failed error
	d := timeMedian(func() {
		status, b, err := get()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /metrics: HTTP %d", status)
		}
		if err != nil {
			failed = err
		}
		body = b
	})
	if failed != nil {
		r.fail("probe: %v", failed)
		return
	}
	r.layer("obs.prom_render_ms", ms(d))
	d = timeMedian(func() {
		if _, err := tsdb.ParseExposition(string(body)); err != nil {
			failed = err
		}
	})
	if failed != nil {
		r.fail("probe: parse exposition: %v", failed)
		return
	}
	r.layer("obs.parse_ms", ms(d))
}
