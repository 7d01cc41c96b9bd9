package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nova/internal/obs"
)

// Prometheus text exposition (version 0.0.4), stdlib-only. /metrics
// renders the very counters and histograms /debug/vars reports, passed
// through promFamilies: the one declaration of each family's name, TYPE,
// HELP and labels, and of the /debug/vars keys that feed it. Histograms
// render as cumulative _bucket/_sum/_count series whose edges come from
// obs.BucketLabel, shared with the .le.<bound> keys of /debug/vars, so
// the two views can never disagree about an edge. A key that no row
// matches is still exported, as nova_counter{name="<key>"}, so /metrics
// is a superset of /debug/vars.

// promFamily declares one metric family and the keys that feed it.
type promFamily struct {
	name, typ, help string
	keys            []promKey
}

// promKey is one /debug/vars key, or key prefix, that feeds a family.
// Without labels it matches the exact key. With labels it matches every
// key under the prefix whose remainder, split at its last len(labels)-1
// dots, fills each label with a non-empty value
// (http.errors.<endpoint>.<kind>). consts are rendered constant labels
// that follow them.
type promKey struct {
	key    string
	labels []string
	consts string
}

var endpointLabel = []string{"endpoint"}

// promFamilies declares every family /metrics serves. Histogram families
// take histogram names, the others counter keys; a key takes the first
// row that matches it, and the last family's empty prefix matches every
// key.
var promFamilies = []promFamily{
	{"nova_http_requests_total", "counter", "Requests arriving at the admitted endpoints.",
		[]promKey{{key: "http.requests"}}},
	{"nova_http_endpoint_requests_total", "counter", "Requests per endpoint.",
		[]promKey{{key: "http.requests.", labels: endpointLabel}}},
	{"nova_http_responses_total", "counter", "Responses by HTTP status code.",
		[]promKey{{key: "http.status.", labels: []string{"code"}}}},
	{"nova_http_request_errors_total", "counter", "Failed requests by endpoint and wire error kind.",
		[]promKey{{key: "http.errors.", labels: []string{"endpoint", "kind"}}}},
	{"nova_http_rejected_total", "counter", "Requests refused before admission.",
		[]promKey{{key: "http.rejected.", labels: []string{"reason"}}}},
	{"nova_http_inflight_max", "gauge", "High-water mark of concurrently admitted requests.",
		[]promKey{{key: "http.inflight_max"}}},
	{"nova_http_request_duration_microseconds", "histogram",
		"Request latency split by stage: queue (admission wait), encode (engine time of led runs), total (handler time).",
		[]promKey{
			{key: "http.latency.", labels: endpointLabel, consts: `stage="total"`},
			{key: "http.queue_wait.", labels: endpointLabel, consts: `stage="queue"`},
			{key: "http.encode.", labels: endpointLabel, consts: `stage="encode"`},
		}},
	{"nova_cache_hits_total", "counter", "Result-cache hits.", []promKey{{key: "cache.hits"}}},
	{"nova_cache_misses_total", "counter", "Result-cache misses.", []promKey{{key: "cache.misses"}}},
	{"nova_cache_evictions_total", "counter", "Result-cache LRU evictions.", []promKey{{key: "cache.evictions"}}},
	{"nova_cache_bytes", "gauge", "Result-cache payload bytes held.", []promKey{{key: "cache.bytes"}}},
	{"nova_cache_entries", "gauge", "Result-cache entries held.", []promKey{{key: "cache.entries"}}},
	{"nova_singleflight_requests_total", "counter", "Cache-miss runs by singleflight role.", []promKey{
		{key: "flight.leaders", consts: `role="leader"`},
		{key: "flight.shared", consts: `role="follower"`},
	}},
	{"nova_engine_encodes_total", "counter", "Engine runs actually executed (cache misses that led).",
		[]promKey{{key: "engine.encodes"}}},
	{"nova_http_admitted_total", "counter", "Requests admitted past the semaphore.",
		[]promKey{{key: "serve.admitted"}}},
	{"nova_http_admitted_outcomes_total", "counter", "Admitted requests by final outcome.", []promKey{
		{key: "serve.completed", consts: `outcome="completed"`},
		{key: "serve.failed", consts: `outcome="failed"`},
		{key: "serve.canceled", consts: `outcome="canceled"`},
	}},
	{"nova_http_inflight", "gauge", "Requests currently admitted.", []promKey{{key: "http.inflight"}}},
	{"nova_server_draining", "gauge", "1 while the server refuses new work (drain).",
		[]promKey{{key: "server.draining"}}},
	{"nova_counter", "untyped", "Unclassified counters (name label is the /debug/vars key).",
		[]promKey{{key: "", labels: []string{"name"}}}},
}

// promSeries finds the family and rendered label set of one key: a
// histogram name when hist is set, else a counter key. A histogram name
// that no histogram family declares returns nil.
func promSeries(key string, hist bool) (*promFamily, string) {
	for i := range promFamilies {
		f := &promFamilies[i]
		if (f.typ == "histogram") != hist {
			continue
		}
		for _, k := range f.keys {
			if labels, ok := k.match(key); ok {
				return f, labels
			}
		}
	}
	return nil, ""
}

// match reports whether key feeds k, and renders its label set.
func (k promKey) match(key string) (string, bool) {
	rest, ok := strings.CutPrefix(key, k.key)
	if !ok || (rest == "") != (len(k.labels) == 0) {
		return "", false
	}
	pairs := make([]string, len(k.labels), len(k.labels)+1)
	for i := len(k.labels) - 1; i >= 0; i-- {
		val := rest
		if i > 0 {
			j := strings.LastIndexByte(rest, '.')
			if j < 0 {
				return "", false
			}
			val, rest = rest[j+1:], rest[:j]
		}
		if val == "" {
			return "", false
		}
		pairs[i] = promLabel(k.labels[i], val)
	}
	if k.consts != "" {
		pairs = append(pairs, k.consts)
	}
	if len(pairs) == 0 {
		return "", true
	}
	return "{" + strings.Join(pairs, ",") + "}", true
}

// promLabel renders one escaped label pair.
func promLabel(key, val string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(val) + `"`
}

// promLE adds the le label to a rendered label set.
func promLE(labels, bound string) string {
	le := `le="` + bound + `"}`
	if labels == "" {
		return "{" + le
	}
	return labels[:len(labels)-1] + "," + le
}

// promLine is one series of a render: its label set, for sorting, and
// its rendered lines.
type promLine struct{ labels, text string }

// writeProm renders counters and hists through promFamilies. A histogram
// that no family declares is exported by its /debug/vars keys. Families
// emit sorted by name and series sorted by labels, so the output is
// deterministic and every # TYPE line precedes its family's series.
func writeProm(w io.Writer, counters map[string]int64, hists map[string]obs.Hist) {
	out := map[*promFamily][]promLine{}
	add := func(key string, v int64) {
		f, labels := promSeries(key, false)
		out[f] = append(out[f], promLine{labels, fmt.Sprintf("%s%s %d\n", f.name, labels, v)})
	}
	for key, v := range counters {
		add(key, v)
	}
	for name, h := range hists {
		f, labels := promSeries(name, true)
		if f == nil {
			vars := map[string]int64{}
			h.PutVars(name, vars)
			for key, v := range vars {
				add(key, v)
			}
			continue
		}
		out[f] = append(out[f], promLine{labels, promHist(f.name, labels, &h)})
	}

	fams := make([]*promFamily, 0, len(out))
	for f := range out {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		lines := out[f]
		sort.Slice(lines, func(i, j int) bool { return lines[i].labels < lines[j].labels })
		for _, l := range lines {
			fmt.Fprint(w, l.text)
		}
	}
}

// promHist renders one histogram's cumulative buckets, sum and count.
// Bucket edges are obs.BucketLabel — the exact edges /debug/vars renders
// as <name>.le.<bound>. Trailing all-zero buckets collapse into +Inf.
func promHist(name, labels string, h *obs.Hist) string {
	var b strings.Builder
	var cum int64
	last := 0
	for i, n := range h.Buckets {
		if n != 0 {
			last = i
		}
	}
	for i := 0; i <= last && i < obs.NumBuckets-1; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, promLE(labels, obs.BucketLabel(i)), cum)
	}
	fmt.Fprintf(&b, "%s_bucket%s %d\n", name, promLE(labels, "+Inf"), h.Count)
	fmt.Fprintf(&b, "%s_sum%s %d\n", name, labels, h.Sum)
	fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, h.Count)
	return b.String()
}
