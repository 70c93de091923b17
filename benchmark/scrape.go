package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// serveStatz is the part of seneca-serve's (and seneca-study's) GET /statz
// the benchmark reads. It is decoded from the JSON the binary prints, not
// from the Go type behind it, so only the field names are shared.
type serveStatz struct {
	Accepted     uint64  `json:"accepted"`
	Rejected     uint64  `json:"rejected"`
	Completed    uint64  `json:"completed"`
	Expired      uint64  `json:"expired"`
	Failed       uint64  `json:"failed"`
	Batches      uint64  `json:"batches"`
	MeanBatch    float64 `json:"mean_batch_occupancy"`
	Redispatches uint64  `json:"redispatches"`
	QueueDepth   int     `json:"queue_depth"`
	InFlight     int     `json:"in_flight_batches"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

// clusterStatz is the part of seneca-cluster's GET /statz the benchmark reads.
type clusterStatz struct {
	Nodes []struct {
		Completed uint64 `json:"completed"`
		Depth     int    `json:"queue_depth"`
		InFlight  int    `json:"in_flight_batches"`
	} `json:"nodes"`
	Interactive  clusterTier `json:"interactive"`
	Batch        clusterTier `json:"batch"`
	Redispatches uint64      `json:"redispatches"`
	Hedges       uint64      `json:"hedges"`
}

type clusterTier struct {
	Submitted    uint64  `json:"submitted"`
	Completed    uint64  `json:"completed"`
	Shed         uint64  `json:"shed"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
}

// parseStatz decodes a /statz body, refusing one that lacks the counters
// (a decode into the wrong shape would otherwise read as all zeros).
func parseStatz[T any](body []byte, mustHave string) (T, error) {
	var v T
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		return v, fmt.Errorf("statz: %w", err)
	}
	if _, ok := keys[mustHave]; !ok {
		return v, fmt.Errorf("statz: no %q field", mustHave)
	}
	err := json.Unmarshal(body, &v)
	return v, err
}

// promSample is one line of Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format GET /metrics prints: comment
// lines skipped, `name{k="v",...} value` or `name value` otherwise.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unbalanced braces in %q", line)
			}
			s.name = line[:i]
			for _, kv := range splitLabels(line[i+1 : j]) {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics: bad label %q in %q", kv, line)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					return nil, fmt.Errorf("metrics: bad label value %q in %q", v, line)
				}
				s.labels[k] = uq
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			var ok bool
			s.name, rest, ok = strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("metrics: no value in %q", line)
			}
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// splitLabels splits `a="x",b="y,z"` at the commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	quoted, start := false, 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quoted:
			i++
		case s[i] == '"':
			quoted = !quoted
		case s[i] == ',' && !quoted:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// promValue returns the value of the sample with this name and label, or 0.
func promValue(samples []promSample, name, label, value string) float64 {
	for _, s := range samples {
		if s.name == name && (label == "" || s.labels[label] == value) {
			return s.value
		}
	}
	return 0
}
