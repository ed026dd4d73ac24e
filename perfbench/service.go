package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// wire is the benchmark's HTTP client side: one pooled transport shared
// by the load workers, plus the per-server, per-endpoint request counts
// the traced run needs to read /metrics without racing the server.
type wire struct {
	hc *http.Client

	mu   sync.Mutex
	sent map[string]map[string]int64 // host → endpoint → responses received

	respBytes atomic.Int64 // response bytes received, for api.resp_kib_per_op
}

func newWire() *wire {
	return &wire{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		sent: map[string]map[string]int64{},
	}
}

func (w *wire) close() { w.hc.CloseIdleConnections() }

// reply is one raw response.
type reply struct {
	backend string // X-Irrd-Backend (gateway responses)
	body    []byte
}

// post sends one JSON body to base+"/v1/"+endpoint through the api
// package's raw client, tallies the response against the server that
// produced it, and turns a non-2xx status into an error.
func (w *wire) post(ctx context.Context, cl *api.Client, endpoint string, body []byte, requestID string) (*reply, error) {
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	if requestID != "" {
		hdr.Set(api.RequestIDHeader, requestID)
	}
	resp, err := cl.Forward(ctx, "POST", "/v1/"+endpoint, body, hdr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", endpoint, err)
	}
	r := &reply{backend: resp.Header.Get(api.BackendHeader), body: data}
	host := resp.Request.URL.Host
	if r.backend != "" {
		host = r.backend
	}
	w.mu.Lock()
	if w.sent[host] == nil {
		w.sent[host] = map[string]int64{}
	}
	w.sent[host][endpoint]++
	w.mu.Unlock()
	w.respBytes.Add(int64(len(data)))
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %.200s", endpoint, resp.StatusCode, data)
	}
	return r, nil
}

// postJSON posts in and decodes the response into out.
func (w *wire) postJSON(ctx context.Context, cl *api.Client, endpoint string, in, out any, requestID string) (*reply, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	r, err := w.post(ctx, cl, endpoint, body, requestID)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(r.body, out); err != nil {
		return r, fmt.Errorf("%s: decoding response: %w", endpoint, err)
	}
	return r, nil
}

// sentTo returns the responses received from host per endpoint.
func (w *wire) sentTo(host string) map[string]int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := map[string]int64{}
	for ep, n := range w.sent[host] {
		out[ep] = n
	}
	return out
}

// irrd is one in-process irrd on a loopback listener.
type irrd struct {
	ts *httptest.Server
	cl *api.Client
}

func startIrrd(cfg server.Config, hc *http.Client) *irrd {
	ts := httptest.NewServer(server.New(cfg))
	return &irrd{ts: ts, cl: api.NewClient(ts.URL, api.WithHTTPClient(hc))}
}

// host is the listener's host:port — the X-Irrd-Backend name the gateway
// gives this backend.
func (d *irrd) host() string { return d.ts.Listener.Addr().String() }

func (d *irrd) close() { d.ts.Close() }

// metricsDoc is the JSON form of an irrd or irrgw /metrics scrape.
type metricsDoc struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
		P50Ns int64  `json:"p50_ns"`
	} `json:"histograms"`
}

// hist returns one histogram's sample count and median in milliseconds.
func (d *metricsDoc) hist(name string) (int64, float64) {
	for _, h := range d.Histograms {
		if h.Name == name {
			return h.Count, float64(h.P50Ns) / 1e6
		}
	}
	return 0, 0
}

func scrape(ctx context.Context, hc *http.Client, base string) (*metricsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	return &doc, nil
}

// settledScrape reads an irrd's /metrics once its per-endpoint request
// histograms count every response the benchmark received from it. irrd
// records a request's duration in a deferred block after the response is
// written, so a scrape right after the last response can come up short.
// It polls for up to two seconds; if the counts never match it returns
// the last scrape with a note saying so, rather than passing a short
// count off as complete.
func settledScrape(ctx context.Context, w *wire, d *irrd) (*metricsDoc, string, error) {
	want := w.sentTo(d.host())
	deadline := time.Now().Add(2 * time.Second)
	for {
		doc, err := scrape(ctx, w.hc, d.ts.URL)
		if err != nil {
			return nil, "", err
		}
		short := ""
		for ep, n := range want {
			if got, _ := doc.hist("irrd_request_duration:endpoint=" + ep); got != n {
				short = fmt.Sprintf("%s: irrd_request_duration{endpoint=%q} counts %d of %d responses", d.host(), ep, got, n)
				break
			}
		}
		if short == "" {
			return doc, "", nil
		}
		if time.Now().After(deadline) {
			return doc, "unsettled " + short, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}
