package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// readRate is the open-loop reader's schedule: one request every
// 1/readRate seconds, whatever the server does.
const readRate = 200

// readStats is what one open-loop reader measured.
type readStats struct {
	latMS  []float64 // per read, from its scheduled send time to the end of its body
	lateMS []float64 // per read, how late it was sent against its schedule
	failed int
}

// readResult is one answered read, handed to the workload's check.
type readResult struct {
	path   string
	status int
	body   []byte
}

// openLoopReader sends GET requests on one keep-alive connection at
// readRate until ctx ends. next(i) gives request i's path; check judges
// each answer and returns an error for a failed read. Each read is
// timed from the moment it was due, so a stall also counts against the
// reads queued behind it (no coordinated omission).
func openLoopReader(ctx context.Context, base string, next func(i int) string, check func(readResult) error, rec *recorder) readStats {
	client := newClient()
	defer client.CloseIdleConnections()
	var st readStats
	period := time.Second / readRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return st
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return st
		}
		sent := time.Now()
		path := next(i)
		id := rec.begin("read", 0, 0)
		res, err := get(ctx, client, base+path)
		done := time.Now()
		rec.end(id, nil)
		if ctx.Err() != nil && err != nil {
			return st // the run ended mid-request; not a read the server failed
		}
		st.latMS = append(st.latMS, done.Sub(due).Seconds()*1e3)
		st.lateMS = append(st.lateMS, sent.Sub(due).Seconds()*1e3)
		if err == nil {
			res.path = path
			err = check(res)
		}
		if err != nil {
			st.failed++
			logf("read %s: %v", path, err)
		}
	}
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

func get(ctx context.Context, c *http.Client, url string) (readResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return readResult{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return readResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return readResult{}, fmt.Errorf("reading body: %w", err)
	}
	return readResult{status: resp.StatusCode, body: body}, nil
}

// lateness is how late the open-loop generator sent its requests: the
// p99 when ten sends lie beyond it, else the worst.
func lateness(lateMS []float64) float64 {
	if len(lateMS) == 0 {
		return 0
	}
	if v, ok := percentile(lateMS, 0.99, 10); ok {
		return v
	}
	v, _ := percentile(lateMS, 1, 0)
	return v
}
