package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a typed helper for the query API — the in-process test
// harness, the smoke load generator, and library consumers all speak
// to a gveserve instance through it.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues the request and decodes the JSON response into out,
// converting non-2xx statuses into errors carrying the server's
// diagnostic.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s %s: %s (status %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Community returns the community of vertex v.
func (c *Client) Community(v uint32) (CommunityResponse, error) {
	var out CommunityResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/community?v=%d", v), nil, &out)
	return out, err
}

// Members returns community id's member list; limit 0 returns all.
func (c *Client) Members(id uint32, limit int) (MembersResponse, error) {
	path := fmt.Sprintf("/members?c=%d", id)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var out MembersResponse
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Neighbors returns vertex v's intra-community neighbours.
func (c *Client) Neighbors(v uint32) (NeighborsResponse, error) {
	var out NeighborsResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/neighbors?v=%d", v), nil, &out)
	return out, err
}

// Hierarchy returns vertex v's community at every dendrogram depth.
func (c *Client) Hierarchy(v uint32) (HierarchyResponse, error) {
	var out HierarchyResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/hierarchy?v=%d", v), nil, &out)
	return out, err
}

// Stats returns the published snapshot's statistics and the serving
// counters.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do(http.MethodGet, "/stats", nil, &out)
	return out, err
}

// ApplyDelta submits one delta batch for ingestion.
func (c *Client) ApplyDelta(insertions, deletions []EdgeUpdate) (DeltaResponse, error) {
	var out DeltaResponse
	err := c.do(http.MethodPost, "/delta",
		DeltaRequest{Insertions: insertions, Deletions: deletions}, &out)
	return out, err
}

// Recompute queues a warm recompute over whatever delta is pending,
// possibly none.
func (c *Client) Recompute() (RecomputeResponse, error) {
	var out RecomputeResponse
	err := c.do(http.MethodPost, "/recompute", nil, &out)
	return out, err
}

// Healthz reports whether the liveness endpoint answers 200.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}
