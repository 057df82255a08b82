package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gveleiden/internal/gen"
)

// FuzzDeltaHandler sends arbitrary POST /delta bodies through
// Server.Handler on a fresh server over a small graph. The handler
// must not panic and must answer 202 or a 4xx. A refused body must
// leave the /stats edges, the stream graph and the pending counts as
// they were; an accepted one must grow the pending counts by exactly
// the numbers it acknowledged. Each server's recompute worker is
// stopped before the body is sent. That keeps the pending counts
// still between the two reads, and no snapshot is built over an
// accepted vertex id the fuzzer chose.
func FuzzDeltaHandler(f *testing.F) {
	g, _ := gen.SocialNetwork(120, 6, 4, 0.3, 11)
	es, _ := g.Neighbors(0)
	edge := fmt.Sprintf(`{"u":0,"v":%d}`, es[0])
	for _, seed := range []string{
		`{"insertions":[{"u":0,"v":5,"w":1}]}`,
		`{"insertions":[{"u":3,"v":130,"w":2.5},{"u":3,"v":130,"w":-2.5}]}`,
		`{"deletions":[` + edge + `]}`,
		`{"deletions":[` + edge + `,` + edge + `]}`,
		`{"deletions":[{"u":0,"v":0}]}`,
		`{"deletions":[` + edge + `],"insertions":[` + edge + `]}`,
		`{"insertions":[{"u":1,"v":2,"w":-1}]}`,
		`{"insertions":[{"u":1,"v":2,"w":1e39}]}`,
		`{"insertions":[{"u":-1,"v":2}]}`,
		`{"insertions":null,"deletions":[]}`,
		`{"extra":1}`,
		`{} {}`,
		`{}`,
		``,
		`[`,
		`{"insertions":[` + strings.Repeat(`{"u":1,"v":2},`, 16) + `{"u":1,"v":2}]}`,
		`{"insertions":[{"u":1,"v":2,"w":1}]}` + strings.Repeat(" ", 600),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := testConfig()
		cfg.Options.Threads = 1
		cfg.MaxBatch = 16
		cfg.MaxBody = 512
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		edges := func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.sg.NumEdges()
		}
		before, streamBefore := statsVia(t, h), edges()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/delta", bytes.NewReader(body)))
		after, streamAfter := statsVia(t, h), edges()

		switch {
		case rec.Code == http.StatusAccepted:
			var dr DeltaResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || !dr.Accepted {
				t.Fatalf("202 with body %q: %v", rec.Body, err)
			}
			if after.PendingInsertions != before.PendingInsertions+dr.Insertions ||
				after.PendingDeletions != before.PendingDeletions+dr.Deletions {
				t.Fatalf("acknowledged +%d/+%d, pending went %d/%d -> %d/%d", dr.Insertions, dr.Deletions,
					before.PendingInsertions, before.PendingDeletions, after.PendingInsertions, after.PendingDeletions)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if after.Edges != before.Edges || streamAfter != streamBefore ||
				after.PendingInsertions != before.PendingInsertions || after.PendingDeletions != before.PendingDeletions {
				t.Fatalf("refused body (%d) changed state: %+v -> %+v, stream edges %d -> %d",
					rec.Code, before, after, streamBefore, streamAfter)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// statsVia answers GET /stats through h.
func statsVia(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	return st
}
