package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fpgadbg/internal/obs"
)

// Client talks to a fpgadbgd daemon over the HTTP/JSON API; cmd/fpgadbg
// -remote is a thin wrapper around it.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// do issues a request and decodes the JSON response into out (when
// non-nil), converting error payloads into errors.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a campaign and returns its initial status.
func (c *Client) Submit(ctx context.Context, spec Spec) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/campaigns", spec, &st)
	return st, err
}

// Status fetches one campaign's snapshot.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/campaigns/"+id, nil, &st)
	return st, err
}

// List fetches every campaign. Test fixture (TestHTTPRoundTrip).
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var out []Status
	err := c.do(ctx, http.MethodGet, "/campaigns", nil, &out)
	return out, err
}

// Trace fetches a finished campaign's per-stage telemetry.
// Test fixture (TestHTTPTraceEndpoint).
func (c *Client) Trace(ctx context.Context, id string) (*obs.StageTrace, error) {
	var st obs.StageTrace
	if err := c.do(ctx, http.MethodGet, "/campaigns/"+id+"/trace", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel stops a campaign. Test fixture (TestHTTPCancelAndMetrics).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/campaigns/"+id+"/cancel", nil, nil)
}

// Healthz pings the daemon.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Events streams a campaign's progress, calling fn for each event (past
// events first, then live) until the campaign finishes, the stream drops,
// or ctx expires.
func (c *Client) Events(ctx context.Context, id string, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/campaigns/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("events %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(blob))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("events %s: bad line %q: %w", id, line, err)
		}
		fn(ev)
	}
	return sc.Err()
}

// Wait polls until the campaign reaches a terminal state and returns its
// result (or the campaign's error).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*Result, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			if st.State != StateDone {
				return nil, fmt.Errorf("campaign %s %s: %s", id, st.State, st.Error)
			}
			return st.Result, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
