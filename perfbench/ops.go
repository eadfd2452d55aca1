package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// tally counts attempted and failed operations, failures by kind. A
// failed op is a non-2xx reply (429 included), a transport error, an
// error record, a missing trailer or an output-digest mismatch.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	kinds     map[string]int
}

func (t *tally) add(attempted int, fails ...error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	for _, err := range fails {
		if t.kinds == nil {
			t.kinds = map[string]int{}
		}
		t.failed++
		var fe *failure
		kind := "other"
		if errors.As(err, &fe) {
			kind = fe.kind
		}
		t.kinds[kind]++
	}
}

func (t *tally) ratio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// failure is one failed op, classified.
type failure struct {
	kind string // status, transport, decode, error_record, digest, missing, no_trailer
	msg  string
}

func (f *failure) Error() string { return f.kind + ": " + f.msg }

func fail(kind, format string, a ...any) error {
	return &failure{kind: kind, msg: fmt.Sprintf(format, a...)}
}

// post sends body and returns the response once its headers arrived.
// Any status but 200 is a failure; the body is drained and closed then.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fail("transport", "%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fail("transport", "%v", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fail("status", "%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// simulateOnce POSTs one /simulate body and checks the result object's
// digest against want. It reports whether the reply was cache-served.
func simulateOnce(ctx context.Context, hc *http.Client, base string, body []byte, want string) (cached bool, err error) {
	resp, err := post(ctx, hc, base+"/simulate", body)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, fail("transport", "read body: %v", err)
	}
	var r struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return false, fail("decode", "%v", err)
	}
	if got := digest(r.Result); got != want {
		return r.Cached, fail("digest", "result %s, want %s", got[:12], want[:12])
	}
	return r.Cached, nil
}

// sweepRecord is the union of an NDJSON cell record and the trailer.
type sweepRecord struct {
	Index  *int            `json:"index"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  json.RawMessage `json:"error"`
	Done   bool            `json:"done"`
	Jobs   int             `json:"jobs"`
}

// sweepOnce POSTs one /sweep body and reads its NDJSON stream. want[i] is
// the expected result digest of cell i. onRecord sees every well-formed
// record as it arrives. It returns one error per failed cell: a cell
// whose record is missing, an error, or off-digest; a stream without
// its trailer fails every cell.
func sweepOnce(ctx context.Context, hc *http.Client, base string, body []byte, want []string,
	onRecord func(i int, at time.Time, cached bool)) []error {
	all := func(err error) []error {
		errs := make([]error, len(want))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	resp, err := post(ctx, hc, base+"/sweep", body)
	if err != nil {
		return all(err)
	}
	defer resp.Body.Close()
	seen := make([]bool, len(want))
	var errs []error
	trailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		at := time.Now()
		var rec sweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return all(fail("decode", "%v", err))
		}
		if rec.Done {
			trailer = rec.Jobs == len(want)
			break
		}
		if rec.Index == nil || *rec.Index < 0 || *rec.Index >= len(want) || seen[*rec.Index] {
			return all(fail("decode", "bad or repeated record index"))
		}
		i := *rec.Index
		seen[i] = true
		switch {
		case len(rec.Error) > 0:
			errs = append(errs, fail("error_record", "cell %d: %s", i, rec.Error))
		case digest(rec.Result) != want[i]:
			errs = append(errs, fail("digest", "cell %d", i))
		default:
			onRecord(i, at, rec.Cached)
		}
	}
	if err := sc.Err(); err != nil {
		return all(fail("transport", "read stream: %v", err))
	}
	if !trailer {
		return all(fail("no_trailer", "stream ended without a matching trailer"))
	}
	for i, ok := range seen {
		if !ok {
			errs = append(errs, fail("missing", "cell %d has no record", i))
		}
	}
	return errs
}
