package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"kset/internal/cluster"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestDaemonServesControl boots a single-node daemon on an ephemeral port
// and drives one instance through its control interface end to end. (The
// single-node cluster is degenerate consensus — decide your own input — but
// it exercises the whole daemon path: flags, listener, control protocol.)
func TestDaemonServesControl(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan readyAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-id", "0",
			"-peers", "127.0.0.1:1",
			"-listen", "127.0.0.1:0",
			"-k", "1", "-t", "0",
			"-quiet",
		}, io.Discard, stop, ready)
	}()
	var addr string
	select {
	case got := <-ready:
		addr = got.Node
		if got.Metrics != "" {
			t.Errorf("metrics endpoint bound without -metrics: %q", got.Metrics)
		}
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}

	c, err := cluster.DialNode(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(wire.Start{Instance: 1, K: 1, T: 0, Input: 42}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tbl, err := c.Table(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 1 && tbl.Rows[0].Decided {
			if tbl.Rows[0].Value != 42 {
				t.Fatalf("decided %d, want 42", tbl.Rows[0].Value)
			}
			if _, err := cluster.VerifyTable(tbl, []types.Value{42}, types.RV1, 0); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance undecided: %+v", tbl)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonServesAcs boots a single-node daemon with -acs and drives one
// value through submit → round closure → ordered log over the control path.
func TestDaemonServesAcs(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan readyAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-id", "0",
			"-peers", "127.0.0.1:1",
			"-listen", "127.0.0.1:0",
			"-k", "1", "-t", "0",
			"-acs",
			"-quiet",
		}, io.Discard, stop, ready)
	}()
	var addr string
	select {
	case got := <-ready:
		addr = got.Node
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}

	c, err := cluster.DialNode(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	round, err := c.AcsSubmit(99)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		lg, err := c.Log(0, 16)
		if err != nil {
			t.Fatal(err)
		}
		if lg.Total >= 1 {
			le := lg.Entries[0]
			if le.Round != round || le.Proposer != 0 || le.Value != 99 {
				t.Fatalf("log entry %+v, want round %d proposer 0 value 99", le, round)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submitted value never reached the log")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ar, err := c.AcsRound(round)
	if err != nil {
		t.Fatal(err)
	}
	if !ar.Closed || len(ar.Slots) != 1 || ar.Slots[0].Status != wire.AcsIn {
		t.Fatalf("round %d = %+v, want closed with slot 0 IN", round, ar)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonLog pins ksetd's one event log: the lifecycle lines are info
// events on the node's log, written with the node's id and without the old
// "ksetd[N]" prefix, and -quiet silences the whole log. The buffer is read
// only after run returns, by which time the node's goroutines have exited.
func TestDaemonLog(t *testing.T) {
	for _, quiet := range []bool{false, true} {
		args := []string{
			"-id", "0",
			"-peers", "127.0.0.1:1",
			"-listen", "127.0.0.1:0",
			"-k", "1", "-t", "0",
			"-log-level", "info",
		}
		if quiet {
			args = append(args, "-quiet")
		}
		var logged bytes.Buffer
		stop := make(chan struct{})
		ready := make(chan readyAddrs, 1)
		errc := make(chan error, 1)
		go func() { errc <- run(args, &logged, stop, ready) }()
		select {
		case <-ready:
		case err := <-errc:
			t.Fatalf("quiet=%v: daemon exited early: %v", quiet, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("quiet=%v: daemon did not come up", quiet)
		}
		close(stop)
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("quiet=%v: daemon shutdown: %v", quiet, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("quiet=%v: daemon did not shut down", quiet)
		}
		out := logged.String()
		if quiet {
			if out != "" {
				t.Errorf("-quiet wrote %q", out)
			}
			continue
		}
		if !strings.Contains(out, " level=info event=listening node=p1 addr=127.0.0.1:") {
			t.Errorf("no listening event carrying node=p1 in:\n%s", out)
		}
		if !strings.Contains(out, " level=info event=\"shutting down\" node=p1\n") {
			t.Errorf("no shutting-down event in:\n%s", out)
		}
		if strings.Contains(out, "ksetd[") {
			t.Errorf("a line still carries the ksetd[N] prefix:\n%s", out)
		}
	}
}

// TestMetricsEndpoint boots a daemon with -metrics, runs one instance, and
// checks the HTTP observability surface: /healthz answers ok, /metrics is
// parseable Prometheus text exposition and contains the decide-latency
// histogram with at least one observation.
func TestMetricsEndpoint(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan readyAddrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-id", "0",
			"-peers", "127.0.0.1:1",
			"-listen", "127.0.0.1:0",
			"-metrics", "127.0.0.1:0",
			"-k", "1", "-t", "0",
			"-quiet",
		}, io.Discard, stop, ready)
	}()
	var addrs readyAddrs
	select {
	case addrs = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	if addrs.Metrics == "" {
		t.Fatal("no metrics address reported")
	}
	defer func() {
		close(stop)
		select {
		case <-errc:
			// run waits for the metrics-server goroutine before returning,
			// so by now the listener must be gone: a fresh connection to the
			// freed ephemeral port must fail.
			if resp, err := http.Get("http://" + addrs.Metrics + "/healthz"); err == nil {
				resp.Body.Close()
				t.Error("metrics endpoint still serving after shutdown")
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not shut down")
		}
	}()

	// Decide one instance so the latency histogram has an observation.
	c, err := cluster.DialNode(addrs.Node, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(wire.Start{Instance: 1, K: 1, T: 0, Input: 5}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tbl, err := c.Table(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 1 && tbl.Rows[0].Decided {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance undecided")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if got := httpGet(t, "http://"+addrs.Metrics+"/healthz"); strings.TrimSpace(got) != "ok" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	body := httpGet(t, "http://"+addrs.Metrics+"/metrics")
	if err := parseExposition(body); err != nil {
		t.Errorf("/metrics not parseable: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE kset_decide_latency_seconds histogram",
		`kset_decide_latency_seconds_bucket{le="+Inf"} 1`,
		"kset_decide_latency_seconds_count 1",
		"kset_frames_sent_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseExposition is a minimal validator for the Prometheus text format: every
// line is a comment or `series value`, with numeric values.
func parseExposition(body string) error {
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			return fmt.Errorf("line %d: empty", i+1)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[1] != "TYPE" {
				return fmt.Errorf("line %d: malformed comment %q", i+1, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value separator in %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("line %d: bad value in %q: %v", i+1, line, err)
		}
	}
	return nil
}

// TestBadFlags pins the startup validation: a nonsensical flag combination
// must fail before the node comes up, with an error naming the offending
// flag — not a failure deep inside instance registration.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring the error must contain ("" = any error)
	}{
		{"missing peers", []string{"-peers", ""}, "-peers"},
		{"id out of range", []string{"-peers", "a,b", "-id", "7"}, ""},
		{"zero k", []string{"-peers", "a,b", "-k", "0"}, "-k 0"},
		{"negative k", []string{"-peers", "a,b", "-k", "-3"}, "-k -3"},
		{"no usable peers", []string{"-peers", " , "}, "-peers"},
		{"negative t", []string{"-peers", "a,b", "-t", "-1"}, "-t -1"},
		{"t equals n", []string{"-peers", "a,b", "-t", "2"}, "-t 2"},
		{"t exceeds n", []string{"-peers", "a,b,c", "-t", "5"}, "-t 5"},
		{"acs needs 2t<n", []string{"-peers", "a,b", "-t", "1", "-acs"}, "2t < n"},
		{"unknown log level", []string{"-peers", "a,b", "-log-level", "loud"}, "loud"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stop := make(chan struct{})
			close(stop)
			err := run(tc.args, io.Discard, stop, nil)
			if err == nil {
				t.Fatalf("run(%v): expected error", tc.args)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}
