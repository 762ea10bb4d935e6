package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/server"
)

// TestCLIAndHTTPReportIdenticalErrors pins the shared option surface: an
// invalid knob given as a CLI flag and as a query parameter must be rejected
// with the same text, whether the rejection comes from parsing (an unknown
// or retired knob) or from Options.Validate (a negative size, a size past
// its cap, a row selection larger than the bank).
func TestCLIAndHTTPReportIdenticalErrors(t *testing.T) {
	hs := httptest.NewServer(server.New(server.Config{Base: rhvpp.GoldenOptions()}).Handler())
	defer hs.Close()
	for _, tc := range []struct{ flag, value string }{
		{"mc", "-5"},
		{"chunks", "-3"},
		{"rows", "-1"},
		{"stride", "-2"},
		{"jobs", "-1"},
		{"ltetol", "0.001"},
		{"ltetol", "NaN"},
		{"fixed-grid", "true"},
		{"fixed-grid", "false"},
		{"batch", "4"},
		{"chunks", "3037000500"},
		{"rows", "3037000500"},
		{"rows", "100000000000"},
		{"rows", "2049"},
		{"mc", "100001"},
		{"mc", "50000000"},
		{"jobs", "1025"},
		{"jobs", "1073741824"},
	} {
		var out bytes.Buffer
		cliErr := run(t.Context(), []string{"-preset", "golden", "-exp", "fig8b", "-" + tc.flag, tc.value}, &out)
		if cliErr == nil {
			t.Errorf("-%s %s accepted by the CLI", tc.flag, tc.value)
			continue
		}
		resp, err := http.Get(hs.URL + "/v1/experiments/fig8b?preset=golden&" + tc.flag + "=" + tc.value)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s=%s: status %d, want 400", tc.flag, tc.value, resp.StatusCode)
		}
		if got := strings.TrimSuffix(string(body), "\n"); got != cliErr.Error() {
			t.Errorf("%s=%s: HTTP body %q\n  CLI error %q", tc.flag, tc.value, got, cliErr.Error())
		}
	}
}

// TestServeBoundsConnections checks the connection bounds rhvpp serve
// installs and that a client which never finishes its request headers is
// disconnected instead of holding the connection open.
func TestServeBoundsConnections(t *testing.T) {
	hs := httpServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Errorf("timeouts %v/%v, want %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Errorf("want positive header and idle timeouts and no write timeout, got %v/%v/%v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}

	// The same server with a shortened header timeout, so the stall is
	// observable in test time.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}
}
