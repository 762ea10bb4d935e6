package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/optparse"
	"github.com/dramstudy/rhvpp/internal/server"
)

// Connection bounds of `rhvpp serve`: a client must finish its request
// headers within readHeaderTimeout, and a keep-alive connection is closed
// after idleTimeout without a request, so a slow or stalled client cannot
// hold a connection open indefinitely. There is deliberately no
// WriteTimeout: NDJSON progress streams and cold campaign computations
// legitimately run for minutes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer wraps the API handler in an http.Server with the connection
// bounds above.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runServe starts the campaign-as-a-service API:
//
//	rhvpp serve -preset golden -store /var/cache/rhvpp
//	curl localhost:8344/v1/experiments/table3?format=json
//
// The campaign knobs (-modules, -mc, ...) set the server's base options;
// each request may override them via identically-named query parameters.
// SIGINT/SIGTERM (via the main ctx) triggers a graceful shutdown: new
// campaign requests get 503 while in-flight computations drain under
// -drain, then the listener closes.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rhvpp serve", flag.ContinueOnError)
	var ov optparse.Overrides
	ov.Flags(fs)
	var (
		addr     = fs.String("addr", "localhost:8344", "listen address")
		storeDir = fs.String("store", "", "artifact store directory for completed campaigns (empty = no persistence)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight campaign computations")
		preset   = fs.String("preset", "", "campaign preset the base options come from: default, paper, or golden")
	)
	if err := optparse.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	o, err := rhvpp.PresetOptions(*preset)
	if err != nil {
		return err
	}
	ov.Apply(&o)
	if err := o.Validate(); err != nil {
		return err
	}
	var st *rhvpp.ArtifactStore
	if *storeDir != "" {
		if st, err = rhvpp.OpenArtifactStore(*storeDir); err != nil {
			return err
		}
	}

	srv := server.New(server.Config{Base: o, Store: st})
	hs := httpServer(srv.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rhvpp serve: listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}

	// Two-phase shutdown: drain the campaign computations first — the
	// listener stays open so new requests receive their 503s and in-flight
	// waiters their responses — then close the HTTP server itself.
	fmt.Fprintf(stdout, "rhvpp serve: draining (deadline %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	httpErr := hs.Shutdown(drainCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return drainErr
	}
	if httpErr != nil {
		return fmt.Errorf("serve: closing listener: %w", httpErr)
	}
	fmt.Fprintln(stdout, "rhvpp serve: drained")
	return nil
}
