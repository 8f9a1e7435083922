package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected: a client that sends part of its
// request headers and then stalls is disconnected once the header
// timeout passes, instead of holding the connection open.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	hs := newHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts not set: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	// Shrink the header timeout so the test runs in well under a second;
	// the stall below must outlast it.
	hs.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Close(); err != nil {
			t.Error(err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The request line and one header, but never the blank line that
	// ends the header block.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: lightd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(bufio.NewReader(conn))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v: the header timeout did not fire", time.Since(start))
	}
	if err != nil {
		t.Fatalf("reading from the stalled connection: %v", err)
	}
}
